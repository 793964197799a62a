"""The two cost functions of Appendix C.2, plus Preference adapters.

Both functions assign a cost to a (partial) tree decomposition of a query's
hypergraph; lower cost should mean faster decomposition-guided execution.

* :func:`estimate_cost` — Appendix C.2.1 (Equations 5 and 6): node costs are
  the optimiser's *estimated* cost of the bag join (our stand-in for
  PostgreSQL ``EXPLAIN``), and subtree costs add estimated semi-join costs.
* :func:`cardinality_cost` — Appendix C.2.2 (Equations 7, 8 and 9): an
  "omniscient" cost based on the *actual* cardinality of every bag join,
  with the ``ReducedSz`` model for how much the bottom-up semi-joins shrink
  each child before it is probed.

Both are strongly monotone in the sense of Section 6.1, so wrapping them in a
:class:`repro.core.preferences.CostPreference` yields a preference-complete
toptd usable by Algorithm 2 and the ranked enumerator.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.hypergraph.hypergraph import Hypergraph, Vertex
from repro.decompositions.td import TreeDecomposition
from repro.decompositions.tree import TreeNode
from repro.core.preferences import CostPreference, MonotoneCostPreference
from repro.db.database import Database
from repro.db.query import Atom, ConjunctiveQuery
from repro.db.stats import CardinalityEstimator
from repro.db.yannakakis import atom_relation, choose_cover

Bag = FrozenSet[Vertex]


def _log(value: float) -> float:
    return math.log2(value) if value > 1 else 0.0


class _CostModelBase:
    """Shared plumbing: bag covers and atom lookup for a fixed query."""

    def __init__(
        self,
        query: ConjunctiveQuery,
        database: Database,
        max_cover_size: Optional[int] = None,
        prefer_connected: bool = True,
    ):
        self.query = query
        self.database = database
        self.hypergraph = query.hypergraph()
        self.max_cover_size = max_cover_size
        self.prefer_connected = prefer_connected
        self._cover_cache: Dict[Bag, Tuple[str, ...]] = {}

    def cover_of(self, bag: Bag) -> Tuple[str, ...]:
        if bag not in self._cover_cache:
            if not bag:
                self._cover_cache[bag] = ()
            else:
                self._cover_cache[bag] = tuple(
                    choose_cover(
                        self.hypergraph,
                        bag,
                        max_size=self.max_cover_size,
                        prefer_connected=self.prefer_connected,
                    )
                )
        return self._cover_cache[bag]

    def cover_atoms(self, bag: Bag) -> List[Atom]:
        return [self.query.atom(alias) for alias in self.cover_of(bag)]


class EstimateCostModel(_CostModelBase):
    """Appendix C.2.1: costs derived from the optimiser's estimates."""

    def __init__(
        self,
        query: ConjunctiveQuery,
        database: Database,
        estimator: Optional[CardinalityEstimator] = None,
        max_cover_size: Optional[int] = None,
        prefer_connected: bool = True,
    ):
        super().__init__(query, database, max_cover_size, prefer_connected)
        self.estimator = estimator or database.estimator
        # Plan costs are pure functions of the atom set; Algorithm 2 asks for
        # the same bags and (parent, child) pairs over and over.
        self._plan_cost_cache: Dict[Tuple[str, ...], float] = {}
        self._semijoin_cache: Dict[Tuple[Bag, Bag], float] = {}

    def _plan_cost(self, atoms: Sequence[Atom]) -> float:
        key = tuple(atom.alias for atom in atoms)
        cost = self._plan_cost_cache.get(key)
        if cost is None:
            cost = self.estimator.estimate_plan_cost(atoms)
            self._plan_cost_cache[key] = cost
        return cost

    def node_cost(self, bag: Bag) -> float:
        """Equation (5): the estimated cost of the bag join (0 for single atoms)."""
        atoms = self.cover_atoms(bag)
        if len(atoms) <= 1:
            return 0.0
        return self._plan_cost(atoms)

    def _semijoin_extra_cost(self, parent_bag: Bag, child_bag: Bag) -> float:
        """``C(J_p ⋉ J_c) − C(J_p) − C(J_c)``, clamped to at least 1.

        ``C(J_p ⋉ J_c)`` is the optimiser's estimated cost of the semi-join
        query, which we stand in for with the estimated plan cost of the join
        over the union of the two bags' cover atoms.  That estimate includes
        re-evaluating both bag joins, so the paper subtracts their costs; the
        clamp guards against noisy estimates driving the total negative
        (Appendix C.2.1 — the paper's formula prints ``min``, but a lower
        clamp is the only reading that "avoids the total cost becoming
        negative").
        """
        cached = self._semijoin_cache.get((parent_bag, child_bag))
        if cached is not None:
            return cached
        parent_atoms = self.cover_atoms(parent_bag)
        child_atoms = self.cover_atoms(child_bag)
        if not parent_atoms or not child_atoms:
            cost = 1.0
        else:
            combined: List[Atom] = list(parent_atoms)
            seen = {atom.alias for atom in combined}
            for atom in child_atoms:
                if atom.alias not in seen:
                    seen.add(atom.alias)
                    combined.append(atom)
            semijoin = self._plan_cost(combined)
            parent_cost = self._plan_cost(parent_atoms)
            child_cost = self._plan_cost(child_atoms)
            cost = max(semijoin - parent_cost - child_cost, 1.0)
        self._semijoin_cache[(parent_bag, child_bag)] = cost
        return cost

    def subtree_cost(self, decomposition: TreeDecomposition, node: TreeNode) -> float:
        """Equation (6): recursive subtree cost."""
        bag = decomposition.bag(node)
        total = self.node_cost(bag)
        for child in node.children:
            total += self.subtree_cost(decomposition, child)
            total += self._semijoin_extra_cost(bag, decomposition.bag(child))
        return total

    def decomposition_cost(self, decomposition: TreeDecomposition) -> float:
        return self.subtree_cost(decomposition, decomposition.tree.root)

    def as_preference(self) -> MonotoneCostPreference:
        """Equation (6) as a *monotone* preference for Algorithm 2.

        The recursion is exactly node costs plus parent→child semi-join
        terms, so the constrained solver can compose keys bottom-up from
        ``(bag, cost)`` fragment states instead of re-walking subtrees.
        """
        return MonotoneCostPreference(self.node_cost, self._semijoin_extra_cost)


class CardinalityCostModel(_CostModelBase):
    """Appendix C.2.2: an omniscient cost based on actual cardinalities."""

    def __init__(
        self,
        query: ConjunctiveQuery,
        database: Database,
        max_cover_size: Optional[int] = None,
        prefer_connected: bool = True,
    ):
        super().__init__(query, database, max_cover_size, prefer_connected)
        self._bag_size_cache: Dict[Bag, int] = {}

    # -- actual bag cardinalities -------------------------------------------------

    def bag_cardinality(self, bag: Bag) -> int:
        """``|J_u|``: the actual size of the bag join projected onto the bag."""
        if bag not in self._bag_size_cache:
            aliases = self.cover_of(bag)
            if not aliases:
                self._bag_size_cache[bag] = 0
            else:
                relation = atom_relation(self.database, self.query.atom(aliases[0]))
                for alias in aliases[1:]:
                    relation = relation.natural_join(
                        atom_relation(self.database, self.query.atom(alias))
                    )
                relation = relation.project(
                    [a for a in relation.attributes if a in bag]
                )
                self._bag_size_cache[bag] = len(relation)
        return self._bag_size_cache[bag]

    # -- Equation (7): node cost ----------------------------------------------------

    def node_cost(self, bag: Bag) -> float:
        aliases = self.cover_of(bag)
        if len(aliases) <= 1:
            return 0.0
        cost = float(self.bag_cardinality(bag))
        for alias in aliases:
            size = len(self.database.relation(self.query.atom(alias).relation))
            cost += size * _log(size)
        return cost

    # -- Equation (8): reduced sizes -----------------------------------------------------

    def _subtree_aliases(self, decomposition: TreeDecomposition, node: TreeNode) -> List[str]:
        aliases: List[str] = []
        for descendant in decomposition.tree.preorder(node):
            for alias in self.cover_of(decomposition.bag(descendant)):
                if alias not in aliases:
                    aliases.append(alias)
        return aliases

    def reduce_attributes(
        self, decomposition: TreeDecomposition, node: TreeNode
    ) -> FrozenSet[str]:
        """``ReduceAttrs(p)``: bag variables expected to be reduced by children.

        A variable qualifies if it occurs, in a subtree rooted at a child, in
        an atom whose relation does not have the corresponding attribute as
        its primary key.
        """
        bag = decomposition.bag(node)
        result = set()
        for child in node.children:
            for alias in self._subtree_aliases(decomposition, child):
                atom = self.query.atom(alias)
                primary_key = self.database.primary_key(atom.relation)
                for attribute, variable in zip(atom.attributes, atom.variables):
                    if variable in bag and attribute != primary_key:
                        result.add(variable)
        return frozenset(result)

    def reduced_size(
        self, decomposition: TreeDecomposition, node: TreeNode
    ) -> float:
        for child in node.children:
            if self.reduced_size(decomposition, child) == 0:
                return 0.0
        bag = decomposition.bag(node)
        cardinality = self.bag_cardinality(bag)
        if cardinality == 0:
            return 0.0
        return cardinality / (1 + len(self.reduce_attributes(decomposition, node)))

    def scan_cost(self, decomposition: TreeDecomposition, node: TreeNode) -> float:
        children = node.children
        if children and min(
            self.reduced_size(decomposition, child) for child in children
        ) == 0:
            return 0.0
        cardinality = self.bag_cardinality(decomposition.bag(node))
        return cardinality * _log(cardinality)

    # -- Equation (9): subtree cost ---------------------------------------------------------

    def subtree_cost(self, decomposition: TreeDecomposition, node: TreeNode) -> float:
        total = self.node_cost(decomposition.bag(node))
        total += self.scan_cost(decomposition, node)
        for child in node.children:
            total += self.subtree_cost(decomposition, child)
            reduced = self.reduced_size(decomposition, child)
            total += reduced * _log(reduced)
        return total

    def decomposition_cost(self, decomposition: TreeDecomposition) -> float:
        return self.subtree_cost(decomposition, decomposition.tree.root)


def estimate_cost(
    decomposition: TreeDecomposition,
    query: ConjunctiveQuery,
    database: Database,
    estimator: Optional[CardinalityEstimator] = None,
) -> float:
    """Equations (5)–(6): estimate-based cost of a decomposition."""
    model = EstimateCostModel(query, database, estimator=estimator)
    return model.decomposition_cost(decomposition)


def cardinality_cost(
    decomposition: TreeDecomposition,
    query: ConjunctiveQuery,
    database: Database,
) -> float:
    """Equations (7)–(9): actual-cardinality cost of a decomposition."""
    model = CardinalityCostModel(query, database)
    return model.decomposition_cost(decomposition)


def make_cost_preference(
    kind: str,
    query: ConjunctiveQuery,
    database: Database,
    estimator: Optional[CardinalityEstimator] = None,
    max_cover_size: Optional[int] = None,
) -> CostPreference:
    """A :class:`CostPreference` over partial TDs for Algorithm 2 / enumeration.

    ``kind`` is ``"estimates"`` (Appendix C.2.1) or ``"cardinalities"``
    (Appendix C.2.2).  The same model instance is reused across calls so the
    per-bag caches are shared while ranking many decompositions.  The
    estimate cost composes bottom-up (Equation (6) is node costs plus
    parent→child semi-join terms), so it is returned as a monotone
    preference; the cardinality cost's ``ReducedSz`` model inspects whole
    subtrees and stays a materialising :class:`CostPreference`.
    """
    if kind == "estimates":
        return EstimateCostModel(
            query, database, estimator=estimator, max_cover_size=max_cover_size
        ).as_preference()
    if kind == "cardinalities":
        model = CardinalityCostModel(query, database, max_cover_size=max_cover_size)
        return CostPreference(model.decomposition_cost)
    raise ValueError(f"unknown cost kind {kind!r}; use 'estimates' or 'cardinalities'")
