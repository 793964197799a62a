"""The two cost functions of Appendix C.2, as Preference objects.

Both functions assign a cost to a (partial) tree decomposition of a query's
hypergraph; lower cost should mean faster decomposition-guided execution.

* :class:`EstimateCostModel` — Appendix C.2.1 (Equations 5 and 6): node
  costs are the optimiser's *estimated* cost of the bag join (our stand-in
  for PostgreSQL ``EXPLAIN``), and subtree costs add estimated semi-join
  costs.
* :class:`CardinalityCostModel` — Appendix C.2.2 (Equations 7, 8 and 9): an
  "omniscient" cost based on the *actual* cardinality of every bag join,
  with the ``ReducedSz`` model for how much the bottom-up semi-joins shrink
  each child before it is probed.

Both cost the λ-cover join the Yannakakis executor builds for each bag: the
models read covers from :func:`repro.db.yannakakis.bag_cover`, the query
layer's one cover decision, memoised on the (interned) query hypergraph.
Both are strongly monotone in the sense of Section 6.1, so their keys
compose bottom-up for Algorithm 2 and the ranked enumerator: Equation (6) as
a :class:`repro.core.preferences.MonotoneCostPreference`, Equations (7)–(9)
as the :class:`CardinalityPreference` fold.  Each ``decomposition_cost``
walks a materialised decomposition and stays the executable spec (``key``).
:func:`make_cost_preference` is the one constructor: ranking and the
experiment harness's cost columns read the same memoised model.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.hypergraph.hypergraph import Vertex
from repro.decompositions.td import TreeDecomposition
from repro.decompositions.tree import TreeNode
from repro.core.preferences import CostPreference, MonotoneCostPreference
from repro.db.database import Database
from repro.db.query import Atom, ConjunctiveQuery
from repro.db.yannakakis import atom_relation, bag_cover

Bag = FrozenSet[Vertex]


def _log(value: float) -> float:
    return math.log2(value) if value > 1 else 0.0


class _CostModelBase:
    """Shared plumbing: bag covers and atom lookup for a fixed query."""

    def __init__(self, query: ConjunctiveQuery, database: Database):
        self.query = query
        self.database = database
        self.hypergraph = query.hypergraph()

    def cover_of(self, bag: Bag) -> Tuple[str, ...]:
        return bag_cover(self.hypergraph, bag)

    def cover_atoms(self, bag: Bag) -> List[Atom]:
        return [self.query.atom(alias) for alias in self.cover_of(bag)]


class EstimateCostModel(_CostModelBase):
    """Appendix C.2.1: costs derived from the optimiser's estimates."""

    def __init__(self, query: ConjunctiveQuery, database: Database):
        super().__init__(query, database)
        self.estimator = database.estimator
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

    def __init__(self, query: ConjunctiveQuery, database: Database):
        super().__init__(query, database)
        self._bag_size_cache: Dict[Bag, int] = {}
        self._node_cost_cache: Dict[Bag, float] = {}
        self._reducing_cache: Dict[Bag, FrozenSet[Vertex]] = {}

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
        cost = self._node_cost_cache.get(bag)
        if cost is None:
            aliases = self.cover_of(bag)
            cost = 0.0
            if len(aliases) > 1:
                cost = float(self.bag_cardinality(bag))
                for alias in aliases:
                    size = len(self.database.relation(self.query.atom(alias).relation))
                    cost += size * _log(size)
            self._node_cost_cache[bag] = cost
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

    def reducing_variables(self, bag: Bag) -> FrozenSet[Vertex]:
        """Variables at a non-primary-key attribute of a cover atom of ``bag``."""
        variables = self._reducing_cache.get(bag)
        if variables is None:
            found = set()
            for atom in self.cover_atoms(bag):
                primary_key = self.database.primary_key(atom.relation)
                found.update(
                    variable
                    for attribute, variable in zip(atom.attributes, atom.variables)
                    if attribute != primary_key
                )
            variables = self._reducing_cache[bag] = frozenset(found)
        return variables

    def as_preference(self) -> "CardinalityPreference":
        """Equations (7)–(9) as a monotone fold for Algorithm 2 and ranking."""
        return CardinalityPreference(self)


class CardinalityPreference(CostPreference):
    """Equations (7)–(9) composed bottom-up from the children's states.

    A fragment's state is ``(cost, ReducedSz, reducing variables)``, the
    last being :meth:`CardinalityCostModel.reducing_variables` over every
    bag of the subtree, so ``ReduceAttrs(p)`` is the root bag ∩ the union
    of the children's.  It adds the terms of
    :meth:`CardinalityCostModel.subtree_cost` in its order — node cost, scan
    cost, then per child in fragment order its cost and ``r·log r`` — so the
    composed key is bit-identical to :meth:`key`, the materialising spec.

    An option of block ``(S, C)`` presents the :meth:`interface`
    ``(ReducedSz, reducing variables − C)``: ancestors read ReducedSz (the
    ``r·log r`` term; a zero blocks the parent's scan) and their bags ∩ the
    reducing variables, which come from the cover atoms' full variable
    lists and may leave the subtree's bags, even ``S``.  Only ``C`` is safe
    to drop: no ancestor bag meets it.  Given its children's classes, a
    parent's cost is a constant plus theirs, and its class is fixed.
    """

    monotone = True

    def __init__(self, model: CardinalityCostModel):
        super().__init__(model.decomposition_cost)
        self.model = model

    def fragment_state(self, bag: Bag, child_states: Sequence) -> Tuple:
        model = self.model
        cardinality = model.bag_cardinality(bag)
        blocked = any(reduced == 0 for _, reduced, _ in child_states)
        total = model.node_cost(bag)
        total += 0.0 if blocked else cardinality * _log(cardinality)
        for cost, reduced, _ in child_states:
            total += cost
            total += reduced * _log(reduced)
        below = frozenset().union(*(variables for _, _, variables in child_states))
        if blocked or cardinality == 0:
            reduced = 0.0
        else:
            reduced = cardinality / (1 + len(bag & below))
        return (total, reduced, below | model.reducing_variables(bag))

    def state_key(self, state: Tuple) -> float:
        return state[0]

    def interface(self, component: Bag, state: Tuple) -> Tuple:
        return state[1], state[2] - component

    def probe_bound(self, parent_bag, bag: Bag, child_keys: Sequence) -> float:
        # Left to right like fragment_state, which only adds terms ≥ 0.
        total = self.model.node_cost(bag)
        for child_key in child_keys:
            if child_key is not None:
                total += child_key
        return total


def make_cost_preference(
    kind: str, query: ConjunctiveQuery, database: Database
) -> CostPreference:
    """A :class:`CostPreference` over partial TDs for Algorithm 2 / enumeration.

    ``kind`` is ``"estimates"`` (Appendix C.2.1) or ``"cardinalities"``
    (Appendix C.2.2).  The preference is memoised per query in
    :meth:`Database.derived`, so every solve ranking the query and every
    cost column the experiment harness reports share one model and its
    per-bag caches.  Both costs compose bottom-up, so neither solver
    materialises a fragment to rank it: Equation (6) is node costs plus
    parent→child semi-join terms, and Equations (7)–(9) fold the children's
    ``(cost, ReducedSz, reducing variables)`` states.
    """
    builders = {
        "estimates": lambda: EstimateCostModel(query, database).as_preference(),
        "cardinalities": lambda: CardinalityCostModel(query, database).as_preference(),
    }
    if kind not in builders:
        raise ValueError(
            f"unknown cost kind {kind!r}; use 'estimates' or 'cardinalities'"
        )
    return database.derived(("cost", kind, tuple(query.atoms)), builders[kind])
