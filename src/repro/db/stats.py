"""Table statistics and a textbook cardinality estimator.

The estimate-based cost function of Appendix C.2.1 relies on the DBMS's own
cost model (PostgreSQL ``EXPLAIN`` estimates).  Our substitute is the classic
System-R style estimator: per-column distinct counts plus the attribute
independence assumption.  This reproduces, by construction, the failure mode
the paper reports — estimates are systematically off for cyclic, skewed join
queries — which is exactly what Figure 5 (middle) illustrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.db.database import Database
from repro.db.query import Atom, ConjunctiveQuery


@dataclass
class TableStatistics:
    """Row count and per-attribute distinct counts of one relation."""

    name: str
    row_count: int
    distinct_counts: Dict[str, int]

    def distinct(self, attribute: str) -> int:
        return max(1, self.distinct_counts.get(attribute, 1))


class CardinalityEstimator:
    """Cardinality and plan-cost estimates under the independence assumption."""

    #: cost charged per tuple scanned (mirrors PostgreSQL's cpu_tuple_cost
    #: relative to a unit page cost; only relative magnitudes matter here).
    SCAN_COST_PER_TUPLE = 1.0
    #: cost charged per tuple produced by a join.
    JOIN_COST_PER_TUPLE = 1.0

    def __init__(self, database: Database):
        self.database = database
        self._stats: Dict[str, TableStatistics] = {}
        # greedy_join_order's answers per atom tuple: they read only the
        # statistics, which never change for a database.
        self._orders: Dict[Tuple[Atom, ...], Tuple[Atom, ...]] = {}

    # -- statistics --------------------------------------------------------------

    def statistics(self, relation_name: str) -> TableStatistics:
        if relation_name not in self._stats:
            relation = self.database.relation(relation_name)
            # One vectorised np.unique pass per code column on the columnar
            # engine (the reference spec falls back to per-attribute sets).
            distinct = relation.distinct_counts()
            self._stats[relation_name] = TableStatistics(
                name=relation_name,
                row_count=len(relation),
                distinct_counts=distinct,
            )
        return self._stats[relation_name]

    # -- cardinality estimation ----------------------------------------------------

    def atom_cardinality(self, atom: Atom) -> int:
        return self.statistics(atom.relation).row_count

    def _variable_distincts(self, atoms: Sequence[Atom]) -> Dict[str, List[int]]:
        """For each variable, the distinct counts of the columns bound to it."""
        result: Dict[str, List[int]] = {}
        for atom in atoms:
            stats = self.statistics(atom.relation)
            for attribute, variable in zip(atom.attributes, atom.variables):
                result.setdefault(variable, []).append(stats.distinct(attribute))
        return result

    def estimate_join_cardinality(self, atoms: Sequence[Atom]) -> float:
        """Estimated size of the natural join of the given atoms.

        Textbook formula: the product of the relation sizes divided, for each
        join variable, by the product of all but the smallest of the distinct
        counts of the columns bound to the variable.
        """
        atoms = list(atoms)
        if not atoms:
            return 0.0
        size = 1.0
        for atom in atoms:
            size *= max(1, self.atom_cardinality(atom))
        for variable, distincts in self._variable_distincts(atoms).items():
            if len(distincts) <= 1:
                continue
            distincts = sorted(distincts)
            for value in distincts[1:]:
                size /= max(1, value)
        return max(size, 1.0)

    def estimate_semijoin_selectivity(
        self, atoms: Sequence[Atom], reducer_atoms: Sequence[Atom]
    ) -> float:
        """Rough selectivity of semi-joining a join result with another join."""
        shared = {
            v for atom in atoms for v in atom.variables
        } & {v for atom in reducer_atoms for v in atom.variables}
        if not shared:
            return 1.0
        # Under independence, each shared variable keeps roughly the fraction
        # of values that also occur on the reducer side.
        selectivity = 1.0
        own = self._variable_distincts(list(atoms))
        other = self._variable_distincts(list(reducer_atoms))
        for variable in shared:
            own_d = min(own.get(variable, [1]))
            other_d = min(other.get(variable, [1]))
            selectivity *= min(1.0, other_d / max(1, own_d))
        return selectivity

    # -- plan cost estimation -----------------------------------------------------------

    def estimate_plan_cost(self, atoms: Sequence[Atom]) -> float:
        """Estimated total cost of evaluating the join of ``atoms``.

        Mirrors what ``EXPLAIN`` reports for a join query: scan costs of the
        base relations plus, along :meth:`greedy_join_order`, the estimated
        size of every intermediate result.
        """
        atoms = list(atoms)
        if not atoms:
            return 0.0
        cost = sum(
            self.SCAN_COST_PER_TUPLE * self.atom_cardinality(atom) for atom in atoms
        )
        order = self.greedy_join_order(atoms)
        for end in range(2, len(order) + 1):
            cost += self.JOIN_COST_PER_TUPLE * self.estimate_join_cardinality(
                order[:end]
            )
        return cost

    def _pick_smallest(self, atoms: Sequence[Atom]) -> Atom:
        return min(atoms, key=self.atom_cardinality)

    def greedy_join_order(self, atoms: Sequence[Atom]) -> List[Atom]:
        """The join order an estimate-driven greedy optimiser would pick.

        Starts from the smallest relation and repeatedly adds the atom whose
        inclusion yields the smallest estimated intermediate result.  This is
        the plan the baseline executor runs, and the member order of every
        Yannakakis bag join.  The order is memoised per atom tuple: it is
        the one per-database piece of planning a query shape, so a warm
        request looks it up.
        """
        key = tuple(atoms)
        order = self._orders.get(key)
        if order is None:
            order = self._orders[key] = tuple(self._greedy_order(key))
        return list(order)

    def _greedy_order(self, atoms: Sequence[Atom]) -> List[Atom]:
        remaining = list(atoms)
        if not remaining:
            return []
        order = [self._pick_smallest(remaining)]
        remaining.remove(order[0])
        while remaining:
            best_atom = None
            best_size = None
            for atom in remaining:
                size = self.estimate_join_cardinality(order + [atom])
                if best_size is None or size < best_size:
                    best_atom, best_size = atom, size
            assert best_atom is not None
            order.append(best_atom)
            remaining.remove(best_atom)
        return order
