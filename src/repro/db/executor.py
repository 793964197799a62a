"""The DBMS-style baseline executor.

Decomposition-guided execution is :class:`repro.db.yannakakis.YannakakisExecutor`;
this module holds its comparison point.  ``BaselineExecutor`` stands in for
"just run the SQL query on PostgreSQL": a greedy optimiser picks a join
order using the cardinality *estimates* of
:class:`repro.db.stats.CardinalityEstimator` (with their independence
assumption), and the plan is then executed with hash joins.  On the cyclic,
skewed queries of the benchmark this reproduces the baseline behaviour of the
paper: large intermediate results and long run times.  It runs on whatever
relation engine the database was built with — the columnar code-array kernel
by default, or the tuple-at-a-time spec of :mod:`repro.db.reference` (see
``as_reference_database``).
"""

from __future__ import annotations

from typing import Optional

from repro.db.database import Database
from repro.db.query import ConjunctiveQuery
from repro.db.relation import Relation, WorkCounter
from repro.db.yannakakis import YannakakisRun, atom_relation, governed_run
from repro.runtime.budget import Budget


class BaselineExecutor:
    """A DBMS-style baseline: estimate-driven greedy join order, hash joins."""

    def __init__(self, database: Database, query: ConjunctiveQuery):
        self.database = database
        self.query = query
        self.estimator = database.estimator

    def execute(self, budget: Optional[Budget] = None) -> YannakakisRun:
        """Run the plan; the run has no decomposition nodes, so its size maps
        stay empty.  A ``budget`` meters every join as
        :func:`~repro.db.yannakakis.governed_run` describes."""
        return governed_run(budget, self._join)

    def _join(self, counter: WorkCounter) -> YannakakisRun:
        order = self.estimator.greedy_join_order(self.query.atoms)
        relation: Optional[Relation] = None
        max_intermediate = 0
        for atom in order:
            operand = atom_relation(self.database, atom)
            if relation is None:
                relation = operand
            else:
                relation = relation.natural_join(operand, counter)
            max_intermediate = max(max_intermediate, len(relation))
        assert relation is not None
        if self.query.aggregate is not None:
            function, variable = self.query.aggregate
            result: object = relation.aggregate(function, variable)
        else:
            result = relation
        return YannakakisRun(
            result=result, counter=counter, max_intermediate=max_intermediate
        )
