"""Query executors: decomposition-guided vs. the DBMS-style baseline.

``DecompositionExecutor`` wraps the Yannakakis machinery of
:mod:`repro.db.yannakakis` and reports uniform execution metrics.  Both
executors run on whatever relation engine the database was built with — the
columnar code-array kernel by default, or the tuple-at-a-time spec of
:mod:`repro.db.reference` (see ``as_reference_database``).

``BaselineExecutor`` stands in for "just run the SQL query on PostgreSQL":
a greedy optimiser picks a join order using the cardinality *estimates* of
:class:`repro.db.stats.CardinalityEstimator` (with their independence
assumption), and the plan is then executed with hash joins.  On the cyclic,
skewed queries of the benchmark this reproduces the baseline behaviour of the
paper: large intermediate results and long run times.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.decompositions.td import TreeDecomposition
from repro.db.database import Database
from repro.db.query import ConjunctiveQuery
from repro.db.relation import Relation, WorkCounter
from repro.db.stats import CardinalityEstimator
from repro.db.yannakakis import YannakakisExecutor, atom_relation
from repro.runtime.budget import Budget, SolveOutcome, completed_outcome


@dataclass
class ExecutionMetrics:
    """Uniform result record for both executors.

    ``work`` (tuples read + written across all operators) is the primary,
    fully deterministic measure the benchmarks report; ``wall_time`` is also
    recorded for orientation.  A budget-cut run has ``outcome.partial``
    set and ``result=None`` (never a wrong partial answer).
    """

    result: object
    work: int
    wall_time: float
    max_intermediate: int
    total_intermediate: int
    outcome: SolveOutcome = field(default_factory=completed_outcome)

    def __repr__(self) -> str:
        return (
            f"ExecutionMetrics(result={self.result!r}, work={self.work}, "
            f"max_intermediate={self.max_intermediate}, "
            f"wall_time={self.wall_time:.4f}s)"
        )


class DecompositionExecutor:
    """Execute a query through a candidate tree decomposition."""

    def __init__(
        self,
        database: Database,
        query: ConjunctiveQuery,
        max_cover_size: Optional[int] = None,
        prefer_connected: bool = True,
    ):
        self.database = database
        self.query = query
        self._executor = YannakakisExecutor(
            database,
            query,
            max_cover_size=max_cover_size,
            prefer_connected=prefer_connected,
        )

    def execute(
        self,
        decomposition: TreeDecomposition,
        materialize_result: bool = False,
        budget: Optional[Budget] = None,
    ) -> ExecutionMetrics:
        run = self._executor.execute(
            decomposition, materialize_result=materialize_result, budget=budget
        )
        return ExecutionMetrics(
            result=run.result,
            work=run.work,
            wall_time=run.wall_time,
            max_intermediate=run.max_intermediate,
            total_intermediate=sum(run.node_sizes.values()),
            outcome=run.outcome,
        )


class BaselineExecutor:
    """A DBMS-style baseline: estimate-driven greedy join order, hash joins."""

    def __init__(
        self,
        database: Database,
        query: ConjunctiveQuery,
        estimator: Optional[CardinalityEstimator] = None,
    ):
        self.database = database
        self.query = query
        self.estimator = estimator or database.estimator

    def execute(self) -> ExecutionMetrics:
        counter = WorkCounter()
        start = time.perf_counter()
        order = self.estimator.greedy_join_order(self.query.atoms)
        relation: Optional[Relation] = None
        max_intermediate = 0
        total_intermediate = 0
        for atom in order:
            operand = atom_relation(self.database, atom)
            if relation is None:
                relation = operand
            else:
                relation = relation.natural_join(operand, counter)
            max_intermediate = max(max_intermediate, len(relation))
            total_intermediate += len(relation)
        assert relation is not None
        if self.query.aggregate is not None:
            function, variable = self.query.aggregate
            result: object = relation.aggregate(function, variable)
        else:
            result = relation
        wall_time = time.perf_counter() - start
        return ExecutionMetrics(
            result=result,
            work=counter.total,
            wall_time=wall_time,
            max_intermediate=max_intermediate,
            total_intermediate=total_intermediate,
        )
