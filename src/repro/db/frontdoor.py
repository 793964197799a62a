"""The end-to-end query front door: SQL → hypergraph → cached CTD → Yannakakis.

Every earlier layer of the pipeline is reachable on its own — the SQL-ish
parser (:mod:`repro.db.sqlish`), the canonical solve front door
(:mod:`repro.core.solve`) with its persistent re-certified decomposition
cache, and the columnar Yannakakis executor
(:mod:`repro.db.yannakakis`).  This module stitches them into one API:

* :func:`plan_query` — parse (or accept) a conjunctive query, derive its
  join hypergraph, and obtain a decomposition through
  :func:`repro.core.solve.execute`.  Isomorphic query shapes therefore
  hit the persistent CTD cache, and every hit is mapped through the
  caller's variable names and **re-certified** before it is trusted
  (the cache-is-never-an-authority model); the resulting
  :class:`QueryPlan` records where the decomposition came from
  (``provenance``: ``cache`` or ``solve``), the canonical hypergraph
  fingerprint, the achieved width and the per-node λ-covers.
* :func:`run_query` — plan, lower the CTD to a Yannakakis plan, and
  execute it on the columnar engine under the ``Budget``/``SolveOutcome``
  contract: one budget governs decomposition *and* execution, a cut run
  returns ``rows=None``/``value=None`` with honest counters (never a
  wrong partial answer), and the outcome maps to the documented exit
  codes at the CLI.

Rows are returned in a canonical form — projected onto the sorted output
variables, de-duplicated, sorted — so two executions of the same query
are byte-comparable regardless of which (correct) decomposition served
them or whether it came from the cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.solve import SolveRequest, SolveResult, execute
from repro.db.database import Database
from repro.db.query import ConjunctiveQuery
from repro.db.sqlish import parse_select_query
from repro.db.yannakakis import NodePlan, YannakakisExecutor
from repro.decompositions.td import TreeDecomposition
from repro.hypergraph.canonical import hypergraph_fingerprint
from repro.hypergraph.hypergraph import Hypergraph
from repro.runtime.budget import Budget, SolveOutcome, completed_outcome
from repro.runtime.errors import UserError

__all__ = ["QueryPlan", "QueryResult", "plan_query", "run_query"]

#: What a planning/execution call accepts as the query.
QuerySource = Union[str, ConjunctiveQuery]


def _as_query(
    source: QuerySource, database: Database, name: Optional[str]
) -> ConjunctiveQuery:
    if isinstance(source, ConjunctiveQuery):
        return source
    return parse_select_query(source, database, name=name)


def canonical_rows(relation, columns: Sequence[str]) -> List[Tuple]:
    """The relation as a sorted, de-duplicated list of ``columns`` tuples."""
    return relation.project(list(columns)).sorted_rows()


@dataclass
class QueryPlan:
    """The decomposition half of one front-door run.

    ``provenance`` is ``"cache"`` when the decomposition was served from
    the persistent CTD store (and re-certified on the way out) and
    ``"solve"`` when it was computed this call; ``fingerprint`` is the
    canonical (isomorphism-invariant) hypergraph fingerprint — the cache
    key isomorphic query shapes share.  ``decomposition`` is the tree that
    is executed: the solver's (re-certified) CTD, still available as
    ``solve.decomposition``, with every bag contained in a neighbouring
    bag contracted away.  ``node_plans`` carries the lowered Yannakakis
    plan: one entry per node of it with its bag, chosen λ-cover and
    semi-join-enforced atoms.
    """

    query: ConjunctiveQuery
    hypergraph: Hypergraph
    request: SolveRequest
    solve: SolveResult
    fingerprint: str
    decomposition: Optional[TreeDecomposition] = None
    width: Optional[int] = None
    provenance: str = "none"
    node_plans: List[NodePlan] = field(default_factory=list)

    @property
    def cache_stats(self) -> Optional[Dict[str, int]]:
        return self.solve.cache_stats

    def describe(self) -> str:
        """The stable ``--explain`` rendering: CTD + plan, no execution."""
        lines = [
            f"query: {self.query.name}",
            f"atoms: {len(self.query.atoms)}  "
            f"variables: {self.hypergraph.num_vertices()}",
            f"fingerprint: {self.fingerprint[:16]}",
        ]
        if self.decomposition is None:
            lines.append("decomposition: none")
            return "\n".join(lines)
        lines.append(
            f"decomposition: width={self.width} provenance={self.provenance}"
        )
        order = {
            plan.node.node_id: index
            for index, plan in enumerate(self.node_plans)
        }
        parent_of: Dict[int, Optional[int]] = {}
        for plan in self.node_plans:
            for child in plan.node.children:
                parent_of[child.node_id] = order[plan.node.node_id]
        for index, plan in enumerate(self.node_plans):
            bag = ", ".join(sorted(map(str, plan.bag)))
            parent = parent_of.get(plan.node.node_id)
            origin = "root" if parent is None else f"parent={parent}"
            line = (
                f"  node {index} ({origin}): bag=[{bag}] "
                f"cover=[{', '.join(plan.cover)}]"
            )
            if plan.enforced_atoms:
                line += f" enforce=[{', '.join(sorted(plan.enforced_atoms))}]"
            lines.append(line)
        return "\n".join(lines)


@dataclass
class QueryResult:
    """What one :func:`run_query` produced.

    ``value`` is the aggregate result for ``SELECT AGG(col)`` queries
    (``rows`` is then the single ``[(value,)]`` row); for non-aggregate
    queries ``rows`` is the canonical sorted distinct row list over
    ``columns``.  A budget-cut run has ``outcome.partial`` set and
    ``rows is None`` / ``value is None`` with honest work counters.
    ``execution_work`` counts tuples read + written by the executor;
    ``solve_work`` is the decomposition search's governed work.
    """

    plan: QueryPlan
    columns: Tuple[str, ...] = ()
    rows: Optional[List[Tuple]] = None
    value: object = None
    execution_work: int = 0
    solve_work: int = 0
    outcome: SolveOutcome = field(default_factory=completed_outcome)
    elapsed: float = 0.0

    @property
    def provenance(self) -> str:
        return self.plan.provenance

    @property
    def width(self) -> Optional[int]:
        return self.plan.width

    @property
    def complete(self) -> bool:
        return self.outcome.complete

    @property
    def row_count(self) -> Optional[int]:
        return None if self.rows is None else len(self.rows)


def plan_query(
    source: QuerySource,
    database: Database,
    width: Optional[int] = None,
    name: Optional[str] = None,
    cache: object = "auto",
    budget: Optional[Budget] = None,
) -> QueryPlan:
    """Parse, derive the hypergraph, and obtain a decomposition.

    With ``width`` the solve is the fixed-width Algorithm 1 request (a
    cacheable ``decide``); without it a least-width search runs
    (``soft-width``, whose positive level is itself served from / stored
    into the cache).  ``cache`` follows
    :func:`repro.core.cache.resolve_cache` (``"auto"`` honours
    ``REPRO_CTD_CACHE_OFF``); ``budget`` governs the search and is shared
    with the subsequent execution by :func:`run_query`.
    """
    return _plan(source, database, width, name, cache, budget)[0]


def _plan(
    source: QuerySource,
    database: Database,
    width: Optional[int],
    name: Optional[str],
    cache: object,
    budget: Optional[Budget],
) -> Tuple[QueryPlan, YannakakisExecutor]:
    """:func:`plan_query`, plus the executor that lowered the node plans.

    :func:`run_query` executes with that executor (covers and plan already
    derived) instead of building a second one.  The solve runs on the
    executor's query hypergraph, so the canonical form, the certificate and
    the covers share one set of bitset tables.
    """
    query = _as_query(source, database, name)
    executor = YannakakisExecutor(database, query)
    hypergraph = executor.hypergraph
    if width is not None:
        request = SolveRequest(hypergraph=hypergraph, mode="decide", width=width)
    else:
        request = SolveRequest(hypergraph=hypergraph, mode="soft-width")
    solve = execute(request, database=database, query=query, cache=cache, budget=budget)
    decomposition = solve.decomposition
    provenance = "none"
    node_plans: List[NodePlan] = []
    if decomposition is not None:
        provenance = "cache" if solve.cache_status == "hit" else "solve"
        # The certified CTD (CompNF) carries interface bags contained in a
        # neighbour's; each would be built, reduced twice and joined for
        # nothing.  Contraction keeps validity and width by construction.
        decomposition = decomposition.contracted()
        node_plans = executor.plan(decomposition)
    plan = QueryPlan(
        query=query,
        hypergraph=hypergraph,
        request=request,
        solve=solve,
        fingerprint=hypergraph_fingerprint(hypergraph),
        decomposition=decomposition,
        width=solve.width,
        provenance=provenance,
        node_plans=node_plans,
    )
    return plan, executor


def run_query(
    source: QuerySource,
    database: Database,
    width: Optional[int] = None,
    name: Optional[str] = None,
    cache: object = "auto",
    budget: Optional[Budget] = None,
) -> QueryResult:
    """The whole pipeline: parse → (cached) CTD → Yannakakis → rows.

    One ``budget`` governs both phases: the decomposition search charges
    it through the solve front door and the execution through
    :class:`~repro.db.yannakakis.BudgetedWorkCounter`, so exhaustion at
    any point yields the anytime contract (``rows=None`` with honest
    counters and a ``partial`` outcome).  Raises
    :class:`~repro.runtime.errors.UserError` when a *complete* search
    proves there is no decomposition of the requested width — that is a
    bad request, not a failed run.
    """
    started = time.perf_counter()
    plan, executor = _plan(source, database, width, name, cache, budget)
    query = plan.query
    if plan.decomposition is None:
        if plan.solve.outcome.complete:
            raise UserError(
                f"no decomposition of width <= {width} exists for query "
                f"{query.name!r}; raise --width or omit it for a least-width search"
            )
        return QueryResult(
            plan=plan,
            solve_work=plan.solve.outcome.work,
            outcome=plan.solve.outcome,
            elapsed=time.perf_counter() - started,
        )

    run = executor.execute(
        plan.decomposition,
        materialize_result=query.aggregate is None,
        budget=budget,
    )
    if run.outcome.partial:
        return QueryResult(
            plan=plan,
            execution_work=run.work,
            solve_work=plan.solve.outcome.work,
            outcome=run.outcome,
            elapsed=time.perf_counter() - started,
        )

    if query.aggregate is None:
        columns = tuple(sorted(map(str, query.variables())))
        rows = canonical_rows(run.result, columns)
        value: object = len(rows)
    else:
        function, variable = query.aggregate
        columns = (f"{function.lower()}_{variable}",)
        value = run.result
        rows = [(value,)]
    outcome = (
        budget.outcome()
        if budget is not None
        else completed_outcome(
            work=run.work, elapsed=time.perf_counter() - started
        )
    )
    return QueryResult(
        plan=plan,
        columns=columns,
        rows=rows,
        value=value,
        execution_work=run.work,
        solve_work=plan.solve.outcome.work,
        outcome=outcome,
        elapsed=time.perf_counter() - started,
    )
