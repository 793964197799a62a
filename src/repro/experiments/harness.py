"""The per-query experiment harness behind every figure and table.

For a benchmark query the harness mirrors the paper's pipeline
(Appendix C.1):

1. extract the query hypergraph,
2. compute the candidate bags ``Soft_{H,k}`` and the ConCov-filtered subset,
3. enumerate the top-n candidate tree decompositions ranked by a cost
   function (Algorithm 2 / the ranked enumerator),
4. execute each decomposition through the Yannakakis executor,
5. execute the baseline (estimate-driven greedy join plan), and
6. report, per decomposition, the cost under both cost functions and the
   measured execution effort.

The numbers of interest are the *relationships* — which decompositions are
cheap, how they compare to the baseline, how well each cost function
correlates with measured effort — matching how the paper presents Figures 5,
6 and 12–17.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.decompositions.td import TreeDecomposition
from repro.core.candidate_bags import filter_bags_by_cover, soft_candidate_bags
from repro.core.constraints import ConnectedCoverConstraint
from repro.core.solve import DATA_PREFERENCES, SolveRequest, execute, preference_object
from repro.db.database import Database
from repro.db.executor import BaselineExecutor
from repro.db.query import ConjunctiveQuery
from repro.db.yannakakis import YannakakisExecutor, YannakakisRun
from repro.runtime.budget import Budget


@dataclass
class DecompositionEvaluation:
    """One evaluated decomposition: its costs and its measured execution."""

    rank: int
    decomposition: TreeDecomposition
    cost_cardinalities: float
    cost_estimates: float
    metrics: YannakakisRun

    @property
    def work(self) -> int:
        return self.metrics.work

    @property
    def wall_time(self) -> float:
        return self.metrics.wall_time


class QueryExperiment:
    """All per-query measurements the figures and tables need."""

    def __init__(
        self,
        database: Database,
        query: ConjunctiveQuery,
        width: int,
        name: Optional[str] = None,
        budget: Optional[Budget] = None,
        data_key: Optional[str] = None,
    ):
        self.database = database
        self.query = query
        self.width = width
        self.name = name or query.name
        # One budget governs the whole experiment pipeline: candidate-bag
        # generation, ranked enumeration and decomposition execution all
        # draw from it; exhausted stages degrade to their anytime results.
        self.budget = budget
        # Names the database behind cost-ranked solves; without it those
        # solves stay uncacheable (two databases rank the same CTDs
        # differently).  ``from_benchmark`` derives one from the workload
        # coordinates; ad-hoc databases have none.
        self.data_key = data_key
        self.hypergraph = query.hypergraph()
        self._soft_bags = None
        self._concov_bags = None
        self._executor = YannakakisExecutor(database, query)

    @classmethod
    def from_benchmark(
        cls,
        entry,
        scale: float = 1.0,
        seed: Optional[int] = None,
        dump_path: Optional[str] = None,
        budget: Optional[Budget] = None,
    ) -> "QueryExperiment":
        """Build the experiment for a registry entry (or query name).

        Data comes through the workload layer: deterministic seeded
        generation (:meth:`repro.workloads.registry.WorkloadEntry.load`),
        or real dump files when ``dump_path`` is given.
        """
        from repro.workloads.registry import benchmark_query

        if isinstance(entry, str):
            entry = benchmark_query(entry)
        database, query = entry.load(scale=scale, seed=seed, dump_path=dump_path)
        # Dump files are external data with no deterministic coordinates,
        # so they get no data key (cost-ranked solves stay uncacheable).
        data_key = None
        if dump_path is None:
            data_key = benchmark_data_key(entry, scale, seed)
        return cls(
            database,
            query,
            entry.width,
            name=entry.name,
            budget=budget,
            data_key=data_key,
        )

    # -- candidate bags -----------------------------------------------------------

    @property
    def soft_bags(self):
        if self._soft_bags is None:
            self._soft_bags = soft_candidate_bags(
                self.hypergraph, self.width, budget=self.budget
            )
        return self._soft_bags

    @property
    def concov_bags(self):
        if self._concov_bags is None:
            self._concov_bags = filter_bags_by_cover(
                self.hypergraph, self.soft_bags, self.width, connected=True
            )
        return self._concov_bags

    def concov_constraint(self) -> ConnectedCoverConstraint:
        return ConnectedCoverConstraint(self.hypergraph, self.width)

    # -- decomposition enumeration ------------------------------------------------------

    def _request(
        self,
        constrained: bool,
        preference: Optional[str],
        limit: int,
    ) -> SolveRequest:
        """The experiment's parameters as a canonical ``SolveRequest``."""
        return SolveRequest(
            hypergraph=self.hypergraph,
            mode="enumerate",
            width=self.width,
            constraint="concov" if constrained else None,
            preference=preference,
            limit=limit,
            data_key=self.data_key if preference in DATA_PREFERENCES else None,
            label=self.name,
        )

    def ranked_decompositions(
        self,
        cost: str = "cardinalities",
        limit: int = 10,
        constrained: bool = True,
    ) -> Tuple[List[TreeDecomposition], float]:
        """Top-``limit`` CTDs ranked by a cost function, plus the time taken.

        ``cost`` is ``"cardinalities"`` (Appendix C.2.2), ``"estimates"``
        (Appendix C.2.1) or ``"none"`` (arbitrary order).  ``constrained``
        enforces ConCov, matching the paper's experiments.  The enumeration
        is exact — the true ``limit`` cheapest CTDs — and routed through
        the solve front door (:func:`repro.core.solve.execute`), so
        benchmark-backed experiments reuse the persistent decomposition
        cache across runs.
        """
        request = self._request(
            constrained, None if cost == "none" else cost, limit
        )
        result = execute(
            request,
            database=self.database,
            query=self.query,
            budget=self.budget,
        )
        return result.decompositions, result.elapsed

    def random_decompositions(
        self, count: int, constrained: bool, seed: int = 0
    ) -> List[TreeDecomposition]:
        """``count`` decompositions sampled from a wide enumeration.

        Used for the right-hand chart of Figure 6 (average runtime of random
        width-k decompositions with and without ConCov).  The pool is the
        exact head of the canonical enumeration order (no preference, so the
        deterministic structural tie-break), which makes the sample
        reproducible across processes for a fixed seed.
        """
        request = self._request(constrained, None, max(4 * count, 20))
        pool = execute(
            request,
            database=self.database,
            query=self.query,
            budget=self.budget,
        ).decompositions
        if not pool:
            return []
        rng = random.Random(seed)
        if len(pool) <= count:
            return pool
        return rng.sample(pool, count)

    # -- evaluation --------------------------------------------------------------------------

    def evaluate(self, decompositions: Sequence[TreeDecomposition]) -> List[DecompositionEvaluation]:
        """Execute each decomposition and attach both cost-function values.

        Each CTD runs as given, uncontracted, so the figures can key node
        sizes by its own node ids.  The costs are the keys of the very
        preferences the ranked solves use (:func:`preference_object`).
        """
        cardinalities = preference_object("cardinalities", self.database, self.query)
        estimates = preference_object("estimates", self.database, self.query)
        return [
            DecompositionEvaluation(
                rank=rank,
                decomposition=decomposition,
                cost_cardinalities=cardinalities.key(decomposition),
                cost_estimates=estimates.key(decomposition),
                metrics=self._executor.execute(decomposition, budget=self.budget),
            )
            for rank, decomposition in enumerate(decompositions, start=1)
        ]

    def baseline(self) -> YannakakisRun:
        """The DBMS-style baseline execution of the query, on the experiment's
        budget (a cut run has ``result=None``)."""
        return BaselineExecutor(self.database, self.query).execute(budget=self.budget)

    # -- Table 1 -----------------------------------------------------------------------------

    def concov_shw(self, max_k: Optional[int] = None) -> int:
        """``ConCov-shw`` of the query hypergraph: least k with a ConCov CTD."""
        limit = max_k if max_k is not None else max(self.width, self.hypergraph.num_edges())
        result = execute(
            SolveRequest(
                hypergraph=self.hypergraph,
                mode="soft-width",
                width=limit,
                constraint="concov",
                label=self.name,
            ),
            budget=self.budget,
        )
        if not result.decided:
            raise ValueError(f"ConCov-shw exceeds {limit}")
        return int(result.width)  # type: ignore[arg-type]

    def table1_row(self, top_n: int = 10) -> Dict[str, object]:
        """The row of Table 1 for this query."""
        concov_decompositions, elapsed = self.ranked_decompositions(
            cost="cardinalities", limit=top_n, constrained=True
        )
        return {
            "query": self.name,
            "concov_shw": self.concov_shw(max_k=self.width + 2),
            "hypergraph_size": self.hypergraph.num_edges(),
            "soft_bags": len(self.soft_bags),
            "concov_soft_bags": len(self.concov_bags),
            "top10_seconds": elapsed,
            "num_decompositions": len(concov_decompositions),
        }


# -- batch runtime integration -----------------------------------------------
#
# The supervised batch runtime (repro.runtime.supervisor) is deliberately
# agnostic about what a task computes; these pieces bind it to the
# paper's pipeline:
#
# * batch_task_specs  — a workload's query set as plain task dicts, each
#   embedding its canonical SolveRequest wire payload,
# * execute_batch_task — the worker-side runner (resolved by dotted path
#   inside each persistent worker process, which serves attempts until one
#   fails), a thin shell around core.solve.execute,
# * BatchCertifier    — the parent-side certifier that rebuilds every
#   query hypergraph *itself* and never trusts worker-supplied structure,
# * BatchSolveCache   — the supervisor's pre-launch cache probe against the
#   persistent decomposition cache.


#: Module-level memo of workload rebuilds, shared by every consumer that
#: needs a benchmark's (database, query, width) for the same deterministic
#: coordinates — the batch certifier's trusted hypergraphs, the
#: supervisor's cache probe and task-spec construction, the worker-side
#: runner.  Generation is deterministic per ``(name, scale, seed)``, so
#: one rebuild serves every task of a batch instead of one per task.
_WORKLOAD_MEMO: Dict[Tuple[str, float, object], Tuple[object, object, int]] = {}


def load_benchmark_workload(
    name: str, scale: float = 1.0, seed=None
) -> Tuple[object, object, int]:
    """Memoised ``(database, query, width)`` for one benchmark query."""
    from repro.workloads.registry import benchmark_query

    key = (str(name), float(scale), seed)
    if key not in _WORKLOAD_MEMO:
        entry = benchmark_query(name)
        database, query = entry.load(scale=scale, seed=seed)
        _WORKLOAD_MEMO[key] = (database, query, entry.width)
    return _WORKLOAD_MEMO[key]


def clear_workload_memo() -> None:
    """Drop all memoised workload rebuilds (tests, memory pressure)."""
    _WORKLOAD_MEMO.clear()


def benchmark_data_key(entry, scale: float, seed: Optional[int]) -> str:
    """The data identity behind a benchmark solve, for cache keying.

    Cost-ranked solves depend on the generated rows, so the key pins the
    full deterministic generator coordinates — workload, scale and the
    *effective* seed (the workload default when none is given) — plus the
    query name.
    """
    effective_seed = entry.workload._seed(seed)
    return f"{entry.dataset}:scale={scale:g}:seed={effective_seed}:{entry.name}"


def batch_task_specs(
    queries: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    seed: Optional[int] = None,
    deadline: Optional[float] = None,
    max_work: Optional[int] = None,
) -> List[Dict[str, object]]:
    """One task spec per benchmark query (all six when ``queries`` is None).

    A spec is a plain JSON-able dict — exactly what the supervisor
    fingerprints for the checkpoint ledger and ships to the worker.  The
    solve itself lives in the embedded ``request`` payload (a canonical
    :class:`repro.core.solve.SolveRequest`: the ConCov + cardinality-ranked
    enumeration the figures use); the workload coordinates stay top-level
    so the worker can rebuild the database and the certifier its trusted
    hypergraph.  ``deadline``/``max_work`` are the *full-solve* caps; the
    degradation ladder scales them down for the tighter levels.
    """
    from repro.workloads.registry import benchmark_queries, benchmark_query

    if queries is None:
        entries = benchmark_queries()
    else:
        entries = [benchmark_query(name) for name in queries]
    specs = []
    for entry in entries:
        _, query, _ = load_benchmark_workload(entry.name, scale=scale, seed=seed)
        request = SolveRequest(
            hypergraph=query.hypergraph(),
            mode="enumerate",
            width=entry.width,
            constraint="concov",
            preference="cardinalities",
            limit=1,
            data_key=benchmark_data_key(entry, scale, seed),
            label=entry.name,
        )
        specs.append(
            {
                "kind": "solve",
                "query": entry.name,
                "workload": entry.dataset,
                "width": entry.width,
                "scale": scale,
                "seed": seed,
                "request": request.to_payload(),
                "deadline": deadline,
                "max_work": max_work,
                "label": entry.name,
            }
        )
    return specs


def _batch_result_wire(result, request, mode: str, payload: Dict[str, object]):
    """The worker result dict: SolveResult wire format + batch envelope."""
    wire = result.to_payload()
    wire["query"] = payload.get("query")
    wire["mode"] = mode
    wire["level"] = payload.get("level")
    wire["width"] = request.width
    return wire


def execute_batch_task(payload: Dict[str, object]) -> Dict[str, object]:
    """The worker-side runner of one supervised batch task.

    ``payload`` is a task spec plus the supervisor's per-attempt fields:
    ``mode`` (``ranked`` — the embedded request as-is — or ``decide`` —
    its :meth:`~repro.core.solve.SolveRequest.degraded_to_decide`
    degradation, the ladder's bottom rung) and the level-scaled
    ``deadline``/``max_work`` caps, which become the in-worker
    :class:`Budget` (the cooperative layer under the parent's SIGKILL
    backstop).

    The solve itself is one :func:`repro.core.solve.execute` call: the
    worker reconstructs the embedded :class:`SolveRequest`, loads the
    database only when the request's preference needs data, and emits the
    :class:`SolveResult` wire dict (decomposition payload to be
    re-certified by the parent, claimed width, governed outcome counters).
    An exhausted budget with no anytime decomposition is reported as
    ``{"ok": False, "reason": <status>}`` so the supervisor can degrade
    instead of trusting an inconclusive answer.
    """
    try:
        request = SolveRequest.from_payload(payload.get("request"))
    except ValueError as exc:
        return {"ok": False, "reason": "malformed-request", "error": str(exc)}
    mode = str(payload.get("mode", "ranked"))
    if mode == "decide":
        request = request.degraded_to_decide()
    budget = None
    if payload.get("deadline") is not None or payload.get("max_work") is not None:
        budget = Budget(
            deadline=payload.get("deadline"), max_work=payload.get("max_work")
        )
    database = query = None
    if request.preference in DATA_PREFERENCES:
        # Memoised per worker process: a worker that runs several tasks of
        # the same (name, scale, seed) rebuilds the database once.
        database, query, _ = load_benchmark_workload(
            str(payload["query"]),
            scale=float(payload.get("scale") or 1.0),
            seed=payload.get("seed"),
        )
    result = execute(
        request,
        database=database,
        query=query,
        budget=budget,
        # The batch scheduler sets cache_off on cache-less plans so worker
        # solves mirror the parent's cache decision.
        cache=None if payload.get("cache_off") else "auto",
    )
    if result.decomposition is None and result.outcome.partial:
        return {
            "ok": False,
            "reason": result.outcome.status,
            "error": "budget exhausted before any decomposition was found "
            f"({result.outcome.describe()})",
        }
    return _batch_result_wire(result, request, mode, payload)


class BatchSolveCache:
    """The supervisor's pre-launch probe into the decomposition cache.

    ``lookup(task)`` reconstructs the task's embedded
    :class:`~repro.core.solve.SolveRequest` and asks the persistent cache
    for a certified hit (:func:`repro.core.solve.lookup` — probe only,
    never solves); on a hit the supervisor records the worker-format
    result without running an attempt.  Storing needs no seam: the workers
    themselves persist every complete cacheable solve through
    :func:`repro.core.solve.execute`.
    """

    def __init__(self, cache="auto"):
        from repro.core.cache import resolve_cache

        self.cache = resolve_cache(cache)

    def lookup(self, task: Dict[str, object]) -> Optional[Dict[str, object]]:
        from repro.core.solve import lookup

        if self.cache is None or not isinstance(task, dict):
            return None
        if task.get("kind") != "solve":
            return None
        try:
            request = SolveRequest.from_payload(task.get("request"))
        except ValueError:
            return None
        result = lookup(request, cache=self.cache)
        if result is None:
            return None
        mode = "decide" if request.mode == "decide" else "ranked"
        return _batch_result_wire(
            result, request, mode, {**task, "level": "cache"}
        )


class BatchCertifier:
    """Parent-side certification of supervised batch results.

    The trusted request is the task's own embedded request, checked against
    the hypergraph the deterministic workload generator rebuilds (through
    :func:`load_benchmark_workload`'s memo): a spec whose shape drifted
    (ledger bit rot, a forged task) certifies nothing.  It is degraded with
    :meth:`~repro.core.solve.SolveRequest.degraded_to_decide` only when the
    task's ``mode`` is ``decide`` — the supervisor sets that mode from the
    rung *it* ran, never from the reply.  The reply is then one
    :func:`repro.core.solve.certify_claim` against that request.
    """

    def __call__(self, task: Dict[str, object], result: Dict[str, object]):
        from repro.core import certify
        from repro.core.solve import certify_claim

        try:  # a task without an embedded request is malformed too
            request = SolveRequest.from_payload(task.get("request"))
        except ValueError as exc:
            return certify.Certification(False, (f"malformed task request: {exc}",))
        _, query, _ = load_benchmark_workload(
            str(task["query"]),
            scale=float(task.get("scale") or 1.0),
            seed=task.get("seed"),
        )
        if request.hypergraph != query.hypergraph():
            return certify.Certification(
                False,
                ("task request hypergraph does not match the trusted "
                 "workload hypergraph",),
            )
        if task.get("mode") == "decide":
            request = request.degraded_to_decide()
        try:
            certify_claim(request, result, checker=certify.certify_ctd)
        except ValueError as exc:
            return certify.Certification(False, (str(exc),))
        return certify.Certification(True)
