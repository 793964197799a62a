"""Multi-query batch solving: plan, then duplicate fan-out.

One production client rarely asks for one decomposition — it brings a
workload's whole query set, full of repeated and near-repeated shapes.
This module turns such a set into a :class:`BatchSolvePlan`:

1. **Canonicalise up front.**  Every query hypergraph gets its
   isomorphism-invariant canonical form (:func:`repro.hypergraph.
   canonical.canonical_form`) — the same fingerprints the persistent
   decomposition cache is keyed by, computed once per query.
2. **Group exact duplicates.**  Queries with equal ``(fingerprint,
   cache kind)`` are the same solve up to vertex renaming; each group is
   solved once through its *representative* (the first member in input
   order) and fanned out to every other member through that member's own
   relabeling permutation, with per-member re-certification
   (:func:`repro.core.solve.serve_canonical_record`) — a fanned-out
   result is held to exactly the cache trust model: the record is
   evidence, the per-query certificate is the proof.  Requests whose
   kind is ``None`` (``soft-width``, data preferences without a
   ``data_key``) are never grouped.
3. **Order by fingerprint.**  Groups run in ``(fingerprint, kind)``
   order.  Each is solved once per plan and the persistent cache is keyed
   exactly, so no order saves work; this one is simply deterministic.

:func:`run_plan` executes a plan: representative solves (inline through
the persistent cache, or on the supervised batch runtime's worker
processes, :class:`repro.runtime.supervisor.Supervisor`), then fan-out.
The workers parallelise *independent* representative solves only; a
single solve is always serial.  Results crossing a process boundary are
independently re-certified by the parent before they are served.
Fan-out only ever applies *complete* results — a budget-truncated
(anytime) representative answer is never replicated to other queries;
those members are solved individually under their own caps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.solve import (
    SolveRequest,
    _record_for,
    certify_claim,
    serve_canonical_record,
)
from repro.hypergraph.canonical import CanonicalForm, canonical_form

__all__ = [
    "PlanItem",
    "PlanGroup",
    "BatchSolvePlan",
    "BatchReport",
    "run_plan",
]


@dataclass
class PlanItem:
    """One query of the plan: its task dict, request and canonical form."""

    index: int
    task: Dict[str, object]
    request: SolveRequest
    canonical: CanonicalForm
    kind: Optional[str]

    @property
    def fingerprint(self) -> str:
        return self.canonical.fingerprint


@dataclass
class PlanGroup:
    """All queries sharing one ``(fingerprint, kind)`` — one solve."""

    fingerprint: str
    kind: str
    items: List[PlanItem] = field(default_factory=list)

    @property
    def representative(self) -> PlanItem:
        """The group's solved member: the first in input order."""
        return self.items[0]


class BatchSolvePlan:
    """A workload's query set, canonicalised, grouped and scheduled."""

    def __init__(self, items: List[PlanItem]):
        self.items = items
        groups: Dict[Tuple[str, str], PlanGroup] = {}
        self.ungrouped: List[PlanItem] = []
        for item in items:
            if item.kind is None:
                # No cache kind — the answer may depend on more than the
                # shape (soft-width sub-searches, data preferences without
                # a named database), so sharing one solve across members
                # would not be sound.  Solved individually.
                self.ungrouped.append(item)
                continue
            key = (item.fingerprint, item.kind)
            group = groups.get(key)
            if group is None:
                group = groups[key] = PlanGroup(item.fingerprint, item.kind)
            group.items.append(item)
        self.groups = [groups[key] for key in sorted(groups)]

    @classmethod
    def from_tasks(cls, tasks: Sequence[Dict[str, object]]) -> "BatchSolvePlan":
        """Build a plan from batch task dicts (``request`` wire payloads).

        Accepts the same specs the supervised batch runtime consumes
        (:func:`repro.experiments.harness.batch_task_specs`); malformed
        request payloads raise :class:`ValueError` — a batch must fail
        loudly at plan time, not mid-run.
        """
        items: List[PlanItem] = []
        for index, task in enumerate(tasks):
            request = SolveRequest.from_payload(task.get("request"))
            canonical = canonical_form(request.hypergraph)
            items.append(
                PlanItem(
                    index=index,
                    task=dict(task),
                    request=request,
                    canonical=canonical,
                    kind=request.cache_kind(),
                )
            )
        return cls(items)

    @property
    def query_count(self) -> int:
        return len(self.items)

    def describe(self) -> str:
        return (
            f"{self.query_count} queries -> {len(self.groups)} shape groups "
            f"+ {len(self.ungrouped)} ungrouped solves"
        )


@dataclass
class BatchReport:
    """What one :func:`run_plan` produced, in the plan's input order."""

    results: List[Optional[Dict[str, object]]]
    counters: Dict[str, int]
    elapsed: float

    @property
    def queries_per_second(self) -> float:
        return len(self.results) / self.elapsed if self.elapsed > 0 else 0.0

    def summary(self) -> Dict[str, object]:
        return {
            "queries": len(self.results),
            "elapsed_s": round(self.elapsed, 6),
            "queries_per_second": round(self.queries_per_second, 3),
            **self.counters,
        }


def _wire(item: PlanItem, result, cache_label: str) -> Dict[str, object]:
    """A per-query wire dict (the supervised batch result format)."""
    wire = result.to_payload()
    wire["query"] = item.task.get("query") or item.request.label or f"q{item.index}"
    wire["cache"] = cache_label
    return wire


def _solve_inline(item: PlanItem, cache) -> "object":
    from repro.core.solve import DATA_PREFERENCES, execute

    database = query = None
    if item.request.preference in DATA_PREFERENCES and item.task.get("query"):
        # Cost preferences rank by database statistics; benchmark tasks
        # carry their workload coordinates, and the module-level memo in
        # the harness makes repeated loads of one workload free.
        from repro.experiments.harness import load_benchmark_workload

        database, query, _ = load_benchmark_workload(
            str(item.task["query"]),
            scale=float(item.task.get("scale") or 1.0),
            seed=item.task.get("seed"),
        )
    return execute(item.request, database=database, query=query, cache=cache)


def _record_from_result(item: PlanItem, result) -> Optional[Dict[str, object]]:
    """The canonical record of a complete, positive representative solve."""
    if not result.decided or not result.outcome.complete or not result.decompositions:
        return None
    return _record_for(item.canonical, result.decompositions, int(result.width))


def _fan_out(
    member: PlanItem, record: Dict[str, object], counters: Dict[str, int], label: str
) -> Optional[Dict[str, object]]:
    """Serve one member from a canonical record, re-certifying for *it*.

    Returns ``None`` when the record does not certify against this
    member's hypergraph (fingerprint collision, corrupt record) — the
    caller then solves the member individually; a bad record degrades to
    a miss, never a wrong answer.
    """
    try:
        served = serve_canonical_record(
            member.request, member.canonical, record, time.perf_counter(), label
        )
    except (KeyError, TypeError, ValueError):
        counters["fanout_rejected"] += 1
        return None
    counters["fanout"] += 1
    return _wire(member, served, label)


def _certify_worker_result(item: PlanItem, wire: object):
    """Certify a worker's wire result against the parent's own request.

    Returns a parent-side :class:`~repro.core.solve.SolveResult`, or
    ``None`` if the claim does not certify (the caller then solves the
    representative inline: a lying worker degrades to a retry, never a
    wrong answer).
    """
    try:
        return certify_claim(item.request, wire)
    except ValueError:
        return None


def _solve_on_workers(
    items: List[PlanItem], workers: int, cache
) -> List[Optional[object]]:
    """Solve ``items`` on one supervised run of ``workers`` worker processes.

    Returns one parent-certified :class:`~repro.core.solve.SolveResult` per
    item, or ``None`` where the worker attempts gave none (crash, hard
    timeout, ``ok: False``, or a claim that does not certify).  The ladder
    is the top rung alone: a ``decide`` rung answers a different question
    than an ``enumerate`` request asks, so its result must not be served,
    let alone fanned out.  Certification happens here, once per result,
    against the item's own request, so the supervisor runs without a
    certifier.
    """
    from repro.runtime.supervisor import DEFAULT_LADDER, Supervisor

    # The workers must mirror this plan's cache decision: a cache=None run
    # (benchmarks, equivalence tests) would otherwise read and write the
    # persistent cache through them.  (Custom cache objects are not
    # shipped — workers then use their default resolution.)
    tasks = [
        dict(item.task, cache_off=True) if cache is None else item.task
        for item in items
    ]
    supervisor = Supervisor(max_workers=workers, ladder=DEFAULT_LADDER[:1])
    report = supervisor.run(tasks)
    if report.interrupted:
        raise KeyboardInterrupt
    # Distinct groups carry distinct requests, so no task is deduplicated
    # and the report is in input order.
    return [
        _certify_worker_result(item, outcome.result) if outcome.ok else None
        for item, outcome in zip(items, report.results)
    ]


def run_plan(plan: BatchSolvePlan, workers: int = 0, cache="auto") -> BatchReport:
    """Execute a plan and return per-query results plus reuse counters.

    ``workers > 1`` solves the group representatives on one
    :class:`~repro.runtime.supervisor.Supervisor` run (see
    :func:`_solve_on_workers`); a representative whose worker attempts give
    no certified result is counted in ``solve_errors`` and solved inline.
    ``workers <= 1`` solves inline.  ``solves`` counts each query whose
    answer came from a solve rather than a fan-out, once.

    Results are deterministic in the plan's input order and independent
    of ``workers`` and of the group order: grouping, representative
    choice and fan-out permutations are all fixed by the plan itself.
    """
    started = time.perf_counter()
    counters = {
        "solves": 0,
        "cache_hits": 0,
        "fanout": 0,
        "fanout_rejected": 0,
        "solve_errors": 0,
        "groups": len(plan.groups),
        "grouped_queries": sum(len(g.items) for g in plan.groups),
        "ungrouped_queries": len(plan.ungrouped),
    }
    results: List[Optional[Dict[str, object]]] = [None] * len(plan.items)

    def solve_member(item: PlanItem):
        result = _solve_inline(item, cache)
        counters["solves"] += 1
        if result.cache_status == "hit":
            counters["cache_hits"] += 1
        results[item.index] = _wire(item, result, result.cache_status)
        return result

    representatives = [group.representative for group in plan.groups]
    if workers > 1 and representatives:
        delivered = _solve_on_workers(representatives, workers, cache)
        counters["solve_errors"] = delivered.count(None)
    else:
        delivered = [None] * len(representatives)

    for group, rep_result in zip(plan.groups, delivered):
        rep = group.representative
        if rep_result is not None:
            counters["solves"] += 1
            results[rep.index] = _wire(rep, rep_result, "miss")
        else:
            rep_result = solve_member(rep)
        record = _record_from_result(rep, rep_result)
        if record is not None:
            for member in group.items[1:]:
                wire = _fan_out(member, record, counters, "fanout")
                if wire is None:
                    solve_member(member)
                else:
                    results[member.index] = wire
        elif (
            not rep_result.decided
            and rep_result.outcome.complete
            and len(group.items) > 1
        ):
            # A *complete* negative is a fact about the shape: every
            # isomorphic member shares it.  (Anytime negatives are
            # inconclusive and must not be replicated.)
            for member in group.items[1:]:
                counters["fanout"] += 1
                results[member.index] = _wire(member, rep_result, "fanout")
        else:
            # Anytime representative answer: other members get their own
            # governed solves rather than a replicated partial result.
            for member in group.items[1:]:
                solve_member(member)

    # -- ungrouped (kind None) queries ----------------------------------------
    for item in plan.ungrouped:
        solve_member(item)

    return BatchReport(
        results=results,
        counters=counters,
        elapsed=time.perf_counter() - started,
    )
