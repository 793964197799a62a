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

:func:`run_plan` executes a plan in-process: one solve per group
representative (through the persistent cache), then fan-out.  Fan-out
only ever applies *complete* results — a budget-truncated (anytime)
representative answer is never replicated to other queries; those members
are solved individually under their own caps.  Parallel, isolated solving
is the supervised batch runtime's job (:class:`repro.runtime.supervisor.
Supervisor`, ``repro batch``), not this module's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.solve import SolveRequest, _record_for, serve_canonical_record
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


@dataclass
class BatchReport:
    """What one :func:`run_plan` produced, in the plan's input order."""

    results: List[Optional[Dict[str, object]]]
    counters: Dict[str, int]


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
        from repro.experiments.harness import load_task_workload

        database, query, _ = load_task_workload(item.task)
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


def run_plan(plan: BatchSolvePlan, workers: int = 0, cache="auto") -> BatchReport:
    """Execute a plan in-process and return per-query results plus counters.

    ``solves`` counts each query answered by a solve rather than a
    fan-out; ``fanout`` / ``fanout_rejected`` count the members served
    from, or refused by, their representative's record.  Results are
    deterministic in the plan's input order and independent of the group
    order: grouping, representative choice and fan-out permutations are
    all fixed by the plan itself.

    ``workers`` may only be 0 or 1: solving on worker processes is the
    supervised batch runtime's job (``repro batch --workers N``).
    """
    if workers > 1:
        raise ValueError(
            f"run_plan solves in-process (workers={workers}); "
            "use the supervised batch runtime (repro batch --workers N) "
            "for worker processes"
        )
    counters = {"solves": 0, "fanout": 0, "fanout_rejected": 0}
    results: List[Optional[Dict[str, object]]] = [None] * len(plan.items)

    def solve_member(item: PlanItem):
        result = _solve_inline(item, cache)
        counters["solves"] += 1
        results[item.index] = _wire(item, result, result.cache_status)
        return result

    for group in plan.groups:
        rep = group.representative
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

    return BatchReport(results=results, counters=counters)
