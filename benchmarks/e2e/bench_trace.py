"""Outside-in layer tracer for the end-to-end benchmark.

The program under test has no spans of its own yet (ROADMAP item 1), so
the benchmark records them from here: :data:`TRACE_TABLE` names public
callables at each layer boundary, :class:`Tracer` swaps each for a
recording wrapper while the traced rounds run and puts the originals back
afterwards.  A span is ``name, start, end, parent span, op`` plus the
counts its table entry extracts at the same boundary (rows in/out, bags,
blocks, cache hit).  Spans stay in memory until the run ends.

A name bound with ``from x import f`` is a second binding of ``f`` in the
consumer's namespace, so the table patches *that* namespace (e.g.
``repro.db.frontdoor.parse_select_query``); methods are patched on their
class.  ``Tracer.uncovered`` is the guard against a binding the table
missed: an entry that promises spans on a workload and records none.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

QUERY = ("query_agg_sf10", "query_rows_sf2")
ALL_BUT_SUPERVISED = QUERY + ("solve_cold", "batch_dedup")

Counts = Callable[[tuple, dict, object], Dict[str, float]]


@dataclass(frozen=True)
class TraceEntry:
    """One patched binding.

    ``namespace`` is a module path, or ``module:Class`` for a method;
    ``name`` is the span name (shared by every binding of one function);
    ``workloads`` lists the workloads that must produce at least one span
    through this binding; ``counts`` maps ``(args, kwargs, result)`` to
    the numbers recorded on the span.
    """

    namespace: str
    attribute: str
    name: str
    workloads: Tuple[str, ...] = ()
    counts: Optional[Counts] = None

    @property
    def site(self) -> str:
        return f"{self.namespace}.{self.attribute}"


def _join_counts(args, kwargs, result):
    return {"rows_in": len(args[0]) + len(args[1]), "rows_out": len(result)}


def _semijoin_counts(args, kwargs, result):
    return {"rows_in": len(args[0]), "rows_out": len(result)}


def _execute_counts(args, kwargs, result):
    return {"work": result.work, "max_intermediate": result.max_intermediate}


def _run_plan_counts(args, kwargs, result):
    counters = result.counters
    return {
        "tasks": len(result.results),
        "solves": counters["solves"],
        "fanout": counters["fanout"],
        "fanout_rejected": counters["fanout_rejected"],
    }


def _supervisor_counts(args, kwargs, result):
    return {
        "tasks": len(result.results),
        "attempts": sum(task.attempts for task in result.results),
    }


TRACE_TABLE: Tuple[TraceEntry, ...] = (
    TraceEntry("repro.db.frontdoor", "run_query", "db.frontdoor.run_query", QUERY),
    TraceEntry("repro.db.frontdoor", "parse_select_query", "db.sqlish.parse", QUERY),
    TraceEntry("repro.db.query:ConjunctiveQuery", "hypergraph", "db.query.hypergraph", QUERY),
    TraceEntry("repro.db.frontdoor", "execute", "core.solve.execute", QUERY),
    TraceEntry("repro.core.solve", "execute", "core.solve.execute", ALL_BUT_SUPERVISED),
    TraceEntry("repro.hypergraph.canonical", "canonical_form", "hypergraph.canonical", QUERY + ("batch_dedup",)),
    TraceEntry("repro.runtime.scheduler", "canonical_form", "hypergraph.canonical", ("batch_dedup",)),
    TraceEntry("repro.db.frontdoor", "hypergraph_fingerprint", "hypergraph.fingerprint", QUERY),
    TraceEntry(
        "repro.core.cache:DecompositionCache", "get", "core.cache.get", QUERY + ("batch_dedup",),
        lambda args, kwargs, result: {"hit": int(result is not None)},
    ),
    TraceEntry("repro.core.cache:DecompositionCache", "put", "core.cache.put", ("batch_dedup",)),
    TraceEntry("repro.core.cache:DecompositionCache", "reject", "core.cache.reject"),
    TraceEntry("repro.core.solve", "certify_ctd", "core.certify", QUERY + ("batch_dedup",)),
    TraceEntry("repro.core.certify", "certify_ctd", "core.certify", ("batch_supervised",)),
    TraceEntry(
        "repro.core.candidate_bags:SoftBagGenerator", "candidate_bags", "core.candidate_bags",
        ("solve_cold", "batch_dedup"),
        lambda args, kwargs, result: {"bags": len(result)},
    ),
    TraceEntry(
        "repro.core.blocks:BlockIndex", "__init__", "core.blocks", ("solve_cold", "batch_dedup"),
        lambda args, kwargs, result: {"blocks": len(args[0].blocks())},
    ),
    TraceEntry("repro.core.ctd", "candidate_td", "core.ctd", ("solve_cold", "batch_dedup")),
    TraceEntry("repro.core.constrained", "constrained_candidate_td", "core.constrained", ("solve_cold", "batch_dedup")),
    TraceEntry("repro.core.enumerate", "enumerate_ctds", "core.enumerate", ("solve_cold", "batch_dedup")),
    TraceEntry("repro.db.yannakakis:YannakakisExecutor", "plan", "db.yannakakis.plan", QUERY),
    TraceEntry("repro.db.yannakakis:YannakakisExecutor", "execute", "db.yannakakis.execute", QUERY, _execute_counts),
    TraceEntry("repro.db.relation:Relation", "natural_join", "db.relation.join", QUERY, _join_counts),
    TraceEntry("repro.db.relation:Relation", "semijoin", "db.relation.semijoin", QUERY, _semijoin_counts),
    TraceEntry("repro.db.relation:Relation", "project", "db.relation.project", QUERY),
    TraceEntry(
        "repro.db.frontdoor", "canonical_rows", "db.frontdoor.canonical_rows", ("query_rows_sf2",),
        lambda args, kwargs, result: {"rows_out": len(result)},
    ),
    TraceEntry("repro.runtime.scheduler:BatchSolvePlan", "from_tasks", "runtime.scheduler.plan", ("batch_dedup",)),
    TraceEntry("repro.runtime.scheduler", "run_plan", "runtime.scheduler.run", ("batch_dedup",), _run_plan_counts),
    TraceEntry("repro.runtime.supervisor:Supervisor", "run", "runtime.supervisor.run", ("batch_supervised",), _supervisor_counts),
    TraceEntry("repro.experiments.harness", "execute_batch_task", "experiments.harness.task", ("batch_supervised",)),
)


def _owner(namespace: str):
    module_name, _, class_name = namespace.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Records spans around the table's bindings while installed."""

    def __init__(self, table: Sequence[TraceEntry] = TRACE_TABLE, clock=time.perf_counter):
        self.table = tuple(table)
        self.spans: List[Dict[str, object]] = []
        self.op: Optional[str] = None
        self.round: int = 0
        self._clock = clock
        self._stack: List[int] = []
        self._originals: List[Tuple[object, str, object]] = []

    def _wrap(self, entry: TraceEntry, function):
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = {
                "id": len(spans),
                "parent": stack[-1] if stack else None,
                "name": entry.name,
                "site": entry.site,
                "op": self.op,
                "round": self.round,
                "start": clock(),
                "end": None,
            }
            spans.append(span)
            stack.append(span["id"])
            try:
                result = function(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            if entry.counts is not None:
                span.update(entry.counts(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer is already installed")
        for entry in self.table:
            owner = _owner(entry.namespace)
            original = vars(owner)[entry.attribute]
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(entry, original.__func__))
            else:
                replacement = self._wrap(entry, original)
            setattr(owner, entry.attribute, replacement)
            self._originals.append((owner, entry.attribute, original))

    def uninstall(self) -> None:
        """Put every original back; raises if a binding does not restore."""
        originals, self._originals = self._originals, []
        for owner, attribute, original in originals:
            setattr(owner, attribute, original)
        stale = [
            f"{owner!r}.{attribute}"
            for owner, attribute, original in originals
            if vars(owner)[attribute] is not original
        ]
        if stale:
            raise RuntimeError(f"tracer left patched bindings behind: {stale}")

    def uncovered(self, workload: str) -> List[str]:
        """Sites the table says ``workload`` exercises that recorded no span."""
        seen = {span["site"] for span in self.spans}
        return [
            entry.site
            for entry in self.table
            if workload in entry.workloads and entry.site not in seen
        ]

    def write_jsonl(self, path: str) -> None:
        """One span per line; times are milliseconds since the first span."""
        epoch = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                row = dict(span)
                row["start_ms"] = (row.pop("start") - epoch) * 1e3
                row["end_ms"] = (row.pop("end") - epoch) * 1e3
                handle.write(json.dumps(row, sort_keys=True) + "\n")


def self_times(spans: Sequence[Dict[str, object]]) -> Dict[int, float]:
    """Span id -> duration minus the part its direct children cover (seconds).

    One thread records every span, so the children of a span are disjoint
    sub-intervals of it and their summed durations are the covered part.
    """
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] in own:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


#: Trace-derived layer metric -> (span name, what to take from its spans).
#: ``self_ms`` sums self time, ``total_ms`` whole durations, ``calls``
#: counts spans, anything else sums that count field.  Every ``*_ms`` metric is self time, so one
#: workload's layer times add up to its traced round without overlap.
SPAN_METRICS: Dict[str, Tuple[str, str]] = {
    "db.sqlish.parse_ms": ("db.sqlish.parse", "self_ms"),
    "db.query.hypergraph_ms": ("db.query.hypergraph", "self_ms"),
    "hypergraph.canonical.ms": ("hypergraph.canonical", "self_ms"),
    "hypergraph.canonical.calls": ("hypergraph.canonical", "calls"),
    "core.cache.get_ms": ("core.cache.get", "self_ms"),
    "core.cache.put_ms": ("core.cache.put", "self_ms"),
    "core.cache.rejected": ("core.cache.reject", "calls"),
    "core.certify.ms": ("core.certify", "self_ms"),
    "core.certify.calls": ("core.certify", "calls"),
    "core.candidate_bags.ms": ("core.candidate_bags", "self_ms"),
    "core.candidate_bags.bags": ("core.candidate_bags", "bags"),
    "core.blocks.ms": ("core.blocks", "self_ms"),
    "core.blocks.blocks": ("core.blocks", "blocks"),
    "core.ctd.ms": ("core.ctd", "self_ms"),
    "core.constrained.ms": ("core.constrained", "self_ms"),
    "core.enumerate.ms": ("core.enumerate", "self_ms"),
    "core.solve.self_ms": ("core.solve.execute", "self_ms"),
    "db.yannakakis.plan_ms": ("db.yannakakis.plan", "self_ms"),
    "db.yannakakis.plan_calls": ("db.yannakakis.plan", "calls"),
    "db.yannakakis.execute_self_ms": ("db.yannakakis.execute", "self_ms"),
    "db.yannakakis.work": ("db.yannakakis.execute", "work"),
    "db.relation.join_ms": ("db.relation.join", "self_ms"),
    "db.relation.join_rows_out": ("db.relation.join", "rows_out"),
    "db.relation.semijoin_ms": ("db.relation.semijoin", "self_ms"),
    "db.relation.project_ms": ("db.relation.project", "self_ms"),
    "db.frontdoor.canonical_rows_ms": ("db.frontdoor.canonical_rows", "self_ms"),
    "db.frontdoor.rows_out": ("db.frontdoor.canonical_rows", "rows_out"),
    "db.frontdoor.self_ms": ("db.frontdoor.run_query", "self_ms"),
    "runtime.scheduler.plan_ms": ("runtime.scheduler.plan", "self_ms"),
    "runtime.scheduler.run_self_ms": ("runtime.scheduler.run", "self_ms"),
    "runtime.scheduler.solves": ("runtime.scheduler.run", "solves"),
    "runtime.scheduler.fanout": ("runtime.scheduler.run", "fanout"),
    "runtime.scheduler.fanout_rejected": ("runtime.scheduler.run", "fanout_rejected"),
    "runtime.supervisor.attempts": ("runtime.supervisor.run", "attempts"),
}

#: Layer metrics that are ratios or differences of span sums.
DERIVED_METRICS = (
    "core.cache.hit_ratio",
    "db.yannakakis.max_intermediate",
    "db.relation.semijoin_kept_ratio",
    "runtime.scheduler.dedup_ratio",
    "runtime.supervisor.retries",
    "runtime.supervisor.task_overhead_ms",
    "experiments.harness.task_direct_ms",
)


def layer_metrics(spans: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """The trace-derived layer metrics of one traced round's spans."""
    own = self_times(spans)
    by_name: Dict[str, List[Dict[str, object]]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def total(name: str, what: str) -> float:
        group = by_name.get(name, ())
        if what == "self_ms":
            return sum(own[span["id"]] for span in group) * 1e3
        if what == "total_ms":
            return sum(span["end"] - span["start"] for span in group) * 1e3
        if what == "calls":
            return float(len(group))
        return float(sum(span.get(what, 0) for span in group))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics = {metric: total(*source) for metric, source in SPAN_METRICS.items()}
    metrics["core.cache.hit_ratio"] = ratio(
        total("core.cache.get", "hit"), total("core.cache.get", "calls")
    )
    metrics["db.yannakakis.max_intermediate"] = float(
        max((span.get("max_intermediate", 0) for span in by_name.get("db.yannakakis.execute", ())), default=0)
    )
    metrics["db.relation.semijoin_kept_ratio"] = ratio(
        total("db.relation.semijoin", "rows_out"), total("db.relation.semijoin", "rows_in")
    )
    metrics["runtime.scheduler.dedup_ratio"] = ratio(
        total("runtime.scheduler.run", "fanout"), total("runtime.scheduler.run", "tasks")
    )
    tasks = total("runtime.supervisor.run", "tasks")
    supervised_ms = total("runtime.supervisor.run", "total_ms")
    direct_ms = total("experiments.harness.task", "total_ms")
    metrics["runtime.supervisor.retries"] = total("runtime.supervisor.run", "attempts") - tasks
    metrics["experiments.harness.task_direct_ms"] = ratio(direct_ms, tasks)
    metrics["runtime.supervisor.task_overhead_ms"] = ratio(supervised_ms - direct_ms, tasks)
    return metrics
