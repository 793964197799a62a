"""The five workloads of the end-to-end benchmark.

Each workload builds its inputs from the run's seed in :meth:`setup`,
exposes the round's operations as ``(name, callable)`` pairs in ``ops``
and checks every output in :meth:`check`.  Operations reach the program
through module attributes (``frontdoor.run_query``, ``solve.execute``,
``scheduler.run_plan`` ...) and never through a ``from`` import, so the
tracer's patches apply to them; the checkers below hold their own early
bindings (``certify_ctd``) on purpose, so checking is never traced.

The seed reaches the program only as data: dataset seeds are offset from
each workload's default by ``seed % SEED_VARIANTS`` (the two Hetionet
queries whose baseline runs for seconds have golden answers for exactly
those offsets), and vertex/edge relabelling and task order take the whole
seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import tempfile
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import solve
from repro.core.cache import DecompositionCache
from repro.core.certify import certify_ctd, decomposition_from_payload
from repro.db import frontdoor
from repro.db.executor import BaselineExecutor
from repro.db.sqlish import parse_select_query
from repro.experiments import harness as batch_harness
from repro.hypergraph.generators import (
    random_cyclic_query_hypergraph,
    random_hypergraph,
)
from repro.hypergraph.hypergraph import Edge, Hypergraph
from repro.hypergraph.library import cycle_hypergraph, grid_hypergraph, hypergraph_h2
from repro.runtime import scheduler, supervisor
from repro.workloads.hetionet import HETIONET_QUERY_SQL
from repro.workloads.joblite import JOBLITE_QUERY_SQL
from repro.workloads.lsqb import QLB_SQL
from repro.workloads.registry import benchmark_query, workload_entries, workload_entry
from repro.workloads.tpcds import QDS_SQL

GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")

#: Distinct dataset variants a seed can select.
SEED_VARIANTS = 32
#: Queries whose hash-join baseline takes 4-10 s (and ~0.8 GiB) at scale 10.
GOLDEN_QUERIES = ("q_hto", "q_hto2")
GOLDEN_SCALE = 10.0


class Mismatch(Exception):
    """An operation's output failed its correctness check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def golden_key(query: str, scale: float, seed: int, generator_version: int) -> str:
    return f"{query}:scale={scale:g}:seed={seed}:gen={generator_version}"


def load_goldens() -> Dict[str, object]:
    with open(GOLDENS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def regenerate_goldens() -> None:
    """Recompute every golden answer with the hash-join baseline."""
    entry = workload_entry("hetionet")
    goldens: Dict[str, object] = {}
    for offset in range(SEED_VARIANTS):
        seed = entry.default_seed + offset
        database = entry.load(scale=GOLDEN_SCALE, seed=seed, cache=False)
        for name in GOLDEN_QUERIES:
            query = parse_select_query(HETIONET_QUERY_SQL[name], database, name=name)
            key = golden_key(name, GOLDEN_SCALE, seed, entry.generator_version)
            goldens[key] = BaselineExecutor(database, query).execute().result
            print(f"golden {key} = {goldens[key]}", flush=True)
    with open(GOLDENS_PATH, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")


def relabel(hypergraph: Hypergraph, rng: random.Random, tag: str = "") -> Hypergraph:
    """An isomorphic copy under a seeded vertex renaming and edge order."""
    vertices = sorted(hypergraph.vertices, key=str)
    names = [f"u{index:03d}" for index in range(len(vertices))]
    rng.shuffle(names)
    mapping = dict(zip(vertices, names))
    edges = [
        Edge(f"{tag}{edge.name}", frozenset(mapping[v] for v in edge.vertices))
        for edge in sorted(hypergraph.edges, key=lambda edge: edge.name)
    ]
    rng.shuffle(edges)
    return Hypergraph(edges)


def rows_digest(rows: Sequence[Tuple]) -> Tuple[int, str]:
    """``(distinct row count, sha256 of the sorted distinct rows)``.

    Every column of the benchmark datasets is an integer, so rows sort
    natively.
    """
    distinct = sorted(set(rows))
    return len(distinct), hashlib.sha256(repr(distinct).encode("utf-8")).hexdigest()


def _require_certified(
    label: str,
    hypergraph: Hypergraph,
    payloads_or_ctds: Sequence[object],
    width: int,
    constraint: Optional[str],
) -> None:
    constraint_object = solve.constraint_object(constraint, hypergraph, width)
    for item in payloads_or_ctds:
        ctd = (
            decomposition_from_payload(hypergraph, item)
            if isinstance(item, dict)
            else item
        )
        certification = certify_ctd(
            hypergraph, ctd, constraint=constraint_object, width_claim=width
        )
        _require(bool(certification), f"{label}: {certification.describe()}")


class Workload:
    """Base: a seeded input builder, a round of operations, a checker."""

    name = ""
    why = ""
    default_rounds = 1
    #: Fewest timed rounds of a ``--seconds`` run, however slow a round is:
    #: best-of needs the samples most when the machine is in a slow spell.
    min_rounds = 10
    scale: Optional[float] = None
    #: Whether worker processes belong in ``peak_rss_mb``.
    counts_children = False

    def __init__(self, seed: int):
        self.seed = seed
        self.ops: List[Tuple[str, Callable[[], object]]] = []
        #: Layer numbers only set-up can measure (loads, baselines).
        self.setup_layers: Dict[str, float] = {}
        #: Extra per-operation fields for the results file.
        self.op_notes: Dict[str, Dict[str, float]] = {}

    @property
    def units_per_round(self) -> int:
        """User-visible operations one round completes (ops, or batch tasks)."""
        return len(self.ops)

    def setup(self, workdir: str) -> None:
        raise NotImplementedError

    def check(self, op: str, output: object) -> None:
        """Raise :class:`Mismatch` unless ``output`` is the correct answer of ``op``."""
        raise NotImplementedError

    def failure(self, op: str, output: object) -> Optional[str]:
        """What is wrong with ``output``, or ``None``."""
        try:
            self.check(op, output)
        except Mismatch as exc:
            return str(exc)
        return None

    def traced_reference(self) -> None:
        """Extra in-process work a traced round records as a reference."""


# -- query workloads ----------------------------------------------------------

_AGGREGATE_RE = re.compile(r"SELECT\s+\w+\s*\(\s*[\w.\"]+\s*\)", re.IGNORECASE)

SQL_TEXTS: Tuple[Tuple[str, str, str], ...] = (
    ("q_ds", "tpcds", QDS_SQL),
    *((name, "hetionet", sql) for name, sql in HETIONET_QUERY_SQL.items()),
    ("q_lb", "lsqb", QLB_SQL),
    *((name, "joblite", sql) for name, sql in sorted(JOBLITE_QUERY_SQL.items())),
)


class QueryWorkload(Workload):
    """SQL texts through ``run_query`` with a warm, re-certifying CTD cache."""

    #: ``SELECT *`` in place of the aggregate.
    rows = False
    skip: Tuple[str, ...] = ()

    def setup(self, workdir: str) -> None:
        offset = self.seed % SEED_VARIANTS
        entries = workload_entries()
        started = time.perf_counter()
        seeds = {name: entry.default_seed + offset for name, entry in entries.items()}
        databases = {
            name: entry.load(scale=self.scale, seed=seeds[name], cache=False)
            for name, entry in entries.items()
        }
        self.setup_layers = {
            "workloads.registry.load_ms": (time.perf_counter() - started) * 1e3,
            "workloads.registry.rows": float(
                sum(database.total_rows() for database in databases.values())
            ),
            "db.executor.baseline_ms": 0.0,
            "db.executor.baseline_work": 0.0,
        }
        goldens = load_goldens()
        self.store = DecompositionCache(tempfile.mkdtemp(prefix="ctd-", dir=workdir))
        self.ops, self.expected, self.op_notes = [], {}, {}
        for name, dataset, sql in SQL_TEXTS:
            if name in self.skip:
                continue
            if self.rows:
                sql = _AGGREGATE_RE.sub("SELECT *", sql, count=1)
            database = databases[dataset]
            key = golden_key(
                name, self.scale, seeds[dataset], entries[dataset].generator_version
            )
            if not self.rows and key in goldens:
                self.expected[name] = goldens[key]
            else:
                self.expected[name] = self._baseline_answer(name, sql, database)
            # Cold run: solves and stores the CTD, so timed runs are hits.
            frontdoor.run_query(sql, database, name=name, cache=self.store)
            self.ops.append((name, self._operation(sql, database, name)))

    def _operation(self, sql: str, database, name: str) -> Callable[[], object]:
        return lambda: frontdoor.run_query(sql, database, name=name, cache=self.store)

    def _baseline_answer(self, name: str, sql: str, database) -> object:
        query = parse_select_query(sql, database, name=name)
        started = time.perf_counter()
        metrics = BaselineExecutor(database, query).execute()
        elapsed_ms = (time.perf_counter() - started) * 1e3
        self.setup_layers["db.executor.baseline_ms"] += elapsed_ms
        self.setup_layers["db.executor.baseline_work"] += metrics.work
        self.op_notes[name] = {"baseline_ms": elapsed_ms, "baseline_work": metrics.work}
        if not self.rows:
            return metrics.result
        columns = sorted(map(str, query.variables()))
        return rows_digest(metrics.result.project(columns).rows)

    def check(self, op: str, result) -> None:
        _require(result.complete and result.rows is not None, f"{op}: partial result")
        _require(result.provenance == "cache", f"{op}: provenance {result.provenance}")
        stats = result.plan.cache_stats or {}
        _require(
            not stats.get("rejected") and not stats.get("quarantined"),
            f"{op}: cache rejected or quarantined an entry: {stats}",
        )
        if self.rows:
            got: object = rows_digest(result.rows)
            _require(len(result.rows) == got[0], f"{op}: duplicate rows returned")
        else:
            got = result.value
        _require(got == self.expected[op], f"{op}: got {got}, expected {self.expected[op]}")


class QueryAggSf10(QueryWorkload):
    name = "query_agg_sf10"
    why = (
        "16 aggregate SQL texts at scale 10, warm CTD cache: execution does the "
        "work, the solver none; front-door overhead shows on the 3-10 ms queries"
    )
    default_rounds = 30
    scale = 10.0


class QueryRowsSf2(QueryWorkload):
    name = "query_rows_sf2"
    why = (
        "the same SQL as SELECT * at scale 2 (13 queries): answer extraction and "
        "canonical rows dominate, so an aggregate-only gain that costs row output shows"
    )
    default_rounds = 20
    scale = 2.0
    rows = True
    # Their full joins run for seconds.
    skip = ("jl09", "q_hto", "q_hto2")


# -- solve workload -----------------------------------------------------------

#: name, hypergraph, request fields, pinned (decided, width, decompositions).
SOLVE_OPS = (
    ("cycle24-decide", lambda: cycle_hypergraph(24), dict(mode="decide", width=2), (True, 2, 1)),
    ("random26-decide", lambda: random_hypergraph(26, 18, seed=3), dict(mode="decide", width=2), (True, 2, 1)),
    ("cyclic12-decide", lambda: random_cyclic_query_hypergraph(12, 3, seed=5), dict(mode="decide", width=2), (True, 2, 1)),
    ("grid4x4-decide-negative", lambda: grid_hypergraph(4, 4), dict(mode="decide", width=2), (False, None, 0)),
    (
        "cyclic7-enumerate-concov",
        lambda: random_cyclic_query_hypergraph(7, 2, seed=1),
        dict(mode="enumerate", width=4, constraint="concov", preference="nodecount", limit=5),
        (True, 4, 5),
    ),
    (
        "h2-optimal-concov",
        hypergraph_h2,
        dict(mode="optimal", width=3, constraint="concov", preference="nodecount"),
        (True, 3, 1),
    ),
    (
        "cyclic10-optimal",
        lambda: random_cyclic_query_hypergraph(10, 3, seed=2),
        dict(mode="optimal", width=2, preference="nodecount"),
        (True, 2, 1),
    ),
    ("cycle12-enumerate-top10", lambda: cycle_hypergraph(12), dict(mode="enumerate", width=2, limit=10), (True, 2, 10)),
    ("grid3x4-softwidth", lambda: grid_hypergraph(3, 4), dict(mode="soft-width"), (True, 2, 1)),
    ("random18-softwidth", lambda: random_hypergraph(18, 15, seed=7), dict(mode="soft-width"), (True, 2, 1)),
)


def _require_solved(label: str, decided, width, decompositions, pin, request) -> None:
    """The pinned answer, and a certificate for every decomposition returned."""
    _require(
        (decided, width, len(decompositions)) == pin,
        f"{label}: (decided, width, decompositions) = "
        f"{(decided, width, len(decompositions))}, pinned {pin}",
    )
    if decided:
        _require_certified(
            label, request.hypergraph, decompositions, width, request.constraint
        )


class SolveCold(Workload):
    name = "solve_cold"
    why = (
        "execute() without a cache on ten hypergraphs covering every mode: candidate "
        "bags, blocks and the fixpoint/worklist/any-k solvers do all the work, db.* none"
    )
    default_rounds = 12

    def setup(self, workdir: str) -> None:
        rng = random.Random(self.seed)
        self.ops, self.requests, self.pins = [], {}, {}
        for name, build, fields, pin in SOLVE_OPS:
            request = solve.SolveRequest(hypergraph=relabel(build(), rng), **fields)
            self.requests[name], self.pins[name] = request, pin
            self.ops.append((name, self._operation(request)))

    @staticmethod
    def _operation(request) -> Callable[[], object]:
        return lambda: solve.execute(request, cache=None)

    def check(self, op: str, result) -> None:
        request = self.requests[op]
        _require(result.complete, f"{op}: partial result")
        _require_solved(
            op, result.decided, result.width, result.decompositions, self.pins[op], request
        )


# -- batch workloads ----------------------------------------------------------

DEDUP_COPIES = 30
#: name, hypergraph, request fields, pinned (decided, width, decompositions).
DEDUP_SHAPES = (
    ("cycle12", lambda: cycle_hypergraph(12), dict(mode="enumerate", width=2, limit=3), (True, 2, 3)),
    ("cycle16", lambda: cycle_hypergraph(16), dict(mode="decide", width=2), (True, 2, 1)),
    ("grid3x4", lambda: grid_hypergraph(3, 4), dict(mode="decide", width=2), (True, 2, 1)),
    ("h2", hypergraph_h2, dict(mode="optimal", width=3, constraint="concov", preference="nodecount"), (True, 3, 1)),
    (
        "cyclic10",
        lambda: random_cyclic_query_hypergraph(10, 3, seed=2),
        dict(mode="optimal", width=2, preference="nodecount"),
        (True, 2, 1),
    ),
    ("random18", lambda: random_hypergraph(18, 15, seed=7), dict(mode="decide", width=2), (True, 2, 1)),
)


class BatchDedup(Workload):
    name = "batch_dedup"
    why = (
        "six shapes x 30 relabelled copies through the batch scheduler: six solves, "
        "174 certified fan-outs; canonicalisation and certification are the bulk"
    )
    default_rounds = 7

    @property
    def units_per_round(self) -> int:
        return len(self.tasks)

    def setup(self, workdir: str) -> None:
        rng = random.Random(self.seed)
        self.workdir = workdir
        items = []
        for name, build, fields, pin in DEDUP_SHAPES:
            base = build()
            for copy in range(DEDUP_COPIES):
                label = f"{name}-v{copy}"
                request = solve.SolveRequest(
                    hypergraph=relabel(base, rng, tag=f"r{copy}_"), label=label, **fields
                )
                task = {"kind": "solve", "query": label, "request": request.to_payload()}
                items.append((task, request, pin))
        rng.shuffle(items)
        self.tasks = [task for task, _, _ in items]
        self.pinned = [(request, pin) for _, request, pin in items]
        self.ops = [("batch", self._run_batch)]

    def _run_batch(self):
        cache = DecompositionCache(tempfile.mkdtemp(prefix="ctd-", dir=self.workdir))
        plan = scheduler.BatchSolvePlan.from_tasks(self.tasks)
        return scheduler.run_plan(plan, workers=0, cache=cache)

    def check(self, op: str, report) -> None:
        counters = report.counters
        expected = {
            "solves": len(DEDUP_SHAPES),
            "fanout": len(self.tasks) - len(DEDUP_SHAPES),
            "fanout_rejected": 0,
        }
        got = {key: counters[key] for key in expected}
        _require(got == expected, f"batch counters {got}, pinned {expected}")
        _require(len(report.results) == len(self.tasks), "batch lost results")
        for (request, pin), wire in zip(self.pinned, report.results):
            label = request.label
            _require(isinstance(wire, dict) and bool(wire.get("ok")), f"{label}: not ok")
            _require_solved(
                label, wire["decided"], wire["width"], wire["decompositions"], pin, request
            )


SUPERVISED_QUERIES = ("q_ds", "q_hto", "q_hto2", "q_hto3", "q_hto4", "q_lb", "jl04", "jl08")


class BatchSupervised(Workload):
    name = "batch_supervised"
    why = (
        "eight tasks through the process-per-attempt Supervisor: spawn, re-import and "
        "certification are the whole cost; must not move when query or solver layers change"
    )
    default_rounds = 5
    min_rounds = 5
    scale = 0.3
    counts_children = True

    @property
    def units_per_round(self) -> int:
        return len(self.specs)

    def setup(self, workdir: str) -> None:
        # Workers inherit the environment; no attempt may touch a CTD cache.
        os.environ["REPRO_CTD_CACHE_OFF"] = "1"
        batch_harness.clear_workload_memo()
        offset = self.seed % SEED_VARIANTS
        self.specs, self.widths = [], {}
        for name in SUPERVISED_QUERIES:
            entry = benchmark_query(name)
            self.widths[name] = entry.width
            self.specs += batch_harness.batch_task_specs(
                queries=[name],
                scale=self.scale,
                seed=entry.workload.default_seed + offset,
            )
        self.ops = [("batch", self._run_batch)]

    def _run_batch(self):
        runner = supervisor.Supervisor(
            certifier=batch_harness.BatchCertifier(), max_workers=1
        )
        return runner.run(self.specs)

    def traced_reference(self) -> None:
        for spec in self.specs:
            batch_harness.execute_batch_task(dict(spec, mode="ranked", level="full"))

    def check(self, op: str, report) -> None:
        statuses = [task.status for task in report.results]
        _require(statuses == ["ok"] * len(self.specs), f"task statuses {statuses}")
        for spec, task in zip(self.specs, report.results):
            name = str(spec["query"])
            wire = task.result
            _require(wire["width"] == self.widths[name], f"{name}: width {wire['width']}")
            hypergraph = solve.SolveRequest.from_payload(spec["request"]).hypergraph
            _require_certified(
                name, hypergraph, [wire["decomposition"]], wire["width"], "concov"
            )


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (QueryAggSf10, QueryRowsSf2, SolveCold, BatchDedup, BatchSupervised)
}
