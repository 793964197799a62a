"""Fast checks of the end-to-end benchmark harness itself (no timing claims).

Collected by tier-1 through ``testpaths``; the only program run it makes
is ``run.py --rounds 1 --workload solve_cold``.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import types

import pytest

import bench_trace
import run

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _span(ident, parent, name, start, end, **counts):
    return dict(
        id=ident, parent=parent, name=name, site=name, op="op", round=0,
        start=start, end=end, **counts,
    )


def test_best_of_rounds_arithmetic():
    latencies = {"a": [0.004, 0.001, 0.002], "b": [0.016, 0.064]}
    metrics = run.best_of_rounds(latencies, units_per_round=2)
    assert metrics["latency_geomean_ms"] == pytest.approx(4.0)  # sqrt(1 ms * 16 ms)
    assert metrics["throughput_ops_s"] == pytest.approx(2 / 0.017)
    # A batch is one operation that completes many tasks.
    batch = run.best_of_rounds({"batch": [2.5, 2.0]}, units_per_round=180)
    assert batch["latency_geomean_ms"] == pytest.approx(2000.0)
    assert batch["throughput_ops_s"] == pytest.approx(90.0)
    assert run.geomean([2.0, 8.0]) == pytest.approx(4.0)


def test_summarize_quartiles():
    summary = run.summarize([0.001, 0.002, 0.003, 0.004, 0.005])
    assert summary["min_ms"] == pytest.approx(1.0)
    assert summary["median_ms"] == pytest.approx(3.0)
    assert summary["p25_ms"] < summary["median_ms"] < summary["p75_ms"]
    assert run.summarize([0.002])["p75_ms"] == pytest.approx(2.0)


def test_self_time_and_layer_metrics_on_synthetic_spans():
    spans = [
        _span(0, None, "db.frontdoor.run_query", 0.0, 1.0),
        _span(1, 0, "core.solve.execute", 0.1, 0.5),
        _span(2, 1, "core.solve.execute", 0.2, 0.4),  # soft-width recursion
        _span(3, 2, "core.cache.get", 0.25, 0.35, hit=1),
        _span(4, 1, "core.cache.get", 0.41, 0.45, hit=0),
        _span(5, 0, "db.relation.semijoin", 0.6, 0.9, rows_in=100, rows_out=25),
    ]
    own = bench_trace.self_times(spans)
    assert own[0] == pytest.approx(1.0 - 0.4 - 0.3)
    assert own[1] == pytest.approx(0.4 - 0.2 - 0.04)
    assert own[2] == pytest.approx(0.2 - 0.1)
    assert sum(own.values()) == pytest.approx(1.0)  # self times partition the root

    metrics = bench_trace.layer_metrics(spans)
    assert metrics["db.frontdoor.self_ms"] == pytest.approx(300.0)
    assert metrics["core.solve.self_ms"] == pytest.approx(260.0)
    assert metrics["core.cache.get_ms"] == pytest.approx(140.0)
    assert metrics["core.cache.hit_ratio"] == pytest.approx(0.5)
    assert metrics["db.relation.semijoin_kept_ratio"] == pytest.approx(0.25)
    assert metrics["hypergraph.canonical.calls"] == 0.0
    assert set(metrics) == set(bench_trace.SPAN_METRICS) | set(bench_trace.DERIVED_METRICS)


def test_tracer_records_nesting_counts_and_coverage():
    fake = types.ModuleType("_e2e_fake_layer")
    fake.inner = lambda rows: rows[:1]
    fake.outer = lambda rows: fake.inner(rows)
    sys.modules[fake.__name__] = fake
    original_inner, original_outer = fake.inner, fake.outer
    table = (
        bench_trace.TraceEntry(fake.__name__, "outer", "layer.outer", ("w",)),
        bench_trace.TraceEntry(
            fake.__name__, "inner", "layer.inner", ("w",),
            lambda args, kwargs, result: {"rows_out": len(result)},
        ),
    )
    ticks = iter(range(100))
    tracer = bench_trace.Tracer(table, clock=lambda: float(next(ticks)))
    try:
        tracer.install()
        with pytest.raises(RuntimeError):
            tracer.install()
        tracer.op = "op-1"
        assert fake.outer([1, 2, 3]) == [1]
        tracer.uninstall()
    finally:
        del sys.modules[fake.__name__]
    assert fake.inner is original_inner and fake.outer is original_outer
    outer, inner = tracer.spans
    assert (outer["name"], outer["parent"], outer["op"]) == ("layer.outer", None, "op-1")
    assert (inner["name"], inner["parent"], inner["rows_out"]) == ("layer.inner", outer["id"], 1)
    assert (outer["start"], inner["start"], inner["end"], outer["end"]) == (0.0, 1.0, 2.0, 3.0)
    assert tracer.uncovered("w") == []
    # Entries that promised spans on a workload and recorded none are reported.
    assert bench_trace.Tracer(table).uncovered("w") == [
        f"{fake.__name__}.outer",
        f"{fake.__name__}.inner",
    ]
    assert bench_trace.Tracer(table).uncovered("other") == []


def test_trace_table_patches_and_restores_every_binding():
    tracer = bench_trace.Tracer()
    before = [
        vars(bench_trace._owner(entry.namespace))[entry.attribute]
        for entry in tracer.table
    ]
    tracer.install()
    try:
        during = [
            vars(bench_trace._owner(entry.namespace))[entry.attribute]
            for entry in tracer.table
        ]
    finally:
        tracer.uninstall()
    after = [
        vars(bench_trace._owner(entry.namespace))[entry.attribute]
        for entry in tracer.table
    ]
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, after))
    sites = [entry.site for entry in tracer.table]
    assert len(sites) == len(set(sites))
    known = set(run.WORKLOAD_NAMES)
    assert all(set(entry.workloads) <= known for entry in tracer.table)


def test_benchmark_json_matches_the_harness_registry():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [row["name"] for row in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {row["name"]: row["unit"] for row in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert all(0 < row["bound"] <= 0.25 for row in spec["end_to_end"])
    assert {row["name"]: row["unit"] for row in spec["per_layer"]} == {
        metric: run.layer_unit(metric) for metric in run.LAYER_METRICS
    }
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer") for row in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(name) for name in names)
    assert all(len(row["why"]) <= 200 and "\n" not in row["why"] for row in spec["workloads"])


def test_one_round_of_solve_cold_runs_clean(tmp_path):
    out = tmp_path / "solve_cold.json"
    trace = tmp_path / "spans.jsonl"
    done = subprocess.run(
        [
            sys.executable, os.path.join(run.HERE, "run.py"),
            "--workload", "solve_cold", "--rounds", "1",
            "--out", str(out), "--trace-out", str(trace),
        ],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 10
    assert set(line["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(cell["value"] > 0 and math.isfinite(cell["value"]) for cell in line["metrics"].values())

    result = json.loads(out.read_text())
    assert result["rounds"] == 1 and result["claim"] is None
    assert set(result["per_layer"]) == set(run.LAYER_METRICS)
    layers = {metric: cell["value"] for metric, cell in result["per_layer"].items()}
    assert layers["core.candidate_bags.bags"] > 0 and layers["core.solve.self_ms"] > 0
    assert layers["db.yannakakis.plan_calls"] == 0  # no db.* layer on solve_cold
    spans = [json.loads(row) for row in trace.read_text().splitlines()]
    assert spans and all(span["end_ms"] >= span["start_ms"] for span in spans)
    assert not os.path.exists(run.WORK_ROOT) or not os.listdir(run.WORK_ROOT)


def _sleep_forever():
    import time

    time.sleep(600)


def test_stop_children_reaps_workers_and_resource_tracker():
    import multiprocessing
    from multiprocessing import resource_tracker

    # What the Supervisor's spawn context starts: a worker and the tracker.
    worker = multiprocessing.get_context("spawn").Process(target=_sleep_forever)
    worker.start()
    tracker = resource_tracker._resource_tracker
    assert tracker._pid is not None
    run.stop_children()
    assert not worker.is_alive() and multiprocessing.active_children() == []
    assert tracker._pid is None and tracker._fd is None
    run.stop_children()  # nothing left to stop: a no-op
