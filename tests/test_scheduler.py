"""Tests for the batch throughput layer (:mod:`repro.runtime.scheduler`).

The scheduler claims *observational identity* with a serial solve loop:
batch-plan results do not depend on the worker count, per-query answers
do not depend on the order queries arrive in, and fan-out only ever
accelerates — a record that does not re-certify degrades to a solve, and a
worker that crashes, hangs or lies degrades to an inline solve.
"""

import io
import json
import multiprocessing
import random

import pytest

from repro.cli import main
from repro.core.certify import certify_ctd, decomposition_from_payload
from repro.core.solve import SolveRequest, constraint_object, execute
from repro.hypergraph.hypergraph import Edge, Hypergraph
from repro.hypergraph.library import cycle_hypergraph
from repro.runtime import scheduler
from repro.runtime.scheduler import BatchSolvePlan, run_plan
from repro.workloads.registry import benchmark_queries


def _batch_tasks():
    def hg(edges):
        return Hypergraph(
            [Edge(name, frozenset(vs)) for name, vs in edges.items()]
        )

    cycle = {"e1": ["a", "b"], "e2": ["b", "c"], "e3": ["c", "d"], "e4": ["d", "a"]}
    twin = {"f1": ["p", "q"], "f2": ["q", "r"], "f3": ["r", "s"], "f4": ["s", "p"]}
    tri = {"t1": ["x", "y"], "t2": ["y", "z"], "t3": ["z", "x"]}
    tasks = []
    for name, shape, mode in (
        ("cycle-1", cycle, "enumerate"),
        ("tri-1", tri, "optimal"),
        ("cycle-2", twin, "enumerate"),
        ("cycle-3", cycle, "enumerate"),
        ("tri-2", tri, "optimal"),
    ):
        request = SolveRequest(
            hypergraph=hg(shape),
            mode=mode,
            width=2,
            constraint="concov",
            limit=2 if mode == "enumerate" else 1,
            label=name,
        )
        tasks.append(
            {"kind": "solve", "query": name, "request": request.to_payload()}
        )
    return tasks


def _strip(wire):
    return {k: v for k, v in wire.items() if k not in ("cache", "mode", "level")}


def _dump(results):
    return json.dumps([_strip(r) for r in results], sort_keys=True, default=str)


def test_batch_results_independent_of_worker_count():
    tasks = _batch_tasks()
    inline = run_plan(BatchSolvePlan.from_tasks(tasks), workers=0, cache=None)
    pooled = run_plan(BatchSolvePlan.from_tasks(tasks), workers=2, cache=None)
    assert _dump(inline.results) == _dump(pooled.results)
    assert pooled.counters["fanout"] == inline.counters["fanout"] > 0


def _relabeled(hypergraph, seed):
    """An isomorphic copy under a seeded vertex/edge renaming."""
    vertices = sorted(hypergraph.vertices, key=str)
    order = list(range(len(vertices)))
    random.Random(seed).shuffle(order)
    mapping = {v: f"u{index:03d}" for v, index in zip(vertices, order)}
    return Hypergraph(
        [
            Edge(f"r{seed}_{edge.name}", frozenset(mapping[v] for v in edge.vertices))
            for edge in sorted(hypergraph.edges, key=lambda e: e.name)
        ]
    )


def test_batch_answers_equal_a_serial_execute_loop():
    """Every paper query as two relabeled copies: the plan answers each one
    as its own ``execute()`` does, reuses solves across copies, and every
    served decomposition certifies against its own query's hypergraph."""
    tasks = []
    for entry in benchmark_queries():
        _, query = entry.load(scale=0.25)
        for variant in range(2):
            request = SolveRequest(
                hypergraph=_relabeled(query.hypergraph(), seed=variant * 101 + 9),
                mode="enumerate",
                width=entry.width,
                constraint="concov",
                limit=1,
            )
            tasks.append(
                {
                    "kind": "solve",
                    "query": f"{entry.name}-v{variant}",
                    "request": request.to_payload(),
                }
            )
    report = run_plan(BatchSolvePlan.from_tasks(tasks), cache=None)
    for task, wire in zip(tasks, report.results):
        request = SolveRequest.from_payload(task["request"])
        solo = execute(request, cache=None)
        assert wire["ok"], task["query"]
        assert wire["decided"] == solo.decided, task["query"]
        assert wire["width"] == solo.width, task["query"]
        assert len(wire["decompositions"]) == len(solo.decompositions), task["query"]
        constraint = constraint_object(
            request.constraint, request.hypergraph, request.width
        )
        for payload in wire["decompositions"]:
            decomposition = decomposition_from_payload(request.hypergraph, payload)
            assert certify_ctd(
                request.hypergraph,
                decomposition,
                constraint=constraint,
                width_claim=request.width,
            ), task["query"]
    assert report.counters["fanout"] > 0
    assert report.counters["solves"] < len(tasks)


def test_batch_answers_independent_of_schedule_order():
    """Reordering the query set must not change any query's answer.

    Representative choice (and therefore the exact witness served to a
    fanned-out member) is input-order dependent by design; the *answers*
    — decided, width, number of certified decompositions — are not.
    """
    tasks = _batch_tasks()
    forward = run_plan(BatchSolvePlan.from_tasks(tasks), cache=None)
    reversed_tasks = list(reversed(tasks))
    backward = run_plan(BatchSolvePlan.from_tasks(reversed_tasks), cache=None)
    by_query_forward = {r["query"]: r for r in forward.results}
    by_query_backward = {r["query"]: r for r in backward.results}
    assert by_query_forward.keys() == by_query_backward.keys()
    for query, fwd in by_query_forward.items():
        bwd = by_query_backward[query]
        assert fwd["decided"] == bwd["decided"], query
        assert fwd["width"] == bwd["width"], query
        assert len(fwd["decompositions"]) == len(bwd["decompositions"]), query


def test_poisoned_record_degrades_to_a_solve(monkeypatch):
    """A representative's canonical record is evidence, never proof: one
    that fails to re-certify is rejected per member and every member gets
    its own fresh solve."""
    tasks = _batch_tasks()
    plan = BatchSolvePlan.from_tasks(tasks)
    # One single-vertex bag covers no edge of a cycle or a triangle.
    poisoned = {"width": 2, "decompositions": [{"bags": [[0]], "parents": [None]}]}
    monkeypatch.setattr(scheduler, "_record_from_result", lambda item, result: poisoned)
    report = run_plan(plan, cache=None)
    assert report.counters["fanout_rejected"] == len(tasks) - len(plan.groups)
    assert report.counters["fanout"] == 0
    assert report.counters["solves"] == len(tasks)
    fresh = []
    for task in tasks:
        result = execute(SolveRequest.from_payload(task["request"]), cache=None)
        assert result.decided
        fresh.append(dict(result.to_payload(), query=task["query"]))
    assert _dump(report.results) == _dump(fresh)


def _three_shape_tasks():
    """:func:`_batch_tasks` plus a 5-cycle group: three groups, six queries."""
    pentagon = Hypergraph(
        [Edge(f"g{i}", frozenset({f"v{i}", f"v{(i + 1) % 5}"})) for i in range(5)]
    )
    request = SolveRequest(
        hypergraph=pentagon, mode="optimal", width=2, constraint="concov", label="penta"
    )
    return _batch_tasks() + [
        {"kind": "solve", "query": "penta", "request": request.to_payload()}
    ]


def test_worker_results_failing_certification_count_once():
    """Every worker attempt lies: each representative is one solve error and
    one (inline) solve, and the answers are the inline plan's."""
    lie = {"*": {"kind": "bad_result"}}
    tasks = [dict(task, faults=lie) for task in _three_shape_tasks()]
    report = run_plan(BatchSolvePlan.from_tasks(tasks), workers=2, cache=None)
    groups = report.counters["groups"]
    assert groups == 3
    assert report.counters["solves"] == groups
    assert report.counters["solve_errors"] == groups
    inline = run_plan(BatchSolvePlan.from_tasks(tasks), workers=0, cache=None)
    assert _dump(report.results) == _dump(inline.results)
    assert multiprocessing.active_children() == []


def test_crashed_and_hung_representative_is_solved_inline():
    """A representative's worker is SIGKILLed on its first attempt and hangs
    past the hard timeout on its retry: the plan still returns, with the
    answers of the inline plan."""
    tasks = _batch_tasks()
    tasks[0] = dict(
        tasks[0],
        faults={"1": {"kind": "sigkill"}, "2": {"kind": "hang", "seconds": 60}},
        hard_timeout=1.0,
    )
    report = run_plan(BatchSolvePlan.from_tasks(tasks), workers=2, cache=None)
    inline = run_plan(BatchSolvePlan.from_tasks(tasks), workers=0, cache=None)
    assert _dump(report.results) == _dump(inline.results)
    assert report.counters["solve_errors"] == 1
    assert report.counters["solves"] == report.counters["groups"] == 2
    assert multiprocessing.active_children() == []


def _plan_item(task):
    (item,) = BatchSolvePlan.from_tasks([task]).items
    return item


def test_worker_reply_at_another_width_is_rejected():
    """A width-2 CTD of C5 certifies at width 2, but it is no answer to a
    width-1 request: the request's width is the claim, not the reply's."""
    c5 = cycle_hypergraph(5)
    narrow = SolveRequest(hypergraph=c5, width=1, label="c5")
    item = _plan_item({"kind": "solve", "query": "c5", "request": narrow.to_payload()})
    wire = execute(SolveRequest(hypergraph=c5, width=2), cache=None).to_payload()
    assert wire["decided"] and wire["width"] == 2
    assert scheduler._certify_worker_result(item, wire) is None
    wide = SolveRequest(hypergraph=c5, width=2, label="c5")
    item = _plan_item({"kind": "solve", "query": "c5", "request": wide.to_payload()})
    assert scheduler._certify_worker_result(item, wire).decided


def test_reply_whose_decomposition_is_not_its_first_entry_is_rejected():
    """``decomposition`` is what the ledger and its readers use, so it must
    be the first certified entry, not a field nobody checked."""
    item = _plan_item(_batch_tasks()[0])
    wire = execute(item.request, cache=None).to_payload()
    first, second = wire["decompositions"]
    assert first != second
    assert scheduler._certify_worker_result(item, wire) is not None
    forged = dict(wire, decomposition=second)
    assert scheduler._certify_worker_result(item, forged) is None


def test_throughput_verb_reports_fanout():
    out = io.StringIO()
    argv = "throughput --queries q_hto --scale 0.3 --repeat 2 --no-cache".split()
    assert main(argv, out=out) == 0, out.getvalue()
    lines = out.getvalue().splitlines()
    summary = dict(line.split(": ", 1) for line in lines if ": " in line)
    assert int(summary["fanout"]) > 0
    assert int(summary["solves"]) == 1


@pytest.mark.parametrize("verb", ["batch", "throughput"])
def test_removed_shards_flag_is_a_usage_error(verb, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([verb, "--queries", "q_hto", "--shards", "2"])
    assert excinfo.value.code == 2
    assert "--shards" in capsys.readouterr().err
