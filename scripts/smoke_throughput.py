"""End-to-end smoke test of the batch throughput layer (used by CI).

The scheduler's whole pitch — answer a duplicate-heavy query set faster
*without* weakening certification — checked against real solver runs:

1. a small workload query set (each benchmark query repeated) answered by
   the batch scheduler at ``--workers 2`` is identical to a
   serial one-``execute()``-per-query loop, and every served
   decomposition independently re-certifies against its own query's
   hypergraph,
2. the run exhibits actual reuse: fewer representative solves than
   queries and a nonzero certified fan-out count; a second plan over the
   same set hits the in-process hot memo,
3. the ``repro throughput`` CLI verb runs the same configuration and
   exits 0.
"""

import json
import sys

from repro.cli import main as cli_main
from repro.core.certify import certify_ctd, decomposition_from_payload
from repro.core.solve import SolveRequest, constraint_object
from repro.experiments.harness import batch_task_specs, execute_batch_task
from repro.runtime.scheduler import (
    BatchSolvePlan,
    HotMemo,
    run_plan,
    shutdown_pools,
)

QUERIES = ["q_hto", "q_hto2"]
SCALE = 0.3
REPEAT = 2


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def query_tasks():
    specs = batch_task_specs(queries=QUERIES, scale=SCALE)
    return [dict(task) for _ in range(REPEAT) for task in specs]


def check_parallel_matches_serial(tasks):
    serial = [execute_batch_task(dict(task, cache_off=True)) for task in tasks]
    try:
        report = run_plan(BatchSolvePlan.from_tasks(tasks), workers=2, cache=None)
    finally:
        shutdown_pools()
    for task, solo, wire in zip(tasks, serial, report.results):
        query = task["query"]
        if not (isinstance(wire, dict) and wire.get("ok")):
            fail(f"batch result for {query} is not ok: {wire!r}")
        if wire["decided"] != solo["decided"] or wire["width"] != solo["width"]:
            fail(f"batch answer for {query} differs from the serial loop")
        if len(wire["decompositions"]) != len(solo["decompositions"]):
            fail(f"batch decomposition count for {query} differs from serial")
        # "Certified" is not a claim, it is a check: re-certify every served
        # decomposition against this query's own hypergraph here.
        request = SolveRequest.from_payload(task["request"])
        constraint = constraint_object(
            request.constraint, request.hypergraph, request.width
        )
        for payload in wire["decompositions"]:
            ctd = decomposition_from_payload(request.hypergraph, payload)
            cert = certify_ctd(
                request.hypergraph,
                ctd,
                constraint=constraint,
                width_claim=request.width,
            )
            if not cert:
                fail(f"served decomposition for {query} failed certification: "
                     f"{cert.describe()}")
    counters = report.counters
    if counters["fanout"] == 0:
        fail(f"no certified fan-out happened: {counters}")
    if counters["solves"] >= len(tasks):
        fail(f"no representative reuse: {counters['solves']} solves "
             f"for {len(tasks)} queries")
    print(
        f"parallel == serial: {len(tasks)} queries, "
        f"{counters['solves']} solves, {counters['fanout']} fan-outs, "
        "every served decomposition independently re-certified"
    )
    return report


def check_hot_memo(tasks, first_report):
    memo = HotMemo()
    warm = run_plan(BatchSolvePlan.from_tasks(tasks), cache=None, memo=memo)
    replay = run_plan(BatchSolvePlan.from_tasks(tasks), cache=None, memo=memo)
    if replay.counters["memo_hits"] == 0:
        fail(f"replayed plan missed the hot memo: {replay.counters}")

    def strip(wire):
        return {k: v for k, v in wire.items() if k not in ("cache", "mode", "level")}

    for label, report in (("warm", warm), ("replay", replay)):
        a = json.dumps([strip(r) for r in report.results], sort_keys=True,
                       default=str)
        b = json.dumps([strip(r) for r in first_report.results], sort_keys=True,
                       default=str)
        if a != b:
            fail(f"{label} plan answers differ from the pooled run")
    print(
        f"hot memo: replay served {replay.counters['memo_hits']} memo hits, "
        "answers byte-identical to the pooled run"
    )


def check_cli():
    code = cli_main(
        [
            "throughput",
            "--queries",
            *QUERIES,
            "--scale",
            str(SCALE),
            "--repeat",
            str(REPEAT),
            "--workers",
            "2",
            "--no-cache",
        ]
    )
    shutdown_pools()
    if code != 0:
        fail(f"repro throughput exited {code}, expected 0")
    print("CLI: repro throughput --workers 2 exits 0")


def main() -> None:
    tasks = query_tasks()
    report = check_parallel_matches_serial(tasks)
    check_hot_memo(tasks, report)
    check_cli()
    print("OK: throughput smoke passed")


if __name__ == "__main__":
    main()
