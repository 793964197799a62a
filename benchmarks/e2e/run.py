"""The repo's end-to-end benchmark: five workloads, best-of-rounds metrics.

    PYTHONPATH=src python benchmarks/e2e/run.py            # every workload
    python3 benchmarks/e2e/run.py --workload solve_cold --seed 3 --seconds 10 --trace 0

Each workload runs in a process of its own (this script re-executes
itself with ``PYTHONHASHSEED=0``): set-up, a closed loop of rounds with
one client, then — unless ``--trace 0`` — two more rounds with the layer
tracer installed.  Rounds go round-robin over the workload's operations
and ``gc.collect()`` runs between them, so a slow spell of the machine
hits every operation alike; each operation's *best* latency over the
rounds feeds the gating metrics (medians drift with machine speed on a
shared box, minima do not — see README.md).  Every output is checked
outside the timed interval.  The last line printed for a single workload
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import time

_PROCESS_STARTED = time.perf_counter()

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(HERE, ".work")
RESULTS_DIR = os.path.join(ROOT, "benchmarks", "results")

sys.path.insert(0, SRC)

import bench_trace

WORKLOAD_NAMES = (
    "query_agg_sf10",
    "query_rows_sf2",
    "solve_cold",
    "batch_dedup",
    "batch_supervised",
)

#: End-to-end metric -> unit.  ``failed_share`` is reported beside them
#: (and as ``attempted``/``failed`` on the result line) because it is 0.
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_geomean_ms": "ms",
    "throughput_ops_s": "ops/s",
    "peak_rss_mb": "MiB",
}

#: Layer metrics measured by plain timers in set-up or around the run.
UNTRACED_LAYER_METRICS = (
    "db.executor.baseline_ms",
    "db.executor.baseline_work",
    "workloads.registry.load_ms",
    "workloads.registry.rows",
    "bench.trace_overhead",
    "bench.calibration_ms",
)

LAYER_METRICS = (
    tuple(bench_trace.SPAN_METRICS) + bench_trace.DERIVED_METRICS + UNTRACED_LAYER_METRICS
)

#: Set-ups per run; a third would cost a tenth of the driver's time budget.
SETUP_REPEATS = 2
TRACED_ROUNDS = 2


def layer_unit(metric: str) -> str:
    if metric.endswith(("_ms", ".ms")):
        return "ms"
    if metric.endswith(("ratio", "overhead")):
        return "ratio"
    return "count"


# -- arithmetic ---------------------------------------------------------------


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """min / p25 / median / p75 of one operation's latencies, in ms."""
    if len(samples) > 1:
        p25, median, p75 = statistics.quantiles(samples, n=4)
    else:
        p25 = median = p75 = samples[0]
    return {
        "min_ms": min(samples) * 1e3,
        "p25_ms": p25 * 1e3,
        "median_ms": median * 1e3,
        "p75_ms": p75 * 1e3,
        "samples": len(samples),
    }


def best_of_rounds(latencies: Dict[str, Sequence[float]], units_per_round: int) -> Dict[str, float]:
    """The two latency-derived end-to-end metrics from per-op samples.

    The geomean weighs every operation alike; the throughput is what a
    quiet machine would sustain in a closed loop, so heavy operations
    dominate it.  A batch workload has one operation (the batch) and
    ``units_per_round`` tasks in it.
    """
    best = [min(samples) for samples in latencies.values()]
    return {
        "latency_geomean_ms": geomean(best) * 1e3,
        "throughput_ops_s": units_per_round / sum(best),
    }


def calibrate() -> float:
    """Best of three runs of a fixed numpy + interpreter loop, in ms.

    Not a metric of the program: it moves only when the machine does, so
    it dates a run against drift.
    """
    import numpy as np

    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        values = np.arange(200_000, dtype=np.int64)
        for _ in range(5):
            values = np.sort((values * 7919) % 200_003)
        total = 0
        for index in range(100_000):
            total += index & 7
        best = min(best, time.perf_counter() - started)
    return best * 1e3


# -- isolation ----------------------------------------------------------------


def isolate_environment(workdir: str) -> None:
    """Point every default cache and temp dir of the program into ``workdir``."""
    os.environ["REPRO_WORKLOAD_SNAPSHOTS_OFF"] = "1"
    os.environ["REPRO_CTD_CACHE"] = os.path.join(workdir, "ctd-default")
    os.environ.pop("REPRO_CTD_CACHE_OFF", None)
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = None


def git_output(*arguments: str) -> Optional[str]:
    """Output of a git command on the repo; ``None`` outside a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, *arguments], capture_output=True, text=True, timeout=120
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout


def tree_state() -> Dict[str, object]:
    """What a run must leave untouched: the work tree, default caches, /dev/shm."""
    state: Dict[str, object] = {"git": git_output("status", "--porcelain")}
    for directory in (os.path.join("workloads", ".cache"), os.path.join("workloads", ".ctd-cache")):
        state[directory] = sorted(os.listdir(directory)) if os.path.isdir(directory) else None
    if os.path.isdir("/dev/shm"):
        state["/dev/shm"] = sorted(
            name for name in os.listdir("/dev/shm") if name.startswith("repro-shm-")
        )
    return state


def stop_children() -> None:
    """Kill and reap every process ``multiprocessing`` started in this one.

    The Supervisor joins its workers, but its spawn context also starts a
    resource tracker that only ends once this process has gone; nothing
    the run started may outlive it, so the tracker is stopped and waited
    for here.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    resource_tracker._resource_tracker._stop()


def peak_rss_mb(with_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        # One worker runs at a time beside the parent.
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


# -- measurement --------------------------------------------------------------


class Tally:
    """Every checked operation of the process, and what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []


def run_round(workload, tally: Tally, tracer=None) -> Dict[str, float]:
    """One round-robin pass over the operations; returns op -> seconds."""
    gc.collect()
    elapsed: Dict[str, float] = {}
    for name, operation in workload.ops:
        tally.attempted += 1
        if tracer is not None:
            tracer.op = name
        started = time.perf_counter()
        try:
            output = operation()
        except Exception as exc:  # the run goes on; the failure is counted
            failure = f"{name}: raised {exc!r}"
        else:
            elapsed[name] = time.perf_counter() - started
            failure = None
        if tracer is not None:
            tracer.op = None
        if failure is None:
            failure = workload.failure(name, output)
        if failure is not None:
            tally.failures.append(failure)
    return elapsed


def set_up(workload_class, seed: int, workdir: str, repeats: int, tally: Tally):
    """Build the workload ``repeats`` times; returns the last and each time."""
    times = []
    workload = None
    for _ in range(repeats):
        started = time.perf_counter()
        workload = workload_class(seed)
        workload.setup(workdir)
        run_round(workload, tally)  # untimed warm-up round
        times.append(time.perf_counter() - started)
    return workload, times


def timed_rounds(workload, rounds: Optional[int], seconds: float, tally: Tally):
    """Closed loop, one client: ``rounds`` rounds, or rounds for ``seconds``."""
    latencies: Dict[str, List[float]] = {name: [] for name, _ in workload.ops}
    totals: List[float] = []
    started = time.perf_counter()

    def done() -> bool:
        if rounds is not None:
            return len(totals) >= rounds
        return len(totals) >= workload.min_rounds and time.perf_counter() - started >= seconds

    while not done():
        elapsed = run_round(workload, tally)
        for name, value in elapsed.items():
            latencies[name].append(value)
        totals.append(sum(elapsed.values()))
    return latencies, totals


def traced_rounds(workload, tally: Tally, trace_out: Optional[str]):
    """``TRACED_ROUNDS`` more rounds under the tracer; metrics of the better one."""
    tracer = bench_trace.Tracer()
    totals = []
    tracer.install()
    try:
        for index in range(TRACED_ROUNDS):
            tracer.round = index
            totals.append(sum(run_round(workload, tally, tracer).values()))
            tracer.op = "reference"
            workload.traced_reference()
            tracer.op = None
    finally:
        tracer.uninstall()
    missing = tracer.uncovered(workload.name)
    if missing:
        tally.failures.append(f"tracer recorded no span at {missing}")
    best = min(range(TRACED_ROUNDS), key=totals.__getitem__)
    spans = [span for span in tracer.spans if span["round"] == best]
    per_op = {}
    for name, _ in workload.ops:
        layers = bench_trace.layer_metrics([span for span in spans if span["op"] == name])
        per_op[name] = {metric: value for metric, value in layers.items() if value}
    if trace_out:
        os.makedirs(os.path.dirname(os.path.abspath(trace_out)), exist_ok=True)
        tracer.write_jsonl(trace_out)
    return bench_trace.layer_metrics(spans), totals[best], per_op


def measure(name: str, args, workdir: str) -> Dict[str, object]:
    import bench_workloads
    import numpy

    import_s = time.perf_counter() - _PROCESS_STARTED
    workload_class = bench_workloads.WORKLOADS[name]
    traced = args.trace != 0
    driver_traced = args.trace == 1

    if args.rounds is not None:
        rounds, seconds = args.rounds, 0.0
    elif args.seconds is not None:
        # A traced driver run splits its time between the two passes.
        rounds, seconds = None, args.seconds / 2 if driver_traced else args.seconds
    else:
        rounds, seconds = workload_class.default_rounds, 0.0
    repeats = 1 if driver_traced else min(SETUP_REPEATS, rounds or SETUP_REPEATS)

    tally = Tally()
    workload, setup_times = set_up(workload_class, args.seed, workdir, repeats, tally)
    # The harness's own heap (datasets, expected answers, imports) must not be
    # re-traversed by every collection the program triggers: with it, cyclic
    # GC cost a quarter of solve_cold and tripled its run-to-run spread.
    gc.collect()
    gc.freeze()
    calibration_before = calibrate()
    latencies, totals = timed_rounds(workload, rounds, seconds, tally)
    rss = peak_rss_mb(workload.counts_children)
    calibration_after = calibrate()

    unmeasured = [op for op, samples in latencies.items() if not samples]
    if unmeasured:
        raise SystemExit(
            f"{name}: no successful run of {unmeasured}: {tally.failures[:5]}"
        )

    end_to_end = {
        "setup_s": import_s + statistics.median(setup_times),
        **best_of_rounds(latencies, workload.units_per_round),
        "peak_rss_mb": rss,
    }
    per_layer: Dict[str, float] = {}
    per_op_layers: Dict[str, Dict[str, float]] = {}
    if traced:
        per_layer, traced_best, per_op_layers = traced_rounds(workload, tally, args.trace_out)
        per_layer.update({metric: 0.0 for metric in UNTRACED_LAYER_METRICS})
        per_layer.update(workload.setup_layers)
        per_layer["bench.trace_overhead"] = traced_best / min(totals)
        per_layer["bench.calibration_ms"] = (calibration_before + calibration_after) / 2

    return {
        "workload": name,
        "why": workload.why,
        "seed": args.seed,
        "scale": workload.scale,
        "rounds": len(totals),
        "setup_repeats": repeats,
        "traced_rounds": TRACED_ROUNDS if traced else 0,
        "claim": None,
        "end_to_end": {
            metric: {"value": end_to_end[metric], "unit": unit}
            for metric, unit in END_TO_END_UNITS.items()
        },
        "failed_share": len(tally.failures) / tally.attempted,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "failures": tally.failures[:20],
        "per_layer": {
            metric: {"value": per_layer[metric], "unit": layer_unit(metric)}
            for metric in LAYER_METRICS
            if metric in per_layer
        },
        "ops": {
            op: {**summarize(samples), **workload.op_notes.get(op, {}), "layers": per_op_layers.get(op, {})}
            for op, samples in latencies.items()
        },
        "import_s": import_s,
        "setup_times_s": setup_times,
        "calibration_ms": {"before": calibration_before, "after": calibration_after},
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "git_commit": (git_output("rev-parse", "HEAD") or "").strip() or None,
        },
    }


# -- reporting ----------------------------------------------------------------


def print_report(result: Dict[str, object]) -> None:
    print(
        f"== {result['workload']}  seed={result['seed']} scale={result['scale']} "
        f"rounds={result['rounds']} =="
    )
    for metric, cell in result["end_to_end"].items():
        print(f"  {metric:<28} {cell['value']:>14.4f} {cell['unit']}")
    print(
        f"  {'failed_share':<28} {result['failed_share']:>14.4f} ratio "
        f"({result['failed']} of {result['attempted']})"
    )
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    if result["per_layer"]:
        print("  -- per layer: better traced round, *_ms is self time --")
        for metric, cell in result["per_layer"].items():
            print(f"  {metric:<36} {cell['value']:>14.4f} {cell['unit']}")


def result_line(result: Dict[str, object], layers: bool) -> str:
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["per_layer"] if layers else result["end_to_end"],
        }
    )


def write_json(path: str, payload: object) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


# -- entry points -------------------------------------------------------------


def run_one(args) -> int:
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    before = tree_state()
    try:
        isolate_environment(workdir)
        result = measure(args.workload, args, workdir)
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    if tree_state() != before:
        result["failures"].append("the run changed the work tree, a default cache or /dev/shm")
        result["failed"] += 1
    write_json(args.out or os.path.join(RESULTS_DIR, f"e2e_{args.workload}.json"), result)
    print_report(result)
    print(result_line(result, layers=args.trace == 1))
    return 0 if result["failed"] == 0 else 1


def run_all(args) -> int:
    """Every workload, each in a fresh process; one merged results file."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    results = []
    status = 0
    with tempfile.TemporaryDirectory(prefix="all-", dir=WORK_ROOT) as scratch:
        for name in WORKLOAD_NAMES:
            out = os.path.join(scratch, f"{name}.json")
            command = [sys.executable, os.path.abspath(__file__), "--workload", name]
            command += ["--seed", str(args.seed), "--out", out]
            for flag, value in (("--rounds", args.rounds), ("--seconds", args.seconds), ("--trace", args.trace)):
                if value is not None:
                    command += [flag, str(value)]
            if args.trace_out:
                base, extension = os.path.splitext(args.trace_out)
                command += ["--trace-out", f"{base}.{name}{extension}"]
            status |= subprocess.run(command).returncode
            if os.path.exists(out):
                with open(out, encoding="utf-8") as handle:
                    results.append(json.load(handle))
    if not os.listdir(WORK_ROOT):
        os.rmdir(WORK_ROOT)
    print("== end to end, all workloads ==")
    for result in results:
        cells = "  ".join(
            f"{metric}={cell['value']:.4f} {cell['unit']}"
            for metric, cell in result["end_to_end"].items()
        )
        print(f"  {result['workload']:<18} R={result['rounds']:<3} {cells}  failed_share={result['failed_share']:.4f}")
    write_json(args.out or os.path.join(RESULTS_DIR, "e2e.json"), {"claim": None, "workloads": results})
    return 0 if status == 0 and len(results) == len(WORKLOAD_NAMES) else 1


def parse_args(argv: Optional[Sequence[str]] = None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0, help="drives dataset seeds, relabelling and task order")
    parser.add_argument("--rounds", type=int, help="timed rounds (default: the workload's own count)")
    parser.add_argument("--out", help="results file (default: benchmarks/results/e2e[_WORKLOAD].json)")
    parser.add_argument("--trace-out", help="write the traced rounds' spans here as JSONL")
    parser.add_argument("--regen-goldens", action="store_true", help="recompute goldens.json with the baseline")
    # The benchmark driver's contract:
    parser.add_argument("--seconds", type=float, help="measure for this long instead of a fixed round count")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="0: untraced only, result line carries end-to-end metrics; 1: result line carries layer metrics",
    )
    args = parser.parse_args(argv)
    if args.rounds is not None and args.rounds < 1:
        parser.error("--rounds must be at least 1")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Hash order must not differ between runs; re-execute with it fixed.
        environment = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(
            sys.executable,
            [sys.executable, os.path.abspath(__file__), *(sys.argv[1:] if argv is None else argv)],
            environment,
        )
    # A terminated run unwinds like a failed one, so its children are reaped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.regen_goldens:
        import bench_workloads

        bench_workloads.regenerate_goldens()
        return 0
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
