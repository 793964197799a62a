"""Shared helpers for the benchmark targets.

Every benchmark regenerates one table or figure of the paper (see the
per-experiment index in DESIGN.md), prints the reproduced rows/series and
also writes them to ``benchmarks/results/`` so they can be inspected after a
``pytest benchmarks/ --benchmark-only`` run.

``benchmark.pedantic(..., rounds=1, iterations=1)`` is used throughout: the
quantities of interest are the *relative* numbers inside each figure (which
decomposition wins, by what factor, how cost correlates with measured
effort), not the wall-clock time of regenerating the figure itself.
"""

from __future__ import annotations

import math
import os
import time

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Data scale used by the benchmark targets, overridable with the
#: ``BENCH_SCALE`` environment variable (e.g. ``BENCH_SCALE=4`` to run the
#: paper figures at a larger scale factor).  The default 1.0 keeps every
#: single decomposition-guided execution sub-second while leaving a visible
#: gap to the baseline executions; all four datasets generate at scale 10 in
#: a fraction of a second (see ``repro.workloads.registry``).
BENCH_SCALE = float(os.environ.get("BENCH_SCALE", "1.0"))

#: How the slow reference side of the speedup suites is timed.  ``full``
#: (the default) times the reference on every instance; ``sample`` times
#: it only on a deterministic subset (even instance indices) and the
#: suite geomean extrapolates from the sampled rows — the production side
#: is still timed and self-checked on *every* instance either way, so
#: sample mode trades reference coverage for wall-clock, not correctness
#: coverage of the production code.  Each ``BENCH_*.json`` records the
#: mode it was produced under (``reference_mode`` in the payload,
#: ``sampled`` per row), so trajectories across runs compare like with
#: like.
BENCH_REFERENCE_MODE = os.environ.get("BENCH_REFERENCE_MODE", "full").strip().lower()
if BENCH_REFERENCE_MODE not in ("full", "sample"):
    raise ValueError(
        f"BENCH_REFERENCE_MODE={BENCH_REFERENCE_MODE!r}: expected 'full' or 'sample'"
    )


def reference_sampled(index: int) -> bool:
    """Whether instance ``index`` times its slow reference this run."""
    return BENCH_REFERENCE_MODE == "full" or index % 2 == 0


def write_result(name: str, text: str) -> str:
    """Persist a rendered figure/table under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    return path


def best_of(callable_, repeats: int) -> float:
    """Best wall-clock time of ``repeats`` runs (shared by the speedup benches)."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def geomean(values):
    """Geometric mean of the positive values (``None`` if there are none)."""
    values = [v for v in values if v > 0]
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else None


@pytest.fixture
def bench_scale() -> float:
    return BENCH_SCALE
