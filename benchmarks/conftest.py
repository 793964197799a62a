"""Shared helpers for the paper figure/table targets.

Every target regenerates one table or figure of the paper (see the
experiment index in docs/ARCHITECTURE.md, § "Experiments & benchmarks"),
prints the reproduced rows/series and also writes them to
``benchmarks/results/`` so they can be inspected after a run.

``benchmark.pedantic(..., rounds=1, iterations=1)`` is used throughout: the
quantities of interest are the *relative* numbers inside each figure (which
decomposition wins, by what factor, how cost correlates with measured
effort), not the wall-clock time of regenerating the figure itself;
wall-clock is measured by the end-to-end benchmark in ``benchmarks/e2e/``.
"""

from __future__ import annotations

import os

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Data scale used by the benchmark targets, overridable with the
#: ``BENCH_SCALE`` environment variable (e.g. ``BENCH_SCALE=4`` to run the
#: paper figures at a larger scale factor).  The default 1.0 keeps every
#: single decomposition-guided execution sub-second while leaving a visible
#: gap to the baseline executions; all four datasets generate at scale 10 in
#: a fraction of a second (see ``repro.workloads.registry``).
BENCH_SCALE = float(os.environ.get("BENCH_SCALE", "1.0"))


def write_result(name: str, text: str) -> str:
    """Persist a rendered figure/table under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    return path
