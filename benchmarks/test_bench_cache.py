"""Decomposition-cache benchmark — what a canonical-form hit saves.

Times the ConCov-constrained ranked enumeration of several random cyclic
query hypergraphs twice through the solve front door:

* **cold** — ``execute`` with caching disabled: candidate-bag generation
  plus the full solver fixpoint;
* **hit** — ``execute`` against a warmed ``DecompositionCache``:
  canonicalise, read the entry, map the bags through the caller's
  permutation, re-certify.

The gate is on the geometric mean of the per-case ``cold / hit`` ratios
(``BENCH_CACHE_MIN_SPEEDUP``, default 5.0 — CI relaxes it, see
``.github/workflows/ci.yml``): a hit must beat the solve by a wide margin
even though every hit pays full re-certification.  A second gate bounds
the canonicalisation overhead (``BENCH_CACHE_MAX_CANONICAL_FRACTION`` of
the cold solve, default 0.2): the fingerprint must stay a rounding error
next to the work it saves, otherwise consulting the cache would tax every
*miss* noticeably.  Isomorphism invariance is exercised on the way: each
hit is requested through a *relabeled* copy of the solved hypergraph.
The measured numbers land in ``BENCH_cache.json``.
"""

from __future__ import annotations

import json
import os
import platform
import time

from conftest import RESULTS_DIR, best_of as _best_of, geomean as _geomean

from repro.core.cache import DecompositionCache
from repro.core.solve import SolveRequest, execute
from repro.hypergraph.canonical import canonical_form
from repro.hypergraph.generators import random_cyclic_query_hypergraph
from repro.hypergraph.hypergraph import Hypergraph

#: (cycle length, chords, seed, soft width) — decidable instances whose
#: cold enumeration ranges from tens of milliseconds to just under a
#: second, so the suite stays fast while the ratios are well away from
#: timer noise.
CASES = [
    (6, 2, 0, 3),
    (7, 2, 1, 4),
    (8, 2, 3, 4),
]
HIT_REPEATS = 3


def _relabeled(hypergraph: Hypergraph) -> Hypergraph:
    """An isomorphic copy under fresh vertex and edge names."""
    rename = {
        vertex: f"x{i}"
        for i, vertex in enumerate(sorted(hypergraph.vertices, key=str))
    }
    return Hypergraph(
        {
            f"re_{edge.name}": sorted(rename[v] for v in edge.vertices)
            for edge in hypergraph.edges
        }
    )


def _request(hypergraph: Hypergraph, width: int) -> SolveRequest:
    return SolveRequest(
        hypergraph=hypergraph,
        mode="enumerate",
        width=width,
        constraint="concov",
        preference="nodecount",
        limit=5,
    )


def test_cache_hit_speedup(tmp_path):
    store = DecompositionCache(str(tmp_path / "ctd-cache"))
    cases = []
    for cycle, chords, seed, width in CASES:
        hypergraph = random_cyclic_query_hypergraph(cycle, chords, seed=seed)
        request = _request(hypergraph, width)

        started = time.perf_counter()
        cold = execute(request, cache=None)
        cold_s = time.perf_counter() - started
        assert cold.decided, (cycle, chords, seed, width)

        canonical_s = _best_of(lambda: canonical_form(hypergraph), repeats=3)

        warm = execute(request, cache=store)
        assert warm.cache_status == "stored"

        # Hits go through a *relabeled* copy: the benchmark exercises the
        # canonical fingerprint + permutation mapping, not dict equality.
        relabeled_request = _request(_relabeled(hypergraph), width)

        def _hit():
            result = execute(relabeled_request, cache=store)
            assert result.cache_status == "hit", result.cache_status
            assert result.decided and result.width == width

        hit_s = _best_of(_hit, repeats=HIT_REPEATS)
        cases.append(
            {
                "case": f"cyclic({cycle},{chords},seed={seed})@k={width}",
                "vertices": len(hypergraph.vertices),
                "edges": hypergraph.num_edges(),
                "cold_s": cold_s,
                "hit_s": hit_s,
                "canonical_s": canonical_s,
                "speedup": cold_s / hit_s,
                "canonical_fraction": canonical_s / cold_s,
            }
        )
    assert store.stats.rejected == 0 and store.stats.quarantined == 0

    speedup = _geomean([case["speedup"] for case in cases])
    canonical_fraction = max(case["canonical_fraction"] for case in cases)
    for case in cases:
        print(
            f"{case['case']}: cold {case['cold_s']:.3f} s, "
            f"hit {case['hit_s']:.4f} s ({case['speedup']:.1f}x), "
            f"canonicalise {case['canonical_s'] * 1000:.2f} ms"
        )
    print(
        f"geomean hit speedup {speedup:.1f}x, "
        f"worst canonicalisation fraction {canonical_fraction:.4f}"
    )

    payload = {
        "benchmark": "ctd-cache-hit",
        "python": platform.python_version(),
        "hit_repeats": HIT_REPEATS,
        "cases": cases,
        "geomean_speedup": speedup,
        "max_canonical_fraction": canonical_fraction,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(
        os.path.join(RESULTS_DIR, "BENCH_cache.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(payload, handle, indent=2)

    minimum = float(os.environ.get("BENCH_CACHE_MIN_SPEEDUP", "5.0"))
    assert speedup >= minimum, payload
    fraction_cap = float(
        os.environ.get("BENCH_CACHE_MAX_CANONICAL_FRACTION", "0.2")
    )
    assert canonical_fraction <= fraction_cap, payload


def test_default_cache_writes_nothing_from_benchmark_modules(tmp_path, monkeypatch):
    """The suite's hermetic CTD-cache fixture covers ``benchmarks/`` too.

    A solve through the default cache (``"auto"``) from a benchmark module
    must leave the working directory untouched instead of filling a shared
    ``workloads/.ctd-cache`` with entries from every run.
    """
    monkeypatch.chdir(tmp_path)
    cycle, chords, seed, width = CASES[0]
    hypergraph = random_cyclic_query_hypergraph(cycle, chords, seed=seed)
    result = execute(_request(hypergraph, width))
    assert result.decided
    assert list(tmp_path.iterdir()) == []
