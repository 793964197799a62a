"""Constrained-solver benchmark — Algorithm 2 vs the round-robin seed.

Times the top-down ``ConstrainedCTDSolver`` (blocks resolved on demand from
the root, fragment-memoised, monotone key composition) against the
preserved seed dynamic program
:func:`repro.core.reference.reference_constrained_ctd`, which rebuilds a full
``TreeDecomposition`` and re-runs ``constraint.holds_recursively`` for every
(block × candidate) probe in every round.  Every comparison also asserts the
same feasibility decision and the same optimal preference key, so this
doubles as an end-to-end equivalence check on realistic instances.

Results are written to ``benchmarks/results/BENCH_constrained.json``.  The
speedup gate defaults to the tentpole's 3× geomean and can be relaxed via
``BENCH_CONSTRAINED_MIN_SPEEDUP`` for noisy shared runners (the measured
geomean is ~10×, so the default keeps comfortable margin on a quiet
machine).  The reference is timed with a single run (it is the slow side);
the solver takes best-of-3 to measure its steady state.
"""

from __future__ import annotations

import json
import os
import platform

from conftest import (
    BENCH_REFERENCE_MODE,
    RESULTS_DIR,
    best_of as _best_of,
    geomean as _geomean,
    reference_sampled,
)

from repro.core.candidate_bags import soft_candidate_bags
from repro.core.constrained import ConstrainedCTDSolver
from repro.core.constraints import ConnectedCoverConstraint
from repro.core.preferences import (
    LexicographicPreference,
    MaxBagSizePreference,
    MonotoneCostPreference,
    NodeCountPreference,
    ShallowCyclicityPreference,
)
from repro.core.reference import reference_constrained_ctd
from repro.hypergraph.generators import (
    random_cyclic_query_hypergraph,
    random_hypergraph,
)
from repro.hypergraph.library import cycle_hypergraph, hypergraph_h2


def _synthetic_cost():
    # Integer node/edge costs: exact arithmetic, so optimal keys can be
    # compared with ``==`` across both solvers.
    return MonotoneCostPreference(
        node_cost=lambda bag: len(bag) ** 2,
        edge_cost=lambda parent, child: len(parent & child) + 1,
    )


def _instances():
    # (name, hypergraph, k, constraint factory, preference factory)
    return [
        (
            "h2-k2-lexicographic",
            hypergraph_h2(),
            2,
            lambda h: None,
            lambda h: LexicographicPreference(
                [MaxBagSizePreference(), NodeCountPreference()]
            ),
        ),
        (
            "h2-k3-concov-cost",
            hypergraph_h2(),
            3,
            lambda h: ConnectedCoverConstraint(h, 3),
            lambda h: _synthetic_cost(),
        ),
        (
            # ConCov is infeasible at width 2 on C12 — a pure decide workload.
            "cycle12-k2-concov-infeasible",
            cycle_hypergraph(12),
            2,
            lambda h: ConnectedCoverConstraint(h, 2),
            lambda h: MaxBagSizePreference(),
        ),
        (
            "cyclic-query10-k2-shallowcyc",
            random_cyclic_query_hypergraph(10, 3, seed=5),
            2,
            lambda h: None,
            lambda h: ShallowCyclicityPreference(h),
        ),
        (
            "random18-k2-cost",
            random_hypergraph(18, 13, max_edge_size=3, seed=3),
            2,
            lambda h: None,
            lambda h: _synthetic_cost(),
        ),
    ]


def test_constrained_speedup_vs_reference():
    rows = []
    for index, (name, hypergraph, k, make_constraint, make_preference) in enumerate(
        _instances()
    ):
        hypergraph.bitsets  # build the mask tables outside the timed region
        sampled = reference_sampled(index)
        bags = soft_candidate_bags(hypergraph, k)
        constraint = make_constraint(hypergraph)
        preference = make_preference(hypergraph)
        row = {
            "instance": name,
            "num_vertices": hypergraph.num_vertices(),
            "num_edges": hypergraph.num_edges(),
            "k": k,
            "num_candidate_bags": len(bags),
            "sampled": sampled,
        }

        reference_result = {}
        if sampled:
            row["reference_s"] = _best_of(
                lambda: reference_result.update(
                    td=reference_constrained_ctd(
                        hypergraph, bags, constraint=constraint, preference=preference
                    )
                ),
                repeats=1,
            )
        solver_result = {}

        def run_solver():
            solver = ConstrainedCTDSolver(hypergraph, bags, constraint, preference)
            solver_result.update(td=solver.solve(), key=solver.optimal_key())

        row["solver_s"] = _best_of(run_solver, repeats=3)

        solver_td = solver_result["td"]
        row["feasible"] = solver_td is not None
        if solver_td is not None:
            assert solver_td.is_valid(), name
            if constraint is not None:
                assert constraint.holds_recursively(solver_td), name
        if sampled:
            reference_td = reference_result["td"]
            assert (reference_td is None) == (solver_td is None), name
            if solver_td is not None:
                reference_key = preference.key(reference_td)
                assert solver_result["key"] == reference_key, name
                row["optimal_key"] = repr(reference_key)
            row["speedup"] = row["reference_s"] / row["solver_s"]
            print(
                f"{name}: ref {row['reference_s']*1000:.1f}ms "
                f"solver {row['solver_s']*1000:.1f}ms x{row['speedup']:.1f}"
            )
        else:
            print(
                f"{name}: solver {row['solver_s']*1000:.1f}ms (not sampled)"
            )
        rows.append(row)

    summary = {
        "geomean_speedup": _geomean(
            [row["speedup"] for row in rows if "speedup" in row]
        )
    }
    payload = {
        "benchmark": "constrained-solver-vs-round-robin-reference",
        "python": platform.python_version(),
        "reference_mode": BENCH_REFERENCE_MODE,
        "instances": rows,
        "summary": summary,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "BENCH_constrained.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    print(f"wrote {path}")
    print(json.dumps(summary, indent=2))

    # The tentpole target: ≥3× on the constrained/preference-optimised solve.
    minimum = float(os.environ.get("BENCH_CONSTRAINED_MIN_SPEEDUP", "3"))
    assert summary["geomean_speedup"] >= minimum
