"""Row/series generators for every table and figure of the paper's evaluation.

Each function returns plain data (lists of dictionaries) so that the
benchmark harness, the examples and the tests can all consume the same
computation; the ``render_*`` helpers turn them into the text "figures" the
bench targets print.

Experiment index (see docs/ARCHITECTURE.md, § "Experiments & benchmarks"):

* :func:`figure5_rows` — Figure 5: `q_ds`, ConCov-shw 2, all enumerated CTDs
  with both cost functions and the baseline.
* :func:`figure6_rows` — Figure 6 (left/middle): the 10 cheapest width-2
  ConCov CTDs for the two Hetionet queries, plus the baseline.
* :func:`figure6_constraint_ablation` — Figure 6 (right): average execution
  effort of random width-2 CTDs with and without ConCov.
* :func:`table1_rows` — Table 1: per-query candidate-bag statistics and
  top-10 enumeration time.
* :func:`appendix_figure_rows` — Figures 12–17: per-query cost-vs-effort
  series for both cost functions.
* :func:`width_hierarchy_rows` — the width facts of Examples 1 and 2 and
  Appendix A.2 (``H2``, ``H3``, ``H3'``, ``C5`` with ConCov).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.harness import DecompositionEvaluation, QueryExperiment
from repro.experiments.report import format_figure_rows
from repro.workloads.registry import BenchmarkQuery, benchmark_queries, benchmark_query


def _experiment(entry: BenchmarkQuery, scale: float = 1.0) -> QueryExperiment:
    # Data flows through the workload layer's seeded generators, so a
    # figure at a given scale always sees the same rows.
    return QueryExperiment.from_benchmark(entry, scale=scale)


def _evaluation_rows(
    experiment: QueryExperiment, evaluations: Sequence[DecompositionEvaluation]
) -> List[Dict[str, object]]:
    return [
        {
            "rank": evaluation.rank,
            "cost_cardinalities": evaluation.cardinality_cost,
            "cost_estimates": evaluation.estimate_cost,
            "work": evaluation.work,
            "max_intermediate": evaluation.metrics.max_intermediate,
            "wall_time_s": evaluation.wall_time,
            "result": evaluation.metrics.result,
        }
        for evaluation in evaluations
    ]


# -- Figure 5 -------------------------------------------------------------------------


def figure5_rows(
    scale: float = 1.0, limit: int = 8
) -> Tuple[List[Dict[str, object]], Dict[str, object]]:
    """Figure 5: the TPC-DS query under ConCov-shw 2.

    Returns the per-decomposition rows (ordered by measured effort, like the
    paper's right-hand chart) and a baseline record.
    """
    experiment = _experiment(benchmark_query("q_ds"), scale=scale)
    decompositions, _ = experiment.ranked_decompositions(
        cost="cardinalities", limit=limit, constrained=True
    )
    evaluations = experiment.evaluate(decompositions)
    evaluations.sort(key=lambda evaluation: evaluation.work)
    for rank, evaluation in enumerate(evaluations, start=1):
        evaluation.rank = rank
    baseline = experiment.baseline()
    baseline_row = {
        "work": baseline.work,
        "max_intermediate": baseline.max_intermediate,
        "wall_time_s": baseline.wall_time,
        "result": baseline.result,
    }
    return _evaluation_rows(experiment, evaluations), baseline_row


# -- Figure 6 -------------------------------------------------------------------------


def figure6_rows(
    scale: float = 1.0, limit: int = 10
) -> Dict[str, Tuple[List[Dict[str, object]], Dict[str, object]]]:
    """Figure 6 (left and middle): the 10 cheapest ConCov CTDs per Hetionet query."""
    result = {}
    for name in ("q_hto", "q_hto2"):
        experiment = _experiment(benchmark_query(name), scale=scale)
        decompositions, _ = experiment.ranked_decompositions(
            cost="estimates", limit=limit, constrained=True
        )
        evaluations = experiment.evaluate(decompositions)
        baseline = experiment.baseline()
        baseline_row = {
            "work": baseline.work,
            "max_intermediate": baseline.max_intermediate,
            "wall_time_s": baseline.wall_time,
            "result": baseline.result,
        }
        result[name] = (_evaluation_rows(experiment, evaluations), baseline_row)
    return result


def figure6_constraint_ablation(
    scale: float = 1.0, sample_size: int = 10
) -> List[Dict[str, object]]:
    """Figure 6 (right): average effort of random CTDs with vs without ConCov."""
    rows = []
    for name in ("q_hto", "q_hto2"):
        experiment = _experiment(benchmark_query(name), scale=scale)
        with_constraint = experiment.random_decompositions(
            sample_size, constrained=True, seed=1
        )
        without_constraint = experiment.random_decompositions(
            sample_size, constrained=False, seed=1
        )
        concov_work = [e.work for e in experiment.evaluate(with_constraint)]
        all_work = [e.work for e in experiment.evaluate(without_constraint)]
        rows.append(
            {
                "query": name,
                "concov_avg_work": sum(concov_work) / max(1, len(concov_work)),
                "all_avg_work": sum(all_work) / max(1, len(all_work)),
                "concov_samples": len(concov_work),
                "all_samples": len(all_work),
            }
        )
    return rows


# -- Table 1 -----------------------------------------------------------------------------


def table1_rows(scale: float = 1.0, top_n: int = 10) -> List[Dict[str, object]]:
    """Table 1: per-query candidate-bag statistics and top-10 enumeration time."""
    rows = []
    for entry in benchmark_queries():
        experiment = _experiment(entry, scale=scale)
        rows.append(experiment.table1_row(top_n=top_n))
    return rows


# -- Figures 12–17 -----------------------------------------------------------------------


APPENDIX_FIGURES = {
    "figure12": "q_ds",
    "figure13": "q_hto",
    "figure14": "q_hto2",
    "figure15": "q_hto3",
    "figure16": "q_hto4",
    "figure17": "q_lb",
}


def appendix_figure_rows(
    figure: str, scale: float = 1.0, limit: int = 10
) -> Tuple[List[Dict[str, object]], Optional[Dict[str, object]]]:
    """Figures 12–17: cost-vs-effort series for one benchmark query.

    The baseline is reported for the queries whose appendix figure mentions
    it (the Hetionet queries and `q_ds`).
    """
    if figure not in APPENDIX_FIGURES:
        raise KeyError(f"unknown appendix figure {figure!r}")
    name = APPENDIX_FIGURES[figure]
    experiment = _experiment(benchmark_query(name), scale=scale)
    decompositions, _ = experiment.ranked_decompositions(
        cost="cardinalities", limit=limit, constrained=True
    )
    evaluations = experiment.evaluate(decompositions)
    baseline_row: Optional[Dict[str, object]] = None
    baseline = experiment.baseline()
    baseline_row = {
        "work": baseline.work,
        "max_intermediate": baseline.max_intermediate,
        "wall_time_s": baseline.wall_time,
        "result": baseline.result,
    }
    return _evaluation_rows(experiment, evaluations), baseline_row


# -- width hierarchy (Examples 1, 2 and Appendix A.2) ---------------------------------------


def width_hierarchy_rows(include_h3: bool = False) -> List[Dict[str, object]]:
    """The width facts the paper proves for its example hypergraphs.

    ``include_h3`` also runs the (much larger) ``H3``/``H3'`` checks; these
    take noticeably longer and are therefore opt-in for the bench target.
    """
    from repro.baselines.detkdecomp import hypertree_width
    from repro.baselines.ghw import generalized_hypertree_width
    from repro.core.constraints import ConnectedCoverConstraint
    from repro.core.soft import shw_leq, soft_hypertree_width
    from repro.hypergraph.library import cycle_hypergraph, hypergraph_h2

    rows: List[Dict[str, object]] = []
    h2 = hypergraph_h2()
    rows.append(
        {
            "hypergraph": "H2 (Example 1)",
            "ghw": generalized_hypertree_width(h2)[0],
            "shw": soft_hypertree_width(h2)[0],
            "hw": hypertree_width(h2),
            "paper": "ghw = shw = 2, hw = 3",
        }
    )
    c5 = cycle_hypergraph(5)
    concov_shw = None
    for k in range(1, 6):
        constraint = ConnectedCoverConstraint(c5, k)
        if shw_leq(c5, k, constraint=constraint) is not None:
            concov_shw = k
            break
    rows.append(
        {
            "hypergraph": "C5 (Section 6)",
            "ghw": generalized_hypertree_width(c5)[0],
            "shw": soft_hypertree_width(c5)[0],
            "hw": hypertree_width(c5),
            "concov_shw": concov_shw,
            "paper": "hw = 2, ConCov-hw = ConCov-shw = ConCov-ghw = 3",
        }
    )
    if include_h3:
        from repro.hypergraph.library import hypergraph_h3, hypergraph_h3_prime
        from repro.core.soft import certify_soft_decomposition
        from repro.experiments.paper_witnesses import h3_soft_decomposition

        h3 = hypergraph_h3()
        witness = h3_soft_decomposition(h3)
        rows.append(
            {
                "hypergraph": "H3 (Appendix A.2)",
                "shw_leq_3_witness_valid": certify_soft_decomposition(h3, witness, 3),
                "paper": "ghw = shw = 3, hw = 4",
            }
        )
    return rows


# -- rendering -------------------------------------------------------------------------------


def render_figure5(scale: float = 1.0, limit: int = 8) -> str:
    rows, baseline = figure5_rows(scale=scale, limit=limit)
    footer = [
        "",
        f"Baseline (greedy DBMS-style plan): work={baseline['work']}, "
        f"max_intermediate={baseline['max_intermediate']}, result={baseline['result']}",
    ]
    return format_figure_rows(
        "Figure 5 — q_ds, ConCov-shw 2 decompositions (TPC-DS-like data)",
        rows,
        ["rank", "cost_cardinalities", "cost_estimates", "work", "max_intermediate", "result"],
        footer,
    )


def render_figure6(scale: float = 1.0, limit: int = 10) -> str:
    parts = []
    for name, (rows, baseline) in figure6_rows(scale=scale, limit=limit).items():
        footer = [
            "",
            f"Baseline: work={baseline['work']}, result={baseline['result']}",
            "",
        ]
        parts.append(
            format_figure_rows(
                f"Figure 6 — {name}, 10 cheapest ConCov-shw 2 decompositions",
                rows,
                ["rank", "cost_estimates", "cost_cardinalities", "work", "result"],
                footer,
            )
        )
    ablation = figure6_constraint_ablation(scale=scale)
    parts.append(
        format_figure_rows(
            "Figure 6 (right) — random width-2 CTDs, with vs without ConCov",
            ablation,
            ["query", "concov_avg_work", "all_avg_work", "concov_samples", "all_samples"],
        )
    )
    return "\n".join(parts)


def render_table1(scale: float = 1.0) -> str:
    return format_figure_rows(
        "Table 1 — per-query candidate-bag statistics",
        table1_rows(scale=scale),
        [
            "query",
            "concov_shw",
            "hypergraph_size",
            "soft_bags",
            "concov_soft_bags",
            "top10_seconds",
        ],
    )


def render_appendix_figure(figure: str, scale: float = 1.0, limit: int = 10) -> str:
    rows, baseline = appendix_figure_rows(figure, scale=scale, limit=limit)
    footer = []
    if baseline is not None:
        footer = ["", f"Baseline: work={baseline['work']}, result={baseline['result']}"]
    return format_figure_rows(
        f"{figure} — {APPENDIX_FIGURES[figure]}: cost vs measured effort",
        rows,
        ["rank", "cost_cardinalities", "cost_estimates", "work", "wall_time_s", "result"],
        footer,
    )
