"""Row generators for every table and figure of the paper's evaluation, and
the one reproduction document built from them.

Each generator returns plain data (lists of dictionaries), so the
reproduction, the examples and the tests all consume the same computation.
:func:`reproduction` measures every checkable claim at scale 1.0 and renders
the claims table plus the generators' tables as Markdown; ``repro
reproduce`` prints it and ``docs/REPRODUCTION.md`` is its committed copy.

The experiment index (each paper artefact and the generator behind it) is
in docs/ARCHITECTURE.md, § "Experiments & benchmarks".
"""

from __future__ import annotations

from itertools import combinations
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.experiments.harness import DecompositionEvaluation, QueryExperiment
from repro.experiments.report import format_table
from repro.workloads.registry import BenchmarkQuery, benchmark_queries


def _experiment(entry: Union[str, BenchmarkQuery], scale: float) -> QueryExperiment:
    # Data flows through the workload layer's seeded generators, so a
    # figure at a given scale always sees the same rows.
    return QueryExperiment.from_benchmark(entry, scale=scale)


def evaluation_rows(
    evaluations: Sequence[DecompositionEvaluation],
) -> List[Dict[str, object]]:
    """One row per evaluated CTD: its rank, both costs and its execution."""
    return [
        {
            "rank": evaluation.rank,
            "cost_cardinalities": evaluation.cost_cardinalities,
            "cost_estimates": evaluation.cost_estimates,
            "work": evaluation.work,
            "max_intermediate": evaluation.metrics.max_intermediate,
            "wall_time_s": evaluation.wall_time,
            "result": evaluation.metrics.result,
        }
        for evaluation in evaluations
    ]


def baseline_row(experiment: QueryExperiment) -> Dict[str, object]:
    """The experiment's baseline execution as a figure record."""
    baseline = experiment.baseline()
    return {
        "work": baseline.work,
        "max_intermediate": baseline.max_intermediate,
        "wall_time_s": baseline.wall_time,
        "result": baseline.result,
    }


def _ranked(
    name: str, cost: str, limit: int, scale: float
) -> Tuple[List[DecompositionEvaluation], Dict[str, object]]:
    """The ``limit`` cheapest ConCov CTDs of one query under ``cost``,
    executed, plus its baseline record."""
    experiment = _experiment(name, scale)
    decompositions, _ = experiment.ranked_decompositions(
        cost=cost, limit=limit, constrained=True
    )
    return experiment.evaluate(decompositions), baseline_row(experiment)


# -- Figure 5 -------------------------------------------------------------------------


def figure5_rows(
    scale: float = 1.0, limit: int = 8
) -> Tuple[List[Dict[str, object]], Dict[str, object]]:
    """Figure 5: the TPC-DS query under ConCov-shw 2.

    Returns the per-decomposition rows (ordered by measured effort, like the
    paper's right-hand chart) and a baseline record.
    """
    evaluations, baseline = _ranked("q_ds", "cardinalities", limit, scale)
    evaluations.sort(key=lambda evaluation: evaluation.work)
    for rank, evaluation in enumerate(evaluations, start=1):
        evaluation.rank = rank
    return evaluation_rows(evaluations), baseline


# -- Figure 6 -------------------------------------------------------------------------


def figure6_rows(
    scale: float = 1.0, limit: int = 10
) -> Dict[str, Tuple[List[Dict[str, object]], Dict[str, object]]]:
    """Figure 6 (left and middle): the 10 cheapest ConCov CTDs per Hetionet query."""
    result = {}
    for name in ("q_hto", "q_hto2"):
        evaluations, baseline = _ranked(name, "estimates", limit, scale)
        result[name] = (evaluation_rows(evaluations), baseline)
    return result


def figure6_constraint_ablation(
    scale: float = 1.0, sample_size: int = 10
) -> List[Dict[str, object]]:
    """Figure 6 (right): average effort of random CTDs with vs without ConCov."""
    rows = []
    for name in ("q_hto", "q_hto2"):
        experiment = _experiment(name, scale)
        concov_work, all_work = (
            [e.work for e in experiment.evaluate(sample)]
            for sample in (
                experiment.random_decompositions(sample_size, constrained=True, seed=1),
                experiment.random_decompositions(sample_size, constrained=False, seed=1),
            )
        )
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
    return [_experiment(entry, scale).table1_row(top_n=top_n) for entry in benchmark_queries()]


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
) -> Tuple[List[Dict[str, object]], Dict[str, object]]:
    """Figures 12–17: cost-vs-effort series for one benchmark query, plus
    its baseline record."""
    if figure not in APPENDIX_FIGURES:
        raise KeyError(f"unknown appendix figure {figure!r}")
    evaluations, baseline = _ranked(APPENDIX_FIGURES[figure], "cardinalities", limit, scale)
    return evaluation_rows(evaluations), baseline


# -- width hierarchy (Examples 1, 2, Appendix A.2, Theorems 9 and 12) -----------------


def width_hierarchy_rows() -> List[Dict[str, object]]:
    """The width facts the paper proves for its example hypergraphs.

    ``fhw_leq_ghw`` compares ρ* of the ghw witness's bags with ghw; ρ* is
    exact only with SciPy, so the comparison is kept, not the value.
    """
    from repro.baselines.detkdecomp import hypertree_width
    from repro.baselines.fhw import fhw_upper_bound
    from repro.baselines.ghw import generalized_hypertree_width
    from repro.core.games import irmg_width
    from repro.core.soft import certify_soft_decomposition, soft_hypertree_width
    from repro.core.solve import SolveRequest, execute
    from repro.experiments.paper_witnesses import h3_soft_decomposition
    from repro.hypergraph.library import cycle_hypergraph, hypergraph_h2, hypergraph_h3

    rows: List[Dict[str, object]] = []
    for name, hypergraph, paper in (
        ("H2", hypergraph_h2(), "ghw = shw = 2, hw = 3 (Example 1)"),
        ("C5", cycle_hypergraph(5), "hw = 2, ConCov-hw = ConCov-shw = ConCov-ghw = 3 (Section 6)"),
    ):
        ghw, witness = generalized_hypertree_width(hypergraph)
        concov = SolveRequest(
            hypergraph, mode="soft-width", width=hypergraph.num_edges(), constraint="concov"
        )
        rows.append(
            {
                "hypergraph": name,
                "ghw": ghw,
                "shw": soft_hypertree_width(hypergraph)[0],
                "hw": hypertree_width(hypergraph),
                "concov_shw": execute(concov, cache=None).width,
                "mon_irmw": irmg_width(hypergraph, monotone=True),
                "fhw_leq_ghw": fhw_upper_bound(witness) <= ghw + 1e-9,
                "paper": paper,
            }
        )
    h3 = hypergraph_h3()
    witness_valid = certify_soft_decomposition(h3, h3_soft_decomposition(h3), 3)
    rows.append(
        {
            "hypergraph": "H3",
            "figure9_witness_valid": witness_valid,
            "paper": "ghw = shw = 3, hw = 4 (Appendix A.2)",
        }
    )
    return rows


def bog_star_separates_star() -> bool:
    """Theorem 9 substitute: ``{⋆} ∪ B ∈ Soft^0_{H*,s+1}``.

    The full width gap needs Adler's punctured hypergraphs; checked here, on
    ``hypergraph_bog_star(n=1, grid_size=2)``, is the proof's key step:
    blocking the balloon rows ``a_1..a_s`` separates ``⋆`` (Definition 3 with
    λ2 = the rows and λ1 = the rows plus a star edge).
    """
    from repro.core.candidate_bags import soft_bag
    from repro.hypergraph.components import edge_components
    from repro.hypergraph.library import hypergraph_bog_star

    hypergraph = hypergraph_bog_star(n=1, grid_size=2)
    rows = [e for e in hypergraph.edges if e.name.startswith("a_")]
    star_edge = next(e for e in hypergraph.edges if e.name.startswith("star_"))
    balloon_and_star = frozenset(
        v for v in hypergraph.vertices if str(v).startswith("g_") or v == "star"
    )
    components = edge_components(hypergraph, hypergraph.vertices_of(rows))
    return any(
        soft_bag(hypergraph, rows + [star_edge], rows, index) == balloon_and_star
        for index in range(len(components))
    )


def _spearman_like_agreement(costs: Sequence[float], works: Sequence[int]) -> float:
    """Fraction of pairs ordered the same way by cost and by measured work."""
    pairs = [
        (a, b) for a, b in combinations(zip(costs, works), 2) if a[0] != b[0] and a[1] != b[1]
    ]
    agree = sum((a[0] < b[0]) == (a[1] < b[1]) for a, b in pairs)
    return agree / len(pairs) if pairs else 1.0


# -- the reproduction document ---------------------------------------------------------

HOLDS, DIFFERS, OFFLINE = "holds", "differs", "not checkable offline"
NOT_IN_REPOSITORY = "paper value not in the repository"

#: The paper's "a few milliseconds" per top-10 enumeration, read as at most
#: this many milliseconds.
FEW_MILLISECONDS = 10.0

#: Table 1's edge counts of the six query hypergraphs.
PAPER_HYPERGRAPH_SIZES = {"q_ds": 5, "q_hto": 7, "q_hto2": 7, "q_hto3": 4, "q_hto4": 6, "q_lb": 6}


class Claim(NamedTuple):
    """One claim of the paper, judged by a pure predicate on its measured
    value (``holds=None``: the repository does not state the paper's value)."""

    key: str
    claim: str
    paper: str
    holds: Optional[Callable[[Any], bool]]

    def verdict(self, measured: Any) -> str:
        if self.holds is None:
            return OFFLINE
        return HOLDS if self.holds(measured) else DIFFERS


def _each(test: Callable[[Any], bool]) -> Callable[[Dict[str, Any]], bool]:
    """A predicate that holds when ``test`` holds for every value of a dict."""
    return lambda values: all(test(value) for value in values.values())


def _show(value: Any) -> str:
    """A measured value as a claims-table cell."""
    if isinstance(value, dict):
        return ", ".join(f"{name} {_show(each)}" for name, each in value.items())
    if isinstance(value, tuple):
        return " / ".join(map(_show, value))
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


CLAIMS: Tuple[Claim, ...] = (
    Claim("table1.size", "Table 1: edges of each query hypergraph",
          _show(PAPER_HYPERGRAPH_SIZES), lambda sizes: sizes == PAPER_HYPERGRAPH_SIZES),
    Claim("table1.concov_shw", "Table 1: ConCov-shw of each query",
          "2, except 3 for q_lb (the registry widths)",
          lambda widths: widths == {q.name: q.width for q in benchmark_queries()}),
    Claim("table1.bags", "Table 1: #Soft / #ConCov-Soft of each query",
          "the ConCov filter only shrinks `Soft_{H,k}`", _each(lambda n: n[1] <= n[0])),
    Claim("table1.bag_counts", "Table 1: #Soft / #ConCov-Soft equal the paper's counts",
          NOT_IN_REPOSITORY, None),
    Claim("table1.ctds", "Table 1: ConCov CTDs ranked per query", "≥ 1",
          _each(lambda count: count >= 1)),
    Claim("table1.top10", "Table 1: top-10 enumeration in ms (median of 5 warm calls)",
          f"a few milliseconds (read as ≤ {FEW_MILLISECONDS:g})",
          _each(lambda ms: ms <= FEW_MILLISECONDS)),
    Claim("widths", "ghw / shw / hw of H2 and C5", "ghw ≤ shw ≤ hw",
          _each(lambda w: w[0] <= w[1] <= w[2])),
    Claim("fhw", "fhw ≤ ghw on H2 and C5 (ρ* of the ghw witness; verdict only)",
          "fhw ≤ ghw", _each(bool)),
    Claim("h2", "Example 1: ghw / shw / hw of H2", "ghw = shw = 2, hw = 3",
          lambda widths: widths == (2, 2, 3)),
    Claim("c5", "Section 6: hw / ConCov-shw of C5", "hw = 2, ConCov-shw = 3",
          lambda widths: widths == (2, 3)),
    Claim("irmw", "Theorem 12: mon-irmw / shw of H2 and C5", "mon-irmw ≤ shw",
          _each(lambda pair: pair[0] <= pair[1])),
    Claim("h3", "Appendix A.2: Figure 9's decomposition of H3 is a soft HD of width 3",
          "shw(H3) ≤ 3", bool),
    Claim("bog_star", "Theorem 9 substitute: blocking the balloon rows separates ⋆",
          "`{⋆} ∪ B ∈ Soft^0_{H*,s+1}`", bool),
    Claim("figure5.agreement", "Figure 5: pairs of q_ds's CTDs that cost and work order alike",
          "mostly (≥ 0.5)", lambda agreement: agreement >= 0.5),
    Claim("figure5.answers", "Figure 5: distinct answers of the CTDs and the baseline",
          "one", lambda count: count == 1),
    Claim("figure5.span", "Figure 5: work of the best CTD / the baseline / the worst CTD",
          "the baseline inside the CTDs' span", lambda span: span[0] <= span[1] <= span[2]),
    Claim("figure5.best", "Figure 5: baseline work ÷ the best CTD's",
          "≥ 2 (the best CTD halves the baseline)", lambda ratio: ratio >= 2),
    Claim("figure5.spread", "Figure 5: the worst CTD's work ÷ the best's",
          "≈ 10 (read as 10 within a factor √10)",
          lambda ratio: 10 ** 0.5 <= ratio <= 10 ** 1.5),
    Claim("figure6.baseline", "Figure 6: baseline work ÷ the worst ranked CTD's",
          "> 2 (multiple times slower)", _each(lambda ratio: ratio > 2)),
    Claim("figure6.ablation",
          "Figure 6 (right): average work of random CTDs ÷ of random ConCov CTDs",
          "≥ 2 (a multiple-factor improvement)", _each(lambda ratio: ratio >= 2)),
    Claim("appendix.answers",
          "Figures 12–17: distinct answers of the 10 cheapest CTDs and the baseline",
          "one per query", _each(lambda count: count == 1)),
    Claim("appendix.costs",
          "Figures 12–17: distinct cardinality / estimate costs of the 10 CTDs",
          "not flat (> 1)", _each(lambda counts: min(counts) > 1)),
)


def reproduction() -> str:
    """The paper's checkable claims at scale 1.0 as one Markdown document.

    The claims table (claim, paper value, measured value, verdict) comes
    first, then the tables it is measured from.
    """
    table1 = table1_rows()
    widths = width_hierarchy_rows()
    h2, c5, h3 = widths
    figure5, figure5_baseline = figure5_rows()
    figure6 = figure6_rows()
    ablation = figure6_constraint_ablation()
    appendix = {figure: appendix_figure_rows(figure) for figure in APPENDIX_FIGURES}

    def per_query(value):
        return {row["query"]: value(row) for row in table1}

    def answers(rows, baseline):
        return len({row["result"] for row in rows} | {baseline["result"]})

    bags = per_query(lambda row: (row["soft_bags"], row["concov_soft_bags"]))
    works = [row["work"] for row in figure5]
    best, worst, baseline = min(works), max(works), figure5_baseline["work"]
    measured = {
        "table1.size": per_query(lambda row: row["hypergraph_size"]),
        "table1.concov_shw": per_query(lambda row: row["concov_shw"]),
        "table1.bags": bags,
        "table1.bag_counts": bags,
        "table1.ctds": per_query(lambda row: row["num_decompositions"]),
        "table1.top10": per_query(lambda row: row["top10_seconds"] * 1e3),
        "widths": {row["hypergraph"]: (row["ghw"], row["shw"], row["hw"]) for row in (h2, c5)},
        "fhw": {row["hypergraph"]: row["fhw_leq_ghw"] for row in (h2, c5)},
        "h2": (h2["ghw"], h2["shw"], h2["hw"]),
        "c5": (c5["hw"], c5["concov_shw"]),
        "irmw": {row["hypergraph"]: (row["mon_irmw"], row["shw"]) for row in (h2, c5)},
        "h3": h3["figure9_witness_valid"],
        "bog_star": bog_star_separates_star(),
        "figure5.agreement": _spearman_like_agreement(
            [row["cost_cardinalities"] for row in figure5], works
        ),
        "figure5.answers": answers(figure5, figure5_baseline),
        "figure5.span": (best, baseline, worst),
        "figure5.best": baseline / best,
        "figure5.spread": worst / best,
        "figure6.baseline": {
            name: base["work"] / max(row["work"] for row in rows)
            for name, (rows, base) in figure6.items()
        },
        "figure6.ablation": {
            row["query"]: row["all_avg_work"] / row["concov_avg_work"] for row in ablation
        },
        "appendix.answers": {
            APPENDIX_FIGURES[figure]: answers(rows, base)
            for figure, (rows, base) in appendix.items()
        },
        "appendix.costs": {
            APPENDIX_FIGURES[figure]: tuple(
                len({row[cost] for row in rows})
                for cost in ("cost_cardinalities", "cost_estimates")
            )
            for figure, (rows, _) in appendix.items()
        },
    }
    claims = [
        {
            "claim": claim.claim,
            "paper": claim.paper,
            "measured": _show(measured[claim.key]),
            "verdict": claim.verdict(measured[claim.key]),
        }
        for claim in CLAIMS
    ]
    ranked = ["rank", "cost_cardinalities", "cost_estimates", "work", "max_intermediate", "result"]

    def with_baseline(rows, baseline):
        return rows + [{"rank": "baseline", **baseline}]

    sections = [
        ("Claims", claims, ["claim", "paper", "measured", "verdict"]),
        ("Table 1", table1, ["query", "hypergraph_size", "concov_shw", "soft_bags",
                             "concov_soft_bags", "num_decompositions"]),
        ("Width hierarchy", widths, ["hypergraph", "ghw", "shw", "hw", "concov_shw",
                                     "mon_irmw", "figure9_witness_valid", "paper"]),
        ("Figure 5: q_ds, the ConCov-shw 2 CTDs by work",
         with_baseline(figure5, figure5_baseline), ranked),
    ]
    sections += [
        (f"Figure 6: {name}, the 10 cheapest ConCov-shw 2 CTDs by estimate",
         with_baseline(rows, baseline), ranked)
        for name, (rows, baseline) in figure6.items()
    ]
    sections.append(
        ("Figure 6 (right): random width-2 CTDs with and without ConCov", ablation,
         ["query", "concov_avg_work", "all_avg_work", "concov_samples", "all_samples"])
    )
    sections += [
        (f"Figure {figure[len('figure'):]}: {APPENDIX_FIGURES[figure]}, the 10 cheapest "
         "ConCov CTDs by cardinality cost", with_baseline(rows, baseline), ranked)
        for figure, (rows, baseline) in appendix.items()
    ]
    lines = [
        "# Reproduction",
        "",
        "The claims of the paper's evaluation (Section 7, Table 1, Figures 5, 6 and",
        "12–17) and of its width examples that this repository can check, at data",
        "scale 1.0.  `python -m repro reproduce` prints this file; a tier-1 test",
        "checks that the committed copy is what it prints.  Work is the executor's",
        "deterministic work count, the stand-in for the paper's run times; the",
        "top-10 time is the only wall-clock cell.  A paper value is given only where",
        "the repository states it.  Not checked: Theorem 7 (`Soft^i` reaches ghw),",
        "which needs a ghw computed independently of the soft-width solver.",
    ]
    for title, rows, columns in sections:
        lines += ["", f"## {title}", "", format_table(rows, columns)]
    return "\n".join(lines)
