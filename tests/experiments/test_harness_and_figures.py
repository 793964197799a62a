"""Integration tests for the experiment harness and figure generators.

These run the full pipeline (candidate bags → ranked CTDs → Yannakakis
execution → baseline) at a reduced data scale so the whole module stays
fast; ``repro reproduce`` runs the same code at scale 1
(``tests/experiments/test_reproduction.py``).
"""

import pytest

from repro.core.solve import constraint_object
from repro.experiments.harness import QueryExperiment
from repro.experiments.report import format_table
from repro.experiments import figures
from repro.workloads.registry import benchmark_query

SCALE = 0.15

# Pinned figure rows at SCALE with limit=3: every column except wall-clock,
# costs bit-identical.  Rows: (rank, cost_cardinalities, cost_estimates,
# work, max_intermediate, result); baselines: (work, max_intermediate,
# result).  A moved CTD, work count, result or cost fails these pins.
ROW_COLUMNS = ("rank", "cost_cardinalities", "cost_estimates", "work", "max_intermediate", "result")
PINNED_FIGURE5 = (
    [
        (1, 4070.9304333306272, 592.0, 1135, 117, 0),
        (2, 4285.061119866255, 593.0, 1219, 117, 0),
        (3, 4352.119769892216, 1604.5, 1534, 117, 0),
    ],
    (683, 65, 0),
)
PINNED_FIGURE6 = {
    "q_hto": (
        [
            (1, 25033.576080293256, 1646.3547756305102, 6647, 519, 0),
            (2, 25387.02390209875, 1646.3547756305102, 6793, 519, 0),
            (3, 25033.576080293256, 1646.3547756305102, 6647, 519, 0),
        ],
        (57967, 18654, 0),
    ),
    "q_hto2": (
        [
            (1, 22389.517826037572, 1651.097241420534, 6333, 475, 22),
            (2, 22759.863054454, 1651.097241420534, 6492, 475, 22),
            (3, 22759.863054454, 1651.097241420534, 6513, 475, 22),
        ],
        (58131, 17527, 22),
    ),
}
PINNED_FIGURE15 = (
    [
        (1, 13436.533497332039, 1107.006332329625, 3948, 423, 0),
        (2, 13487.326739991968, 1107.006332329625, 3948, 423, 0),
        (3, 14021.661396491, 1107.006332329625, 4189, 475, 0),
    ],
    (4863, 1564, 0),
)
PINNED_TABLE1_QDS = {
    "query": "q_ds",
    "concov_shw": 2,
    "hypergraph_size": 5,
    "soft_bags": 15,
    "concov_soft_bags": 14,
    "num_decompositions": 10,
}


def pinned_view(rows, baseline):
    """A figure's rows and baseline in the pins' tuple layout."""
    assert all(set(row) == {*ROW_COLUMNS, "wall_time_s"} for row in rows)
    assert set(baseline) == {"work", "max_intermediate", "wall_time_s", "result"}
    return (
        [tuple(row[column] for column in ROW_COLUMNS) for row in rows],
        (baseline["work"], baseline["max_intermediate"], baseline["result"]),
    )


@pytest.fixture(scope="module")
def qds_experiment():
    entry = benchmark_query("q_ds")
    database, query = entry.load(scale=SCALE)
    return QueryExperiment(database, query, entry.width, name="q_ds")


@pytest.fixture(scope="module")
def hto3_experiment():
    entry = benchmark_query("q_hto3")
    database, query = entry.load(scale=SCALE)
    return QueryExperiment(database, query, entry.width, name="q_hto3")


class TestQueryExperiment:
    def test_candidate_bag_counts(self, qds_experiment):
        assert len(qds_experiment.soft_bags) > 0
        assert qds_experiment.concov_bags <= qds_experiment.soft_bags

    def test_ranked_decompositions_and_evaluation(self, qds_experiment):
        decompositions, elapsed = qds_experiment.ranked_decompositions(limit=4)
        assert decompositions and elapsed >= 0
        evaluations = qds_experiment.evaluate(decompositions)
        results = {evaluation.metrics.result for evaluation in evaluations}
        assert len(results) == 1
        baseline = qds_experiment.baseline()
        assert results == {baseline.result}

    def test_decompositions_respect_concov(self, qds_experiment):
        decompositions, _ = qds_experiment.ranked_decompositions(limit=4, constrained=True)
        constraint = constraint_object(
            "concov", qds_experiment.hypergraph, qds_experiment.width
        )
        for decomposition in decompositions:
            assert constraint.holds_recursively(decomposition)

    def test_random_decompositions(self, hto3_experiment):
        constrained = hto3_experiment.random_decompositions(3, constrained=True)
        unconstrained = hto3_experiment.random_decompositions(3, constrained=False)
        assert len(constrained) <= 3 and len(unconstrained) <= 3
        assert constrained and unconstrained

    def test_concov_shw_matches_width(self, qds_experiment):
        assert qds_experiment.concov_shw(max_k=4) == 2

    def test_table1_row_pinned(self, qds_experiment):
        row = qds_experiment.table1_row()
        assert row.pop("top10_seconds") >= 0
        assert row == PINNED_TABLE1_QDS

    def test_table1_row_fields(self, hto3_experiment):
        row = hto3_experiment.table1_row(top_n=3)
        assert row["query"] == "q_hto3"
        assert row["hypergraph_size"] == 4
        assert row["soft_bags"] >= row["concov_soft_bags"]
        assert row["top10_seconds"] >= 0


class TestReportRendering:
    def test_format_table(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": None}]
        text = format_table(rows, ["a", "b"])
        assert text.splitlines() == [
            "| a | b |",
            "| --- | --- |",
            "| 1 | 2.500 |",
            "| 10 | - |",
        ]

    def test_format_table_empty(self):
        assert format_table([], ["a"]) == "(no rows)"


class TestFigureGenerators:
    def test_figure5_rows_shape(self):
        rows, baseline = figures.figure5_rows(scale=SCALE, limit=3)
        assert rows
        assert {"rank", "cost_cardinalities", "cost_estimates", "work"} <= set(rows[0])
        assert baseline["work"] > 0
        ranks = [row["rank"] for row in rows]
        assert ranks == sorted(ranks)
        assert pinned_view(rows, baseline) == PINNED_FIGURE5

    def test_figure6_rows_pinned(self):
        result = figures.figure6_rows(scale=SCALE, limit=3)
        assert {
            name: pinned_view(rows, baseline) for name, (rows, baseline) in result.items()
        } == PINNED_FIGURE6

    def test_appendix_figure_rows(self):
        rows, baseline = figures.appendix_figure_rows("figure15", scale=SCALE, limit=3)
        assert rows and baseline is not None
        assert pinned_view(rows, baseline) == PINNED_FIGURE15
        with pytest.raises(KeyError):
            figures.appendix_figure_rows("figure99")

    def test_width_hierarchy_rows(self):
        rows = figures.width_hierarchy_rows()
        h2_row = next(row for row in rows if "H2" in row["hypergraph"])
        assert h2_row["ghw"] == 2 and h2_row["shw"] == 2 and h2_row["hw"] == 3
        c5_row = next(row for row in rows if "C5" in row["hypergraph"])
        assert c5_row["hw"] == 2 and c5_row["concov_shw"] == 3


def test_ranked_figures_bypass_the_persistent_cache(tmp_path, monkeypatch):
    """A cached ranked entry is certified valid, not least, and a probe
    would stand in for the enumeration Table 1 times: the harness solves
    with ``cache=None`` even where the default cache is switched on."""
    monkeypatch.delenv("REPRO_CTD_CACHE_OFF")
    monkeypatch.setenv("REPRO_CTD_CACHE", str(tmp_path))
    experiment = QueryExperiment.from_benchmark("q_hto3", scale=SCALE)
    assert experiment.ranked_decompositions(limit=3)[0]
    assert experiment.random_decompositions(2, constrained=False)
    assert experiment.concov_shw(max_k=3) == 2
    assert list(tmp_path.iterdir()) == []
