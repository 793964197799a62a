"""Golden end-to-end tests for the JOB-lite workload.

The expected aggregates below were produced by the front door at scale 1
with the default seed and independently cross-checked against the naive
reference evaluation (see ``tests/property/test_property_query_pipeline``
for the generic differential proof).  They pin the *whole* pipeline:
generator determinism, SQL parsing, decomposition search and Yannakakis
execution — any change to one layer that shifts an answer fails here.
"""

import io
import re

import pytest

from repro.cli import main as cli_main
from repro.db.frontdoor import plan_query, run_query
from repro.workloads.joblite import (
    JOBLITE_QUERY_SQL,
    JOBLITE_QUERY_WIDTHS,
    build_joblite_database,
    joblite_query,
)
from repro.workloads.registry import (
    benchmark_queries,
    benchmark_query,
    joblite_benchmark_queries,
    workload_entries,
)

#: ``query -> (aggregate column, value, least width)`` at scale 1, seed 17.
GOLDEN = {
    "jl01": ("min_v1", 1950, 1),
    "jl02": ("count_v0", 1567, 1),
    "jl03": ("min_v1", 0, 1),
    "jl04": ("min_v1", 1950, 2),
    "jl05": ("count_v1", 205, 1),
    "jl06": ("max_v1", 2019, 1),
    "jl07": ("min_v0", 0, 1),
    "jl08": ("count_v0", 587, 2),
    "jl09": ("min_v1", 1950, 1),
    "jl10": ("count_v1", 863, 2),
}

EXPLAIN_JL01 = """\
query: jl01
atoms: 3  variables: 3
fingerprint: de0e2f0d9fd63db2
decomposition: width=1 provenance=solve
  node 0 (root): bag=[v0, v1] cover=[title]
  node 1 (parent=0): bag=[v0, v2] cover=[movie_companies] enforce=[company_name]"""

EXPLAIN_JL08 = """\
query: jl08
atoms: 4  variables: 3
fingerprint: a239d5b771dbaf15
decomposition: width=2 provenance=solve
  node 0 (root): bag=[v0, v1, v2] cover=[keyword, movie_info] enforce=[movie_keyword, title]"""

#: One ``--explain`` node line: index, ``root`` or ``parent=<index>``, bag.
EXPLAIN_NODE = re.compile(r"  node (\d+) \((?:root|parent=(\d+))\): bag=\[([^\]]*)\]")


@pytest.fixture(scope="module")
def database():
    return build_joblite_database(scale=1.0)


class TestRegistry:
    def test_joblite_is_a_workload_entry(self):
        entry = workload_entries()["joblite"]
        assert entry.default_seed == 17
        assert set(entry.schema) == {
            "title",
            "company_name",
            "movie_companies",
            "name",
            "cast_info",
            "keyword",
            "movie_keyword",
            "movie_info",
            "movie_link",
        }

    def test_table1_list_stays_pinned_to_six(self):
        names = [entry.name for entry in benchmark_queries()]
        assert names == ["q_ds", "q_hto", "q_hto2", "q_hto3", "q_hto4", "q_lb"]

    def test_joblite_queries_resolvable_by_name(self):
        entries = joblite_benchmark_queries()
        assert [entry.name for entry in entries] == sorted(JOBLITE_QUERY_SQL)
        entry = benchmark_query("jl04")
        assert entry.dataset == "joblite" and entry.width == 2
        with pytest.raises(KeyError):
            benchmark_query("jl99")

    def test_generator_is_deterministic(self):
        first = build_joblite_database(scale=0.1)
        second = build_joblite_database(scale=0.1)
        for table in first.relation_names():
            assert sorted(first.relation(table).rows) == sorted(
                second.relation(table).rows
            )


class TestGoldenAnswers:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_scale1_aggregates(self, database, name):
        column, value, width = GOLDEN[name]
        result = run_query(joblite_query(database, name), database, cache=None)
        assert result.outcome.complete
        assert result.columns == (column,)
        assert result.value == value
        assert result.width == width

    def test_widths_match_least_width_search(self, database):
        # The hard-coded width table is itself a claim; verify it against
        # the soft-width search for every query.
        for name, expected in sorted(JOBLITE_QUERY_WIDTHS.items()):
            plan = plan_query(joblite_query(database, name), database, cache=None)
            assert plan.width == expected, name

    def test_pinned_width_matches_search_answer(self, database):
        for name in ("jl01", "jl08"):
            _, value, width = GOLDEN[name]
            pinned = run_query(
                joblite_query(database, name), database, width=width, cache=None
            )
            assert pinned.value == value


class TestExplainStability:
    def test_explain_jl01(self, database):
        plan = plan_query(joblite_query(database, "jl01"), database, cache=None)
        assert plan.describe() == EXPLAIN_JL01

    def test_explain_jl08(self, database):
        plan = plan_query(joblite_query(database, "jl08"), database, cache=None)
        assert plan.describe() == EXPLAIN_JL08

    def test_cli_explain_matches_api(self):
        out = io.StringIO()
        code = cli_main(
            ["query", "--name", "jl08", "--explain", "--no-cache"], out=out
        )
        assert code == 0
        assert out.getvalue().rstrip("\n") == EXPLAIN_JL08

    @pytest.mark.parametrize("select_all", [False, True], ids=["aggregate", "rows"])
    def test_no_printed_bag_is_contained_in_a_neighbouring_bag(
        self, database, select_all
    ):
        for name, sql in sorted(JOBLITE_QUERY_SQL.items()):
            if select_all:
                sql = re.sub(r"SELECT\s+\w+\(\w+\)", "SELECT *", sql, count=1)
            nodes = EXPLAIN_NODE.findall(
                plan_query(sql, database, name=name, cache=None).describe()
            )
            assert nodes, name
            bags = {index: set(bag.split(", ")) for index, _, bag in nodes}
            for index, parent, _ in nodes:
                if parent:
                    assert not bags[index] <= bags[parent], (name, index)
                    assert not bags[parent] <= bags[index], (name, index)


class TestRowOutputCost:
    def test_select_all_work_is_linear_in_input_and_output(self, database):
        sql = re.sub(r"SELECT\s+\w+\(\w+\)", "SELECT *", JOBLITE_QUERY_SQL["jl02"], count=1)
        result = run_query(sql, database, cache=None)
        query = result.plan.query
        assert query.aggregate is None and result.rows
        input_rows = sum(len(database.relation(atom.relation)) for atom in query.atoms)
        assert result.execution_work < 10 * (input_rows + len(result.rows))


class TestCliQuery:
    def test_cli_runs_joblite_sql_end_to_end(self):
        out = io.StringIO()
        code = cli_main(
            ["query", "--sql", JOBLITE_QUERY_SQL["jl01"], "--no-cache"], out=out
        )
        assert code == 0
        text = out.getvalue()
        assert "min_v1 = 1950" in text
        assert "provenance=solve" in text

    def test_cli_named_query(self):
        out = io.StringIO()
        code = cli_main(["query", "--name", "jl05", "--no-cache"], out=out)
        assert code == 0
        assert "count_v1 = 205" in out.getvalue()

    def test_cli_cold_then_warm_is_byte_identical_with_cache_hit(self, tmp_path):
        cache_dir = str(tmp_path / "ctd")
        argv = ["query", "--name", "jl06", "--cache", cache_dir]
        cold_out, warm_out = io.StringIO(), io.StringIO()
        assert cli_main(argv, out=cold_out) == 0
        assert cli_main(argv, out=warm_out) == 0
        cold = cold_out.getvalue()
        warm = warm_out.getvalue()
        assert "max_v1 = 2019" in cold
        assert "provenance=solve" in cold
        assert "provenance=cache" in warm
        # Identical apart from where the decomposition came from.
        assert cold.replace("provenance=solve", "provenance=cache") == warm

    def test_cli_requires_exactly_one_source(self):
        out = io.StringIO()
        code = cli_main(["query", "--sql", "SELECT *", "--name", "jl01"], out=out)
        assert code == 2
        assert out.getvalue().startswith("error:")

    def test_cli_unknown_workload_is_user_error(self):
        out = io.StringIO()
        code = cli_main(
            ["query", "--sql", "SELECT MIN(a) FROM R", "--workload", "nope"],
            out=out,
        )
        assert code == 2
        assert "unknown workload" in out.getvalue()
