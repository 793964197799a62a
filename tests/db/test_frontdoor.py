"""Unit tests for the query front door (`repro.db.frontdoor`).

The cross-layer differential proof lives in
``tests/property/test_property_query_pipeline.py`` and the workload
goldens in ``tests/workloads/test_joblite.py``; here the focus is the
front door's own contract: plan structure, provenance, the
cache-is-never-an-authority trust model for isomorphic shapes, budget
sharing across solve and execution, the error taxonomy, and, on the
sixteen benchmark texts, cold and warm answers equal to the plain-join
``BaselineExecutor``'s, with fewer tuples touched than it on the six
paper queries.
"""

import math

import pytest

from repro.core.cache import DecompositionCache
from repro.db.database import Database
from repro.db.executor import BaselineExecutor
from repro.db.frontdoor import plan_query, run_query
from repro.runtime.budget import Budget
from repro.runtime.errors import UserError
from repro.workloads.registry import (
    benchmark_queries,
    benchmark_query,
    joblite_benchmark_queries,
)


def _database():
    db = Database()
    db.create_table_columns("R", ["a", "b"], [[1, 2, 3, 3], [10, 20, 30, 31]])
    db.create_table_columns("S", ["b", "c"], [[10, 20, 20, 31], [5, 6, 7, 8]])
    db.create_table_columns("T", ["c", "d"], [[5, 6, 6], [0, 6, 2]])
    return db


@pytest.fixture
def database():
    return _database()


TRIANGLE_SQL = (
    "SELECT COUNT(a) FROM R, S, T "
    "WHERE R.b = S.b AND S.c = T.c AND T.d = R.a"
)


class TestPlan:
    def test_plan_records_fingerprint_width_and_node_plans(self, database):
        plan = plan_query("SELECT * FROM R, S WHERE R.b = S.b", database, cache=None)
        assert plan.provenance == "solve"
        assert plan.width == 1
        assert len(plan.fingerprint) == 64 or len(plan.fingerprint) >= 16
        assert plan.node_plans, "lowered Yannakakis plan must be attached"
        described = plan.describe()
        assert "decomposition: width=1 provenance=solve" in described

    def test_isomorphic_shapes_share_a_fingerprint(self, database):
        first = plan_query("SELECT * FROM R, S WHERE R.b = S.b", database, cache=None)
        # Same shape over different tables/columns: S(b,c) joined to T(c,d).
        second = plan_query("SELECT * FROM S, T WHERE S.c = T.c", database, cache=None)
        assert first.fingerprint == second.fingerprint

    def test_explain_does_not_execute(self, database):
        budget = Budget(max_work=10_000)
        plan = plan_query(TRIANGLE_SQL, database, cache=None, budget=budget)
        assert plan.decomposition is not None
        # Only solve work was charged; execution would have added more.
        solve_only = budget.outcome().work
        result = run_query(TRIANGLE_SQL, database, cache=None, budget=budget)
        assert result.outcome.work > solve_only


class TestEachThingOnce:
    def test_run_query_plans_once_and_canonicalises_once(
        self, database, tmp_path, monkeypatch
    ):
        """Per request: one plan and one (traced) ``hypergraph()`` call.  Per
        query shape: one hypergraph, bitset build, canonical form, GYO
        reduction and cover search per bag.  Per database: member orders."""
        from repro.baselines import acyclic
        from repro.db import query as query_module
        from repro.db import yannakakis
        from repro.db.query import ConjunctiveQuery
        from repro.db.stats import CardinalityEstimator
        from repro.db.yannakakis import YannakakisExecutor
        from repro.hypergraph import canonical
        from repro.hypergraph.bitset import HypergraphBitsets

        # Another test may have interned the triangle already.
        monkeypatch.setattr(query_module, "_INTERNED", {})
        calls = {
            "executors": 0, "plans": 0, "hypergraphs": 0, "canonical": 0,
            "bitsets": 0, "covers": 0, "gyo": 0, "orders": 0,
        }

        def counted(key, original):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            return wrapper

        for owner, name, key in (
            (YannakakisExecutor, "__init__", "executors"),
            (YannakakisExecutor, "plan", "plans"),
            (ConjunctiveQuery, "hypergraph", "hypergraphs"),
            (canonical, "_canonical_form", "canonical"),
            (HypergraphBitsets, "__init__", "bitsets"),
            (yannakakis, "_search_cover", "covers"),
            (acyclic, "gyo_reduction", "gyo"),
            (CardinalityEstimator, "_greedy_order", "orders"),
        ):
            monkeypatch.setattr(owner, name, counted(key, getattr(owner, name)))
        cache = DecompositionCache(str(tmp_path / "ctd"))

        def run(db):
            for key in calls:
                calls[key] = 0
            result = run_query(TRIANGLE_SQL, db, cache=cache)
            assert result.plan.fingerprint == canonical.hypergraph_fingerprint(
                result.plan.hypergraph
            )
            return result, dict(calls)

        cold, cold_calls = run(database)
        assert cold.provenance == "solve"
        # The triangle has width 2: GYO settles level 1, level 2 solves, and
        # the solve, the fingerprint and the covers share one hypergraph —
        # one canonical form and one set of bitset tables.
        assert {key: cold_calls[key] for key in ("executors", "plans", "hypergraphs")} == {
            "executors": 1, "plans": 1, "hypergraphs": 1,
        }
        assert cold_calls["canonical"] == cold_calls["bitsets"] == cold_calls["gyo"] == 1
        assert cold_calls["covers"] >= len(cold.plan.node_plans)
        assert cold_calls["orders"] >= 1

        warm, warm_calls = run(database)
        assert warm.provenance == "cache"
        assert warm.plan.hypergraph is cold.plan.hypergraph
        # The traced hypergraph() binding still runs once; everything that
        # depends only on the shape or on the database is a lookup.
        assert warm_calls == {
            "executors": 1, "plans": 1, "hypergraphs": 1, "canonical": 0,
            "bitsets": 0, "covers": 0, "gyo": 0, "orders": 0,
        }

        elsewhere, elsewhere_calls = run(_database())
        assert elsewhere.provenance == "cache"
        assert elsewhere.plan.hypergraph is cold.plan.hypergraph
        assert elsewhere.value == cold.value == warm.value
        # The shape's covers carry over; member orders are the new
        # database's own.
        assert elsewhere_calls["canonical"] == elsewhere_calls["covers"] == 0
        assert elsewhere_calls["bitsets"] == elsewhere_calls["gyo"] == 0
        assert elsewhere_calls["orders"] >= 1

    def test_canonical_keys_once_per_interned_value(self, database, monkeypatch):
        from repro.db import interner

        calls = []
        original = interner.canonical_key

        def counted(value):
            calls.append(value)
            return original(value)

        monkeypatch.setattr(interner, "canonical_key", counted)

        def key_calls(sql):
            calls.clear()
            assert run_query(sql, database, cache=None).rows
            return len(calls)

        join_rs = "SELECT * FROM R, S WHERE R.b = S.b"
        join_st = "SELECT * FROM S, T WHERE S.c = T.c"
        assert 0 < key_calls(join_rs) <= len(database.interner)
        assert key_calls(join_rs) == 0
        assert key_calls(join_st) == 0
        size = len(database.interner)
        database.create_table_columns("U", ["e"], [[99]])
        assert len(database.interner) == size + 1
        # One rebuild of the rank table: one key per interned value.
        assert key_calls(join_st) == len(database.interner)
        assert key_calls(join_st) == 0

    def test_canonical_form_memo_is_per_hypergraph(self):
        from repro.hypergraph.canonical import canonical_form
        from repro.hypergraph.library import cycle_hypergraph

        first, second = cycle_hypergraph(5), cycle_hypergraph(5)
        assert canonical_form(first) is canonical_form(first)
        assert canonical_form(first) is not canonical_form(second)
        assert canonical_form(first).fingerprint == canonical_form(second).fingerprint


class TestRows:
    def test_full_rows_are_sorted_and_distinct(self, database):
        result = run_query("SELECT * FROM R, S WHERE R.b = S.b", database, cache=None)
        assert result.rows == sorted(set(result.rows))
        assert result.value == len(result.rows)
        assert result.columns == tuple(sorted(result.columns))

    def test_aggregate_rows_wrap_the_value(self, database):
        result = run_query(
            "SELECT MIN(a) FROM R, S WHERE R.b = S.b", database, cache=None
        )
        assert result.rows == [(result.value,)]
        assert result.columns[0].startswith("min_")

    def test_repeated_variable_within_atom_executes_as_selection(self, database):
        # T.c = T.d within one occurrence: only rows with c == d survive.
        # T has (6, 6) as its only agreeing row; S rows with c == 6 join it.
        result = run_query(
            "SELECT COUNT(b) FROM S, T WHERE T.c = T.d AND S.c = T.c",
            database,
            cache=None,
        )
        assert result.outcome.complete
        assert result.value == 1

    def test_conjunctive_query_object_accepted(self, database):
        from repro.db.sqlish import parse_select_query

        query = parse_select_query(TRIANGLE_SQL, database, name="triangle")
        via_object = run_query(query, database, cache=None)
        via_text = run_query(TRIANGLE_SQL, database, cache=None)
        assert via_object.value == via_text.value
        assert via_object.width == via_text.width == 2


class TestCacheTrust:
    def test_warm_run_hits_recertifies_and_matches(self, database, tmp_path):
        store = DecompositionCache(str(tmp_path))
        cold = run_query(TRIANGLE_SQL, database, cache=store)
        assert cold.provenance == "solve"
        warm = run_query(TRIANGLE_SQL, database, cache=store)
        assert warm.provenance == "cache"
        assert store.stats.hits >= 1
        assert warm.rows == cold.rows and warm.value == cold.value
        assert warm.width == cold.width

    def test_isomorphic_query_served_from_the_same_entry(self, database, tmp_path):
        store = DecompositionCache(str(tmp_path))
        run_query("SELECT * FROM R, S WHERE R.b = S.b", database, cache=store)
        stored = len(store.entries())
        hit = run_query("SELECT * FROM S, T WHERE S.c = T.c", database, cache=store)
        assert hit.provenance == "cache"
        assert len(store.entries()) == stored  # no new entry needed
        # And the mapped decomposition answers correctly for the new query.
        direct = run_query("SELECT * FROM S, T WHERE S.c = T.c", database, cache=None)
        assert hit.rows == direct.rows


PAPER_NAMES = [entry.name for entry in benchmark_queries()]
BENCHMARK_NAMES = PAPER_NAMES + [entry.name for entry in joblite_benchmark_queries()]


@pytest.fixture(scope="module")
def benchmark_runs(tmp_path_factory):
    """Each of the sixteen texts at scale 1, cold then warm through one
    cache (isomorphic shapes share entries), plus the plain-join baseline."""
    store = DecompositionCache(str(tmp_path_factory.mktemp("ctd-cache")))
    runs = {}
    for name in BENCHMARK_NAMES:
        database, query = benchmark_query(name).load(scale=1.0)
        cold = run_query(query, database, cache=store)
        warm = run_query(query, database, cache=store)
        runs[name] = (cold, warm, BaselineExecutor(database, query).execute())
    return store, runs


class TestBenchmarkTexts:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_cold_and_warm_answers_match_the_baseline(self, benchmark_runs, name):
        _, runs = benchmark_runs
        cold, warm, baseline = runs[name]
        assert cold.outcome.complete
        # A shape already stored by an isomorphic text may hit on the first
        # run; the second run must hit either way.
        assert warm.provenance == "cache"
        assert warm.value == cold.value == baseline.result

    def test_every_hit_recertified_cleanly(self, benchmark_runs):
        store, _ = benchmark_runs
        assert store.stats.hits >= len(BENCHMARK_NAMES)
        assert store.stats.rejected == store.stats.quarantined == 0

    def test_paper_queries_touch_fewer_tuples_than_the_baseline(self, benchmark_runs):
        # Deterministic work (tuples read + written), not wall-clock: the
        # geomean over the six Table-1 queries of baseline / warm front door.
        _, runs = benchmark_runs
        ratios = [
            baseline.work / (warm.solve_work + warm.execution_work)
            for _, warm, baseline in (runs[name] for name in PAPER_NAMES)
        ]
        assert math.prod(ratios) ** (1 / len(ratios)) >= 2.0


class TestErrorsAndBudgets:
    def test_impossible_width_is_a_user_error(self, database):
        # The triangle needs width 2; pinning width=1 must fail loudly.
        with pytest.raises(UserError, match="no decomposition of width <= 1"):
            run_query(TRIANGLE_SQL, database, width=1, cache=None)

    def test_malformed_sql_raises_user_error(self, database):
        from repro.db.sqlish import SqlError

        with pytest.raises(SqlError):
            run_query("SELEKT a FROM R", database, cache=None)

    def test_budget_exhaustion_returns_no_rows_with_honest_counters(self, database):
        budget = Budget(max_work=30)
        result = run_query(TRIANGLE_SQL, database, cache=None, budget=budget)
        assert result.outcome.partial
        assert result.rows is None and result.value is None
        assert result.outcome.work > 0
        assert result.outcome.exit_code == 125

    def test_one_budget_governs_solve_and_execution(self, database):
        # Generous enough for the solve, too tight for the whole execution.
        unbounded = run_query(TRIANGLE_SQL, database, cache=None)
        budget = Budget(max_work=unbounded.execution_work // 2)
        result = run_query(TRIANGLE_SQL, database, cache=None, budget=budget)
        assert result.outcome.partial
        assert result.rows is None
