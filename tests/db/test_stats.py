"""Unit tests for table statistics and the cardinality estimator."""

import pytest

from repro.db.cost import EstimateCostModel, make_cost_preference
from repro.db.database import Database
from repro.db.executor import BaselineExecutor
from repro.db.frontdoor import run_query
from repro.db.query import ConjunctiveQuery, atom
from repro.db.relation import Relation
from repro.db.stats import CardinalityEstimator


@pytest.fixture
def database():
    db = Database()
    db.create_table("R", ["a", "b"], [(i, i % 5) for i in range(50)])
    db.create_table("S", ["b", "c"], [(i % 5, i) for i in range(20)])
    db.create_table("T", ["c", "d"], [(i, i) for i in range(20)])
    return db


@pytest.fixture
def estimator(database):
    return CardinalityEstimator(database)


class TestStatistics:
    def test_row_and_distinct_counts(self, estimator):
        stats = estimator.statistics("R")
        assert stats.row_count == 50
        assert stats.distinct("a") == 50
        assert stats.distinct("b") == 5
        assert stats.distinct("missing") == 1

    def test_statistics_are_cached(self, estimator):
        assert estimator.statistics("R") is estimator.statistics("R")


class TestOneEstimatorPerDatabase:
    def test_every_default_call_site_shares_the_database_estimator(self, database):
        query = ConjunctiveQuery(
            atoms=[atom("R", "R", {"a": "x", "b": "y"}), atom("S", "S", {"b": "y", "c": "z"})],
            name="rs",
        )
        shared = database.estimator
        assert isinstance(shared, CardinalityEstimator)
        assert database.estimator is shared
        assert BaselineExecutor(database, query).estimator is shared
        assert EstimateCostModel(query, database).estimator is shared
        # The harness's cost columns read the one memoised estimate model.
        preference = make_cost_preference("estimates", query, database)
        assert preference.node_cost.__self__.estimator is shared

    def test_column_statistics_are_computed_once_across_requests(
        self, database, monkeypatch
    ):
        passes = []
        original = Relation.distinct_counts
        monkeypatch.setattr(
            Relation,
            "distinct_counts",
            lambda self: passes.append(self.name) or original(self),
        )
        sql = "SELECT COUNT(a) FROM R, S, T WHERE R.b = S.b AND S.c = T.c"
        first = run_query(sql, database, cache=None)
        BaselineExecutor(database, first.plan.query).execute()
        assert run_query(sql, database, cache=None).value == first.value
        assert sorted(passes) == sorted(set(passes))


class TestCardinalityEstimates:
    def test_single_atom_estimate_is_row_count(self, estimator):
        r = atom("R0", "R", {"a": "x", "b": "y"})
        assert estimator.estimate_join_cardinality([r]) == 50

    def test_key_foreign_key_join_estimate(self, estimator):
        r = atom("R0", "R", {"a": "x", "b": "y"})
        s = atom("S0", "S", {"b": "y", "c": "z"})
        # |R| * |S| / max(d_R(b), d_S(b)) = 50 * 20 / 5 = 200.
        assert estimator.estimate_join_cardinality([r, s]) == pytest.approx(200.0)

    def test_estimate_never_below_one(self, estimator):
        r = atom("R0", "R", {"a": "x"})
        t = atom("T0", "T", {"c": "x"})
        assert estimator.estimate_join_cardinality([r, t]) >= 1.0

    def test_empty_atom_list(self, estimator):
        assert estimator.estimate_join_cardinality([]) == 0.0


class TestPlanCost:
    def test_single_atom_cost_is_scan_cost(self, estimator):
        r = atom("R0", "R", {"a": "x", "b": "y"})
        assert estimator.estimate_plan_cost([r]) == pytest.approx(50.0)

    def test_join_cost_exceeds_scan_costs(self, estimator):
        r = atom("R0", "R", {"a": "x", "b": "y"})
        s = atom("S0", "S", {"b": "y", "c": "z"})
        assert estimator.estimate_plan_cost([r, s]) > 70.0

    def test_greedy_join_order_contains_all_atoms(self, estimator):
        atoms = [
            atom("R0", "R", {"a": "x", "b": "y"}),
            atom("S0", "S", {"b": "y", "c": "z"}),
            atom("T0", "T", {"c": "z", "d": "w"}),
        ]
        order = estimator.greedy_join_order(atoms)
        assert {a.alias for a in order} == {"R0", "S0", "T0"}
        # Greedy starts from the smallest relation.
        assert order[0].relation in {"S", "T"}

    def test_semijoin_selectivity_bounds(self, estimator):
        r = atom("R0", "R", {"a": "x", "b": "y"})
        s = atom("S0", "S", {"b": "y", "c": "z"})
        t = atom("T0", "T", {"c": "w", "d": "u"})
        assert 0.0 < estimator.estimate_semijoin_selectivity([r], [s]) <= 1.0
        assert estimator.estimate_semijoin_selectivity([r], [t]) == 1.0
