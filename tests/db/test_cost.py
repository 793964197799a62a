"""Unit tests for the cost functions of Appendix C.2."""

import pytest

from repro.core.candidate_bags import soft_candidate_bags
from repro.core.enumerate import enumerate_ctds
from repro.db.cost import (
    CardinalityCostModel,
    EstimateCostModel,
    make_cost_preference,
)
from repro.db.database import Database
from repro.db.query import Atom, ConjunctiveQuery
from repro.decompositions.td import TreeDecomposition
from repro.workloads.tpcds import build_tpcds_database, tpcds_query_qds


@pytest.fixture(scope="module")
def tpcds():
    database = build_tpcds_database(scale=0.1)
    query = tpcds_query_qds(database)
    return database, query


def decompositions_for(query, limit=4):
    hypergraph = query.hypergraph()
    return enumerate_ctds(hypergraph, soft_candidate_bags(hypergraph, 2), limit=limit)


class TestCardinalityCostModel:
    def test_single_atom_bags_cost_nothing(self, triangle_database, triangle_query):
        model = CardinalityCostModel(triangle_query, triangle_database)
        assert model.node_cost(frozenset({"x", "y"})) == 0.0

    def test_multi_atom_bag_cost_positive(self, triangle_database, triangle_query):
        model = CardinalityCostModel(triangle_query, triangle_database)
        assert model.node_cost(frozenset({"x", "y", "z"})) > 0.0

    def test_bag_cardinality_matches_actual_join(self, triangle_database, triangle_query):
        model = CardinalityCostModel(triangle_query, triangle_database)
        # A single-atom bag is just the projection of that atom's relation.
        assert model.bag_cardinality(frozenset({"x", "y"})) == len(
            triangle_database.relation("R").project(["a", "b"])
        )
        # The full bag joins only its λ-cover (two of the three atoms), so it
        # is at least as large as the actual triangle count.
        from tests.conftest import brute_force_triangle_count

        assert model.bag_cardinality(
            frozenset({"x", "y", "z"})
        ) >= brute_force_triangle_count(triangle_database)

    def test_bag_cardinality_is_cached(self, triangle_database, triangle_query):
        model = CardinalityCostModel(triangle_query, triangle_database)
        bag = frozenset({"x", "y", "z"})
        assert model.bag_cardinality(bag) == model.bag_cardinality(bag)

    def test_reduce_attributes_exclude_primary_keys(self, tpcds):
        database, query = tpcds
        model = CardinalityCostModel(query, database)
        decomposition = decompositions_for(query, limit=1)[0]
        root = decomposition.tree.root
        reduce_attrs = model.reduce_attributes(decomposition, root)
        assert reduce_attrs <= decomposition.bag(root)

    def test_decomposition_cost_positive_and_deterministic(self, tpcds):
        database, query = tpcds
        decomposition = decompositions_for(query, limit=1)[0]
        first = CardinalityCostModel(query, database).decomposition_cost(decomposition)
        second = CardinalityCostModel(query, database).decomposition_cost(decomposition)
        assert first == second > 0


class TestEstimateCostModel:
    def test_single_atom_bags_cost_nothing(self, triangle_database, triangle_query):
        model = EstimateCostModel(triangle_query, triangle_database)
        assert model.node_cost(frozenset({"x", "y"})) == 0.0

    def test_estimate_cost_positive(self, tpcds):
        database, query = tpcds
        decomposition = decompositions_for(query, limit=1)[0]
        assert EstimateCostModel(query, database).decomposition_cost(decomposition) > 0

    def test_semijoin_extra_cost_at_least_one(self, triangle_database, triangle_query):
        model = EstimateCostModel(triangle_query, triangle_database)
        assert model._semijoin_extra_cost(frozenset({"x", "y"}), frozenset({"y", "z"})) >= 1.0

    def test_semijoin_extra_cost_depends_on_the_child_bag(self):
        # Equation (6): the semi-join term is C(J_p ⋉ J_c) − C(J_p) − C(J_c),
        # so two different children of the same parent must be able to yield
        # different extra costs.  Regression test for the bug where the
        # child bag was ignored and the term degenerated to the parent's
        # join cardinality.
        database = Database()
        database.create_table("R", ["a", "b"], [(i, i % 3) for i in range(30)])
        database.create_table("S", ["b", "c"], [(i % 3, i) for i in range(200)])
        database.create_table("T", ["c", "d"], [(i, i) for i in range(5)])
        query = ConjunctiveQuery(
            atoms=[
                Atom("R", "R", ("a", "b"), ("x", "y")),
                Atom("S", "S", ("b", "c"), ("y", "z")),
                Atom("T", "T", ("c", "d"), ("z", "w")),
            ],
            name="path",
        )
        model = EstimateCostModel(query, database)
        parent = frozenset({"y", "z"})
        small_child = frozenset({"z", "w"})
        large_child = frozenset({"x", "y"})
        small_cost = model._semijoin_extra_cost(parent, small_child)
        large_cost = model._semijoin_extra_cost(parent, large_child)
        assert small_cost >= 1.0 and large_cost >= 1.0
        assert small_cost != large_cost

    def test_estimate_preference_is_monotone(self, triangle_database, triangle_query):
        preference = make_cost_preference("estimates", triangle_query, triangle_database)
        assert preference.monotone
        model = EstimateCostModel(triangle_query, triangle_database)
        decomposition = TreeDecomposition.from_bags(
            triangle_query.hypergraph(),
            [{"x", "y", "z"}, {"x", "y"}],
            [None, 0],
        )
        assert preference.key(decomposition) == model.decomposition_cost(decomposition)


class TestCostPreferences:
    def test_make_cost_preference_kinds(self, tpcds):
        database, query = tpcds
        decomposition = decompositions_for(query, limit=1)[0]
        for kind in ("estimates", "cardinalities"):
            preference = make_cost_preference(kind, query, database)
            assert preference.key(decomposition) > 0
        with pytest.raises(ValueError):
            make_cost_preference("bogus", query, database)

    def test_preference_orders_decompositions_consistently(self, tpcds):
        database, query = tpcds
        decompositions = decompositions_for(query, limit=4)
        preference = make_cost_preference("cardinalities", query, database)
        keys = [preference.key(d) for d in decompositions]
        assert all(isinstance(k, float) for k in keys)

    def test_costs_differ_between_decompositions(self, tpcds):
        database, query = tpcds
        decompositions = decompositions_for(query, limit=6)
        model = CardinalityCostModel(query, database)
        costs = {round(model.decomposition_cost(d), 3) for d in decompositions}
        assert len(costs) > 1
