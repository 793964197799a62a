"""Unit and integration tests for Yannakakis execution and the executors."""

import pytest

from repro.core.candidate_bags import soft_candidate_bags
from repro.core.enumerate import enumerate_ctds
from repro.decompositions.td import TreeDecomposition
from repro.db.database import Database
from repro.db.query import Atom, ConjunctiveQuery
from repro.db.executor import BaselineExecutor, DecompositionExecutor
from repro.db.yannakakis import YannakakisExecutor, atom_relation, choose_cover, run_yannakakis
from tests.conftest import brute_force_triangle_count


@pytest.fixture
def triangle_td(triangle_query):
    hypergraph = triangle_query.hypergraph()
    return TreeDecomposition.from_bags(
        hypergraph, [{"x", "y", "z"}], [None]
    )


class TestAtomRelations:
    def test_atom_relation_renames_to_variables(self, triangle_database, triangle_query):
        relation = atom_relation(triangle_database, triangle_query.atom("R"))
        assert set(relation.attributes) == {"x", "y"}
        assert len(relation) == len(triangle_database.relation("R"))

    def test_choose_cover_prefers_connected(self, four_cycle):
        cover = choose_cover(four_cycle, frozenset({"w", "x", "y"}), max_size=2)
        assert len(cover) == 2
        edges = [four_cycle.edge(name) for name in cover]
        assert edges[0].vertices & edges[1].vertices

    def test_choose_cover_empty_bag(self, four_cycle):
        assert choose_cover(four_cycle, frozenset()) == []

    def test_choose_cover_uncoverable_raises(self, four_cycle):
        with pytest.raises(ValueError):
            choose_cover(four_cycle, frozenset({"nope"}), max_size=1)


class TestYannakakis:
    def test_triangle_count_matches_brute_force(
        self, triangle_database, triangle_query, triangle_td
    ):
        run = run_yannakakis(triangle_database, triangle_query, triangle_td)
        assert run.result == brute_force_triangle_count(triangle_database)

    def test_min_aggregate_from_reduced_nodes(self, triangle_database, triangle_query):
        query = triangle_query
        query.aggregate = ("MIN", "x")
        hypergraph = query.hypergraph()
        decomposition = TreeDecomposition.from_bags(
            hypergraph, [{"x", "y", "z"}], [None]
        )
        run = run_yannakakis(triangle_database, query, decomposition)
        # Brute force: the minimal x participating in a triangle.
        expected = min(
            x
            for (x, y) in triangle_database.relation("R").rows
            for (y2, z) in triangle_database.relation("S").rows
            if y2 == y
            for (z2, x2) in triangle_database.relation("T").rows
            if z2 == z and x2 == x
        )
        assert run.result == expected
        materialized = YannakakisExecutor(triangle_database, query).execute(
            decomposition, materialize_result=True
        )
        assert materialized.result == expected

    def test_decomposition_must_cover_every_atom(self, triangle_database, triangle_query):
        hypergraph = triangle_query.hypergraph()
        bad = TreeDecomposition.from_bags(hypergraph, [{"x", "y"}], [None])
        with pytest.raises(ValueError):
            run_yannakakis(triangle_database, triangle_query, bad)

    def test_node_sizes_recorded(self, triangle_database, triangle_query, triangle_td):
        run = run_yannakakis(triangle_database, triangle_query, triangle_td)
        assert set(run.node_sizes) == {triangle_td.tree.root.node_id}
        assert run.max_intermediate >= max(run.node_sizes.values())
        assert run.work > 0


@pytest.fixture
def star_database():
    """A star R(a,b) - S(b,c), U(b,e) with a tail T(c,d); dangling rows everywhere."""
    database = Database()
    database.create_table("R", ["a", "b"], [(1, 1), (2, 1), (3, 2), (9, 7)])
    database.create_table("S", ["b", "c"], [(1, 5), (2, 6), (2, 8), (4, 5)])
    database.create_table("T", ["c", "d"], [(5, 40), (5, 41), (8, 42), (3, 43)])
    database.create_table("U", ["b", "e"], [(1, 70), (2, 71), (5, 72)])
    return database


def _star_query(aggregate):
    return ConjunctiveQuery(
        atoms=[
            Atom("R", "R", ("a", "b"), ("a", "b")),
            Atom("S", "S", ("b", "c"), ("b", "c")),
            Atom("T", "T", ("c", "d"), ("c", "d")),
            Atom("U", "U", ("b", "e"), ("b", "e")),
        ],
        aggregate=aggregate,
        name="star",
    )


def _star_decomposition(query):
    # Root {b,c}; children {a,b}, {c,d} and {b,e}: every variable but b and c
    # lives in exactly one non-root bag.
    return TreeDecomposition.from_bags(
        query.hypergraph(),
        [{"b", "c"}, {"a", "b"}, {"c", "d"}, {"b", "e"}],
        [None, 0, 0, 0],
    )


class TestSinglePassAggregates:
    @pytest.mark.parametrize("function", ["MIN", "MAX"])
    @pytest.mark.parametrize("variable", ["a", "b", "c", "d", "e"])
    def test_min_max_match_baseline_with_one_semijoin_pass(
        self, star_database, function, variable
    ):
        query = _star_query((function, variable))
        decomposition = _star_decomposition(query)
        run = YannakakisExecutor(star_database, query).execute(decomposition)
        assert run.result == BaselineExecutor(star_database, query).execute().result
        # Four single-atom bags: four projections, then one semi-join per
        # tree edge — not the two of the full reducer.
        assert run.counter.operations == 4 + 3
        full = YannakakisExecutor(star_database, query).execute(
            decomposition, materialize_result=True
        )
        assert full.result == run.result
        assert run.work < full.work

    def test_reduced_sizes_are_bottom_up_towards_the_aggregate_node(
        self, star_database
    ):
        query = _star_query(("MAX", "d"))
        decomposition = _star_decomposition(query)
        run = YannakakisExecutor(star_database, query).execute(decomposition)
        nodes = decomposition.tree.nodes()
        by_bag = {
            frozenset(decomposition.bag(node)): run.reduced_sizes[node.node_id]
            for node in nodes
        }
        # The pass runs towards {c,d}: it ends fully reduced (the (c,d)
        # pairs of the join), the leaves {a,b} and {b,e} are untouched.
        answers = _star_query(None)
        rows = BaselineExecutor(star_database, answers).execute().result
        assert by_bag[frozenset("cd")] == len(rows.project(["c", "d"]))
        assert by_bag[frozenset("ab")] == run.node_sizes[nodes[1].node_id] == 4
        assert by_bag[frozenset("be")] == 3

    def test_count_and_rows_keep_the_full_reducer(self, star_database):
        query = _star_query(("COUNT", "a"))
        decomposition = _star_decomposition(query)
        run = YannakakisExecutor(star_database, query).execute(decomposition)
        assert run.result == BaselineExecutor(star_database, query).execute().result
        # 4 projections + 2 x 3 semi-joins + 3 joins of the bag relations.
        assert run.counter.operations == 4 + 6 + 3

    def test_aggregate_variable_missing_from_every_bag_raises(self, star_database):
        query = _star_query(("MIN", "nope"))
        with pytest.raises(ValueError, match="does not occur in any bag"):
            YannakakisExecutor(star_database, query).execute(
                _star_decomposition(query)
            )

    def test_execute_reuses_the_plan_of_the_same_decomposition(
        self, star_database, monkeypatch
    ):
        query = _star_query(("MIN", "a"))
        decomposition = _star_decomposition(query)
        executor = YannakakisExecutor(star_database, query)
        plans = executor.plan(decomposition)
        calls = []
        original = YannakakisExecutor.plan
        monkeypatch.setattr(
            YannakakisExecutor,
            "plan",
            lambda self, d: calls.append(d) or original(self, d),
        )
        executor.execute(decomposition)
        assert calls == []
        # Another decomposition object is planned afresh.
        other = _star_decomposition(query)
        executor.execute(other)
        assert calls == [other]
        assert [p.cover for p in executor.plan(other)] == [p.cover for p in plans]


class TestExecutorsAgree:
    def test_executors_agree_on_triangle(self, triangle_database, triangle_query):
        hypergraph = triangle_query.hypergraph()
        decomposition = TreeDecomposition.from_bags(
            hypergraph, [{"x", "y", "z"}], [None]
        )
        decomposition_result = DecompositionExecutor(
            triangle_database, triangle_query
        ).execute(decomposition)
        baseline_result = BaselineExecutor(triangle_database, triangle_query).execute()
        assert decomposition_result.result == baseline_result.result

    def test_all_ctds_give_same_answer_on_tpcds(self):
        from repro.workloads.tpcds import build_tpcds_database, tpcds_query_qds

        database = build_tpcds_database(scale=0.1)
        query = tpcds_query_qds(database)
        hypergraph = query.hypergraph()
        decompositions = enumerate_ctds(
            hypergraph, soft_candidate_bags(hypergraph, 2), limit=4
        )
        assert decompositions
        executor = DecompositionExecutor(database, query)
        results = {executor.execute(d).result for d in decompositions}
        baseline = BaselineExecutor(database, query).execute()
        assert results == {baseline.result}

    def test_metrics_fields(self, triangle_database, triangle_query):
        baseline = BaselineExecutor(triangle_database, triangle_query).execute()
        assert baseline.work > 0
        assert baseline.max_intermediate >= 0
        assert baseline.wall_time >= 0.0
        assert "work" in repr(baseline)
