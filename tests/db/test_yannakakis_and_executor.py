"""Unit and integration tests for Yannakakis execution and the executors."""

import pytest

from repro.core.candidate_bags import soft_candidate_bags
from repro.core.enumerate import enumerate_ctds
from repro.decompositions.td import TreeDecomposition
from repro.decompositions.tree import TreeNode
from repro.db.database import Database
from repro.db.query import Atom, ConjunctiveQuery
from repro.db.executor import BaselineExecutor, DecompositionExecutor
from repro.db.reference import as_reference_database
from repro.db.relation import WorkCounter
from repro.db.yannakakis import (
    NodePlan,
    YannakakisExecutor,
    atom_relation,
    choose_cover,
    run_yannakakis,
)
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


class TestMaxIntermediate:
    def test_counts_every_join_of_the_fold_not_only_its_endpoints(self, star_database):
        # Root {b,c} with the variable-disjoint siblings {a,b} and {c,d}:
        # folding the siblings together before their parent would build
        # their 3 x 3 cross product on the way to a 5-row answer.
        query = ConjunctiveQuery(atoms=_star_query(None).atoms[:3], name="path")
        decomposition = TreeDecomposition.from_bags(
            query.hypergraph(), [{"b", "c"}, {"a", "b"}, {"c", "d"}], [None, 0, 0]
        )
        for database in (star_database, as_reference_database(star_database)):
            run = YannakakisExecutor(database, query).execute(
                decomposition, materialize_result=True
            )
            assert sorted(run.reduced_sizes.values()) == [2, 3, 3]
            assert len(run.result) == 5
            assert run.fold_sizes == [3, 5]
            assert run.max_intermediate == max(
                max(run.node_sizes.values()), len(run.result)
            ) == 5


@pytest.fixture
def bag_database():
    """Tables for every shape of bag join; ``R2`` ranges over R's variables."""
    database = Database()
    database.create_table("R", ["a", "b"], [(1, 1), (2, 1), (3, 2), (9, 7), (4, 2)])
    database.create_table("R2", ["a", "b"], [(1, 1), (3, 2), (5, 5)])
    database.create_table("S", ["b", "c"], [(1, 5), (2, 6), (2, 8), (4, 5)])
    database.create_table("T", ["c", "d"], [(5, 40), (5, 41), (8, 42), (3, 43)])
    database.create_table("W", ["a", "c"], [(1, 5), (3, 8), (3, 6), (2, 9)])
    database.create_table("K", ["b"], [(1,), (7,)])
    return database


def _bag_query():
    return ConjunctiveQuery(
        atoms=[
            Atom("R", "R", ("a", "b"), ("a", "b")),
            Atom("R2", "R2", ("a", "b"), ("a", "b")),
            Atom("S", "S", ("b", "c"), ("b", "c")),
            Atom("T", "T", ("c", "d"), ("c", "d")),
            Atom("W", "W", ("a", "c"), ("a", "c")),
            Atom("K", "K", ("b",), ("b",)),
        ],
        name="bags",
    )


def _naive_bag_rows(database, query, bag, cover, enforced):
    """``π_bag(⋈ cover) ⋉ enforced``, in cover order, as a set of dict rows."""
    relation = atom_relation(database, query.atom(cover[0]))
    for alias in cover[1:]:
        relation = relation.natural_join(atom_relation(database, query.atom(alias)))
    relation = relation.project([a for a in relation.attributes if a in bag])
    for alias in enforced:
        relation = relation.semijoin(atom_relation(database, query.atom(alias)))
    return _row_set(relation)


def _row_set(relation):
    return {frozenset(zip(relation.attributes, row)) for row in relation.rows}


class TestFilterFirstBagJoin:
    @pytest.mark.parametrize(
        "bag, cover, enforced",
        [
            ("ab", ["R"], []),
            ("b", ["R"], ["K"]),
            # An enforced atom over exactly the variables of a cover atom.
            ("ab", ["R"], ["R2"]),
            ("ab", ["R2"], ["R", "K"]),
            ("abc", ["R", "S"], ["W"]),
            ("abc", ["R", "S"], ["W", "R2", "K"]),
            ("ac", ["R", "S"], ["W"]),
            # Cover atoms without a shared variable: a Cartesian product.
            ("abcd", ["R", "T"], []),
            ("ad", ["R", "T"], []),
            ("abcd", ["R", "T"], ["S", "K"]),
            ("abcd", ["R", "S", "T"], ["W", "K", "R2"]),
            ("bcd", ["T", "S", "R"], ["K"]),
        ],
    )
    def test_same_rows_as_the_naive_definition(self, bag_database, bag, cover, enforced):
        query = _bag_query()
        plan = NodePlan(
            node=TreeNode(0), bag=frozenset(bag), cover=cover, enforced_atoms=enforced
        )
        expected = _naive_bag_rows(bag_database, query, plan.bag, cover, enforced)
        for database in (bag_database, as_reference_database(bag_database)):
            counter, join_sizes = WorkCounter(), []
            relation = YannakakisExecutor(database, query)._materialize_bag(
                plan, counter, join_sizes
            )
            assert set(relation.attributes) == plan.bag
            assert len(relation.rows) == len(set(relation.rows))
            assert _row_set(relation) == expected
            # Members contained in another cost a semi-join, never a join.
            widest = {
                alias
                for alias in cover + enforced
                if not any(
                    set(query.atom(alias).variables) < set(query.atom(o).variables)
                    for o in cover + enforced
                )
            }
            assert len(join_sizes) <= len(widest) - 1

    def test_empty_cover_is_the_relational_true(self, bag_database):
        plan = NodePlan(node=TreeNode(0), bag=frozenset(), cover=[])
        relation = YannakakisExecutor(bag_database, _bag_query())._materialize_bag(
            plan, WorkCounter(), []
        )
        assert relation.attributes == ()
        assert relation.rows == [()]

    def test_skewed_cover_joins_through_the_enforced_atom_first(self):
        # cover = [A(x, s), B(y, s)] meet only on the two-valued s; the
        # enforced L(x, y) links them selectively.  Cover order builds
        # |A| * |B| / 2 rows; estimate order never exceeds |L|.
        database = Database()
        n = 40
        database.create_table("A", ["x", "s"], [(i, i % 2) for i in range(n)])
        database.create_table("B", ["y", "s"], [(i, i % 2) for i in range(n)])
        database.create_table("L", ["x", "y"], [(i, i) for i in range(n)])
        query = ConjunctiveQuery(
            atoms=[
                Atom("A", "A", ("x", "s"), ("x", "s")),
                Atom("B", "B", ("y", "s"), ("y", "s")),
                Atom("L", "L", ("x", "y"), ("x", "y")),
            ],
            name="skew",
        )
        plan = NodePlan(
            node=TreeNode(0), bag=frozenset("xys"), cover=["A", "B"], enforced_atoms=["L"]
        )
        join_sizes = []
        relation = YannakakisExecutor(database, query)._materialize_bag(
            plan, WorkCounter(), join_sizes
        )
        assert _row_set(relation) == _naive_bag_rows(
            database, query, plan.bag, ["A", "B"], ["L"]
        )
        assert len(relation) == n
        assert join_sizes == [n]
        # The same bag through execute(): stage 1 joins count towards
        # max_intermediate (cover order would have reported n * n / 2).
        decomposition = TreeDecomposition.from_bags(
            query.hypergraph(), [set("xys")], [None]
        )
        executor = YannakakisExecutor(database, query)
        assert [(p.cover, p.enforced_atoms) for p in executor.plan(decomposition)] == [
            (["A", "B"], ["L"])
        ]
        assert executor.execute(decomposition).max_intermediate == n
