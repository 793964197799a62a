"""Equivalence of the columnar relation engine with the tuple-engine spec.

The columnar kernel (:mod:`repro.db.relation`: dictionary-encoded numpy code
columns, radix-packed keys, table or sort kernels for dedup, semi-join
membership and join grouping) must be *observationally identical* to the seed tuple-at-a-time
engine preserved in :mod:`repro.db.reference`: identical row sets, identical
:class:`WorkCounter` totals (reads, writes and operation counts), identical
aggregates, and identical end-to-end Yannakakis runs.  These tests drive
both engines over a seeded grid of random relations, databases and queries
(deterministic, unlike hypothesis's example database) and over the paper's
six benchmark queries on generated data, with empty relations,
empty bags and zero-arity relations included explicitly.  Every kernel path
(table and sort, direct and densified packing) is forced in turn through the
module's two internal constants and held to the same spec, and the
``_distinct`` flag is checked over random operator sequences.
"""

import random

import numpy as np
import pytest

from repro.core.candidate_bags import soft_candidate_bags
from repro.core.enumerate import enumerate_ctds
from repro.db import relation as relation_module
from repro.db.database import Database
from repro.db.interner import CODE_DTYPE, ValueInterner
from repro.db.query import Atom, ConjunctiveQuery
from repro.db.reference import ReferenceRelation, as_reference_database
from repro.db.relation import Relation, WorkCounter
from repro.db.stats import CardinalityEstimator
from repro.db.yannakakis import YannakakisExecutor
from repro.decompositions.td import TreeDecomposition
from repro.workloads.registry import benchmark_queries, benchmark_query

ATTRS = ("a", "b", "c", "d")


def _random_relation_data(rng, min_arity=1, max_arity=3, domain=6, max_rows=30):
    """A random schema over a shared attribute pool plus random rows."""
    arity = rng.randint(min_arity, max_arity)
    attributes = rng.sample(ATTRS, arity)
    num_rows = rng.choice([0, 1, rng.randint(2, max_rows)])
    rows = [
        tuple(rng.randrange(domain) for _ in range(arity)) for _ in range(num_rows)
    ]
    return attributes, rows


def _pair(name, attributes, rows):
    """The same data on both engines (independent interner for the columnar)."""
    return Relation(name, attributes, rows), ReferenceRelation(name, attributes, rows)


def _assert_same_relation(columnar, reference):
    assert tuple(columnar.attributes) == tuple(reference.attributes)
    assert len(columnar) == len(reference)
    assert sorted(columnar.rows) == sorted(reference.rows)


def _assert_same_counter(columnar_counter, reference_counter):
    assert (
        columnar_counter.tuples_read,
        columnar_counter.tuples_written,
        columnar_counter.operations,
    ) == (
        reference_counter.tuples_read,
        reference_counter.tuples_written,
        reference_counter.operations,
    )


SEEDS = list(range(12))


class TestOperatorEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_project_matches_reference(self, seed):
        rng = random.Random(f"proj-{seed}")
        attributes, rows = _random_relation_data(rng)
        columnar, reference = _pair("R", attributes, rows)
        for _ in range(4):
            subset = rng.sample(attributes, rng.randint(0, len(attributes)))
            cc, rc = WorkCounter(), WorkCounter()
            _assert_same_relation(
                columnar.project(subset, counter=cc),
                reference.project(subset, counter=rc),
            )
            _assert_same_counter(cc, rc)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_project_preserves_first_occurrence_order(self, seed):
        rng = random.Random(f"projord-{seed}")
        attributes, rows = _random_relation_data(rng, domain=3)
        columnar, reference = _pair("R", attributes, rows)
        subset = rng.sample(attributes, rng.randint(1, len(attributes)))
        # Not just the same set: the same first-occurrence row order.
        assert columnar.project(subset).rows == reference.project(subset).rows

    @pytest.mark.parametrize("seed", SEEDS)
    def test_semijoin_matches_reference(self, seed):
        rng = random.Random(f"semi-{seed}")
        left_attrs, left_rows = _random_relation_data(rng)
        right_attrs, right_rows = _random_relation_data(rng)
        left_c, left_r = _pair("L", left_attrs, left_rows)
        right_c, right_r = _pair("R", right_attrs, right_rows)
        cc, rc = WorkCounter(), WorkCounter()
        _assert_same_relation(
            left_c.semijoin(right_c, counter=cc),
            left_r.semijoin(right_r, counter=rc),
        )
        _assert_same_counter(cc, rc)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_natural_join_matches_reference(self, seed):
        rng = random.Random(f"join-{seed}")
        left_attrs, left_rows = _random_relation_data(rng)
        right_attrs, right_rows = _random_relation_data(rng)
        left_c, left_r = _pair("L", left_attrs, left_rows)
        right_c, right_r = _pair("R", right_attrs, right_rows)
        cc, rc = WorkCounter(), WorkCounter()
        _assert_same_relation(
            left_c.natural_join(right_c, counter=cc),
            left_r.natural_join(right_r, counter=rc),
        )
        _assert_same_counter(cc, rc)

    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_select_rename_and_basics_match_reference(self, seed):
        rng = random.Random(f"misc-{seed}")
        attributes, rows = _random_relation_data(rng)
        columnar, reference = _pair("R", attributes, rows)
        pivot = attributes[0]
        cc, rc = WorkCounter(), WorkCounter()
        _assert_same_relation(
            columnar.select(lambda b: b[pivot] % 2 == 0, counter=cc),
            reference.select(lambda b: b[pivot] % 2 == 0, counter=rc),
        )
        _assert_same_counter(cc, rc)
        mapping = {pivot: "renamed"}
        assert (
            columnar.rename("R2", mapping).rows == reference.rename("R2", mapping).rows
        )
        for attribute in attributes:
            assert columnar.column(attribute) == reference.column(attribute)
            assert columnar.distinct_count(attribute) == reference.distinct_count(
                attribute
            )
        assert columnar.distinct_counts() == reference.distinct_counts()

    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_aggregates_match_reference(self, seed):
        rng = random.Random(f"agg-{seed}")
        attributes, rows = _random_relation_data(rng)
        columnar, reference = _pair("R", attributes, rows)
        for attribute in attributes:
            for function in ("MIN", "MAX", "COUNT"):
                assert columnar.aggregate(function, attribute) == reference.aggregate(
                    function, attribute
                ), (function, attribute)

    def test_mixed_type_columns_match_reference(self):
        rows = [(1, "x"), (2, "y"), (1, "x"), (3, "z"), (2, "w")]
        columnar, reference = _pair("M", ["n", "s"], rows)
        _assert_same_relation(columnar.project(["s"]), reference.project(["s"]))
        assert columnar.aggregate("MIN", "s") == reference.aggregate("MIN", "s")
        assert columnar.aggregate("MAX", "n") == reference.aggregate("MAX", "n")
        other_c, other_r = _pair("O", ["s"], [("x",), ("z",), ("q",)])
        _assert_same_relation(
            columnar.semijoin(other_c), reference.semijoin(other_r)
        )


class TestEdgeCaseEquivalence:
    def test_empty_relations_through_all_operators(self):
        empty_c, empty_r = _pair("E", ["a", "b"], [])
        full_c, full_r = _pair("F", ["b", "c"], [(1, 2), (2, 3)])
        for cols in (["a"], ["a", "b"], []):
            cc, rc = WorkCounter(), WorkCounter()
            _assert_same_relation(
                empty_c.project(cols, counter=cc), empty_r.project(cols, counter=rc)
            )
            _assert_same_counter(cc, rc)
        for left, right in (
            (empty_c, full_c),
            (full_c, empty_c),
            (empty_c, empty_c),
        ):
            ref_left = {id(empty_c): empty_r, id(full_c): full_r}[id(left)]
            ref_right = {id(empty_c): empty_r, id(full_c): full_r}[id(right)]
            cc, rc = WorkCounter(), WorkCounter()
            _assert_same_relation(
                left.natural_join(right, counter=cc),
                ref_left.natural_join(ref_right, counter=rc),
            )
            _assert_same_counter(cc, rc)
            cc, rc = WorkCounter(), WorkCounter()
            _assert_same_relation(
                left.semijoin(right, counter=cc),
                ref_left.semijoin(ref_right, counter=rc),
            )
            _assert_same_counter(cc, rc)
        assert empty_c.aggregate("MIN", "a") is None
        assert empty_c.aggregate("COUNT", "a") == 0

    def test_zero_arity_relations_match_reference(self):
        # J-relations of empty bags: zero attributes, zero or one (empty) row.
        true_c, true_r = _pair("T", [], [()])
        false_c, false_r = _pair("F", [], [])
        full_c, full_r = _pair("R", ["a"], [(1,), (2,)])
        for zero_c, zero_r in ((true_c, true_r), (false_c, false_r)):
            cc, rc = WorkCounter(), WorkCounter()
            _assert_same_relation(
                full_c.semijoin(zero_c, counter=cc),
                full_r.semijoin(zero_r, counter=rc),
            )
            _assert_same_counter(cc, rc)
            cc, rc = WorkCounter(), WorkCounter()
            _assert_same_relation(
                zero_c.natural_join(full_c, counter=cc),
                zero_r.natural_join(full_r, counter=rc),
            )
            _assert_same_counter(cc, rc)
            _assert_same_relation(zero_c.distinct(), zero_r.distinct())
        assert true_c.aggregate("COUNT", "whatever") == 1

    def test_no_shared_attributes_is_cartesian_on_both_engines(self):
        a_c, a_r = _pair("A", ["x"], [(1,), (2,)])
        b_c, b_r = _pair("B", ["y"], [(3,), (4,), (5,)])
        cc, rc = WorkCounter(), WorkCounter()
        _assert_same_relation(
            a_c.natural_join(b_c, counter=cc), a_r.natural_join(b_r, counter=rc)
        )
        _assert_same_counter(cc, rc)

    def test_duplicate_rows_keep_join_multiplicities(self):
        left_rows = [(1, 2), (1, 2), (2, 3)]
        right_rows = [(2, 9), (2, 9), (2, 8)]
        left_c, left_r = _pair("L", ["a", "b"], left_rows)
        right_c, right_r = _pair("R", ["b", "c"], right_rows)
        _assert_same_relation(
            left_c.natural_join(right_c), left_r.natural_join(right_r)
        )


def _random_database_and_query(seed):
    """A random 3-atom path/triangle query over both engines' databases."""
    rng = random.Random(f"db-{seed}")
    domain = rng.randint(3, 8)

    def rows(arity, count):
        return [
            tuple(rng.randrange(domain) for _ in range(arity)) for _ in range(count)
        ]

    r_rows = rows(2, rng.randint(0, 25))
    s_rows = rows(2, rng.randint(0, 25))
    t_rows = rows(2, rng.randint(0, 25))
    database = Database()
    database.create_table("R", ["a", "b"], r_rows)
    database.create_table("S", ["b", "c"], s_rows)
    database.create_table("T", ["c", "a"], t_rows, primary_key="c")
    triangle = rng.random() < 0.5
    atoms = [
        Atom("R", "R", ("a", "b"), ("x", "y")),
        Atom("S", "S", ("b", "c"), ("y", "z")),
        Atom("T", "T", ("c", "a"), ("z", "x") if triangle else ("z", "w")),
    ]
    aggregate = rng.choice([("MIN", "x"), ("MAX", "y"), ("COUNT", "x"), None])
    query = ConjunctiveQuery(atoms=atoms, aggregate=aggregate, name=f"q{seed}")
    return database, query


def _decompositions_for(query):
    hypergraph = query.hypergraph()
    variables = set(map(str, hypergraph.vertices))
    single = TreeDecomposition.from_bags(hypergraph, [variables], [None])
    decompositions = [single]
    if "w" in variables:
        # A genuine two-bag path decomposition exercising the reducer passes.
        decompositions.append(
            TreeDecomposition.from_bags(
                hypergraph,
                [{"x", "y", "z"}, {"z", "w", "x"}],
                [None, 0],
            )
        )
        # An empty bag riding along exercises the zero-arity J-relation path.
        decompositions.append(
            TreeDecomposition.from_bags(
                hypergraph,
                [variables, set()],
                [None, 0],
            )
        )
    return decompositions


def _assert_same_run(columnar_run, reference_run):
    columnar_result, reference_result = columnar_run.result, reference_run.result
    if hasattr(columnar_result, "rows"):
        assert sorted(columnar_result.rows) == sorted(reference_result.rows)
    else:
        assert columnar_result == reference_result
    assert columnar_run.node_sizes == reference_run.node_sizes
    assert columnar_run.reduced_sizes == reference_run.reduced_sizes
    assert columnar_run.max_intermediate == reference_run.max_intermediate
    _assert_same_counter(columnar_run.counter, reference_run.counter)


class TestYannakakisEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_full_runs_match_reference(self, seed):
        database, query = _random_database_and_query(seed)
        reference_db = as_reference_database(database)
        assert isinstance(
            reference_db.relation("R"), ReferenceRelation
        )  # sanity: the spec engine really is in play
        for decomposition in _decompositions_for(query):
            columnar_run = YannakakisExecutor(database, query).execute(decomposition)
            reference_run = YannakakisExecutor(reference_db, query).execute(
                decomposition
            )
            _assert_same_run(columnar_run, reference_run)

    @pytest.mark.parametrize("seed", range(4))
    def test_materialized_runs_match_reference(self, seed):
        database, query = _random_database_and_query(seed)
        reference_db = as_reference_database(database)
        decomposition = _decompositions_for(query)[0]
        columnar_run = YannakakisExecutor(database, query).execute(
            decomposition, materialize_result=True
        )
        reference_run = YannakakisExecutor(reference_db, query).execute(
            decomposition, materialize_result=True
        )
        _assert_same_run(columnar_run, reference_run)

    def test_empty_database_runs_match_reference(self):
        database = Database()
        database.create_table("R", ["a", "b"], [])
        database.create_table("S", ["b", "c"], [(1, 2)])
        query = ConjunctiveQuery(
            atoms=[
                Atom("R", "R", ("a", "b"), ("x", "y")),
                Atom("S", "S", ("b", "c"), ("y", "z")),
            ],
            aggregate=("MIN", "x"),
            name="empty",
        )
        decomposition = TreeDecomposition.from_bags(
            query.hypergraph(), [{"x", "y", "z"}], [None]
        )
        columnar_run = YannakakisExecutor(database, query).execute(decomposition)
        reference_run = YannakakisExecutor(
            as_reference_database(database), query
        ).execute(decomposition)
        assert columnar_run.result is None
        _assert_same_run(columnar_run, reference_run)

    @pytest.mark.parametrize("name", [entry.name for entry in benchmark_queries()])
    def test_paper_query_runs_match_reference(self, name):
        # Skewed generated data through the first-ranked CTD: the
        # workload-sized counterpart of the random grid above.
        entry = benchmark_query(name)
        database, query = entry.load(scale=0.5)
        hypergraph = query.hypergraph()
        (decomposition,) = enumerate_ctds(
            hypergraph, soft_candidate_bags(hypergraph, entry.width), limit=1
        )
        columnar_run = YannakakisExecutor(database, query).execute(decomposition)
        reference_run = YannakakisExecutor(
            as_reference_database(database), query
        ).execute(decomposition)
        _assert_same_run(columnar_run, reference_run)

    def test_estimator_statistics_match_reference(self):
        database, query = _random_database_and_query(3)
        reference_db = as_reference_database(database)
        columnar_estimator = CardinalityEstimator(database)
        reference_estimator = CardinalityEstimator(reference_db)
        for name in database.relation_names():
            columnar_stats = columnar_estimator.statistics(name)
            reference_stats = reference_estimator.statistics(name)
            assert columnar_stats.row_count == reference_stats.row_count
            assert columnar_stats.distinct_counts == reference_stats.distinct_counts
        order_c = columnar_estimator.greedy_join_order(query.atoms)
        order_r = reference_estimator.greedy_join_order(query.atoms)
        assert [a.alias for a in order_c] == [a.alias for a in order_r]


# -- kernel paths ---------------------------------------------------------------

#: (name, _TABLE_BYTES_PER_ROW, _PACK_LIMIT); ``None`` leaves a constant alone.
KERNEL_PATHS = (
    ("table", 1 << 40, None),
    ("sort", 0, None),
    ("densify-table", 1 << 40, 40),
    ("densify-sort", 0, 40),
)


@pytest.fixture(params=KERNEL_PATHS, ids=lambda path: path[0])
def kernel_path(request, monkeypatch):
    """Force one membership/dedup/grouping kernel and one packing path."""
    name, table_bytes, pack_limit = request.param
    monkeypatch.setattr(relation_module, "_TABLE_BYTES_PER_ROW", table_bytes)
    if pack_limit is not None:
        monkeypatch.setattr(relation_module, "_PACK_LIMIT", pack_limit)
    return name


def _wide_relation_data(rng, attributes, domain, max_rows=40):
    num_rows = rng.choice([0, 1, rng.randint(2, max_rows)])
    return [
        tuple(rng.randrange(domain) for _ in attributes) for _ in range(num_rows)
    ]


class TestKernelPathEquivalence:
    """Every kernel path gives the spec's rows, row order and counters."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_multi_column_keys_match_reference(self, kernel_path, seed):
        rng = random.Random(f"kernel-{seed}")
        # 3-4 shared key columns plus one private column per side.
        shared = list(ATTRS[: rng.randint(3, 4)])
        domain = rng.choice([2, 3, 6])
        left_attrs, right_attrs = shared + ["l"], ["r"] + shared[::-1]
        left_rows = _wide_relation_data(rng, left_attrs, domain)
        right_rows = _wide_relation_data(rng, right_attrs, domain)
        left_c, left_r = _pair("L", left_attrs, left_rows)
        right_c, right_r = _pair("R", right_attrs, right_rows)

        cc, rc = WorkCounter(), WorkCounter()
        semi_c = left_c.semijoin(right_c, counter=cc)
        semi_r = left_r.semijoin(right_r, counter=rc)
        assert semi_c.rows == semi_r.rows  # same rows in the same order
        _assert_same_counter(cc, rc)

        cc, rc = WorkCounter(), WorkCounter()
        subset = rng.sample(left_attrs, rng.randint(2, len(left_attrs)))
        proj_c = left_c.project(subset, counter=cc)
        proj_r = left_r.project(subset, counter=rc)
        assert proj_c.rows == proj_r.rows  # first-occurrence order
        _assert_same_counter(cc, rc)

        cc, rc = WorkCounter(), WorkCounter()
        _assert_same_relation(
            left_c.natural_join(right_c, counter=cc),
            left_r.natural_join(right_r, counter=rc),
        )
        _assert_same_counter(cc, rc)

        for attribute in left_attrs:
            for function in ("MIN", "MAX"):
                assert left_c.aggregate(function, attribute) == left_r.aggregate(
                    function, attribute
                )

    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_join_row_order_is_the_same_on_every_path(self, seed, monkeypatch):
        rng = random.Random(f"joinorder-{seed}")
        attrs_l, attrs_r = ["a", "b", "x"], ["b", "a", "y"]
        left = Relation("L", attrs_l, _wide_relation_data(rng, attrs_l, 3))
        right = Relation("R", attrs_r, _wide_relation_data(rng, attrs_r, 3))
        outputs = []
        for _, table_bytes, pack_limit in KERNEL_PATHS:
            monkeypatch.setattr(relation_module, "_TABLE_BYTES_PER_ROW", table_bytes)
            if pack_limit is not None:
                monkeypatch.setattr(relation_module, "_PACK_LIMIT", pack_limit)
            outputs.append(left.natural_join(right).rows)
        assert all(rows == outputs[0] for rows in outputs)

    def test_left_keys_outside_the_right_span_and_empty_sides(self, kernel_path):
        # Left codes exceed every right code in both key columns.
        left_rows = [(1, 1), (9, 9), (2, 50), (60, 2), (2, 2)]
        right_rows = [(1, 1), (2, 2), (2, 1)]
        left_c, left_r = _pair("L", ["a", "b"], left_rows)
        right_c, right_r = _pair("R", ["a", "b"], right_rows)
        empty_c, empty_r = _pair("E", ["a", "b"], [])
        for (lc, lr), (rc_, rr) in (
            ((left_c, left_r), (right_c, right_r)),
            ((right_c, right_r), (left_c, left_r)),
            ((left_c, left_r), (empty_c, empty_r)),
            ((empty_c, empty_r), (left_c, left_r)),
        ):
            cc, rc = WorkCounter(), WorkCounter()
            assert lc.semijoin(rc_, counter=cc).rows == lr.semijoin(rr, counter=rc).rows
            _assert_same_relation(
                lc.natural_join(rc_, counter=cc), lr.natural_join(rr, counter=rc)
            )
            _assert_same_counter(cc, rc)

    @pytest.mark.parametrize("bits", [20, 21, 31])
    def test_codes_near_the_int64_product_boundary(self, bits, monkeypatch):
        # Three key columns of ``bits``-bit codes: 3 x 20 bits packs directly,
        # 3 x 21 bits is the first product to leave int64 (one densify step),
        # 3 x 31 bits densifies before every further column.  The sort
        # kernels run (no table can hold such a span).
        assert relation_module._PACK_LIMIT == np.iinfo(np.int64).max
        rng = random.Random(f"boundary-{bits}")
        top = (1 << bits) - 1
        pool = [0, 1, top - 1, top]
        attrs = ["a", "b", "c"]

        def code_rows(count):
            return [tuple(rng.choice(pool) for _ in attrs) for _ in range(count)]

        def from_codes(name, rows):
            columns = tuple(
                np.array([row[i] for row in rows], dtype=CODE_DTYPE)
                for i in range(len(attrs))
            )
            return Relation._from_codes(name, attrs, columns, len(rows), interner)

        def code_tuples(relation):
            return list(zip(*(relation.codes(a).tolist() for a in relation.attributes)))

        interner = ValueInterner()
        left_rows, right_rows = code_rows(60), code_rows(60)
        left_c, right_c = from_codes("L", left_rows), from_codes("R", right_rows)
        # The spec runs on the raw code tuples as values.
        left_r = ReferenceRelation("L", attrs, left_rows)
        right_r = ReferenceRelation("R", attrs, right_rows)
        assert code_tuples(left_c.semijoin(right_c)) == left_r.semijoin(right_r).rows
        assert code_tuples(left_c.project(attrs)) == left_r.project(attrs).rows
        renamed_c = right_c.rename("R", {"c": "d"})
        renamed_r = right_r.rename("R", {"c": "d"})
        assert sorted(code_tuples(left_c.natural_join(renamed_c))) == sorted(
            left_r.natural_join(renamed_r).rows
        )
        (left_key, right_key), span = relation_module._pack_keys(
            [left_c.codes(a) for a in attrs], [right_c.codes(a) for a in attrs]
        )
        keys = np.concatenate((left_key, right_key))
        assert keys.min() >= 0 and keys.max() < span <= relation_module._PACK_LIMIT
        by_key = {}
        for key, row in zip(keys.tolist(), left_rows + right_rows):
            assert by_key.setdefault(key, row) == row  # injective across both sides
        assert len(by_key) == len(set(left_rows + right_rows))

    def test_table_and_sort_kernels_agree_at_scale(self, monkeypatch):
        # 200 k rows with heavy duplication: past any small-array code path
        # of numpy's scatter, whose write order the dedup table relies on.
        rng = np.random.default_rng(5)
        key = rng.integers(0, 30_000, 200_000)
        probe = rng.integers(0, 60_000, 50_000)
        order = np.argsort(key, kind="stable")
        span = 60_000
        results = []
        for table_bytes in (1 << 40, 0):
            monkeypatch.setattr(relation_module, "_TABLE_BYTES_PER_ROW", table_bytes)
            start, size = relation_module._group_ranges(key, order, probe, span)
            results.append(
                (
                    relation_module._first_occurrences(key, span),
                    relation_module._member(probe, key, span),
                    np.where(size > 0, start, 0),
                    size,
                )
            )
        for table_result, sort_result in zip(*results):
            assert np.array_equal(table_result, sort_result)
        first = results[0][0]
        assert len(first) == len(np.unique(key)) and np.all(np.diff(first) > 0)

    def test_sorted_rows_matches_reference(self, kernel_path):
        rows = [(2, "b"), (10, "a"), (2, "a"), ("2", 7), (10, "a"), (-1, "b")]
        columnar, reference = _pair("S", ["n", "s"], rows)
        key = lambda value: (type(value).__name__, repr(value))  # noqa: E731
        assert columnar.sorted_rows() == reference.sorted_rows()
        assert columnar.sorted_rows() == sorted(
            rows, key=lambda row: tuple(map(key, row))
        )


# -- the stable order -----------------------------------------------------------

#: (name, _DIGIT_SPAN_LIMIT); ``None`` keeps the two-digit limit.
DIGIT_PATHS = (("digits", None), ("argsort", 0))


@pytest.fixture(params=DIGIT_PATHS, ids=lambda path: path[0])
def digit_path(request, monkeypatch):
    """Let the stable order sort by 16-bit digits, or refuse it every key."""
    name, limit = request.param
    if limit is not None:
        monkeypatch.setattr(relation_module, "_DIGIT_SPAN_LIMIT", limit)
    return name


def _keys(shape, span, rng):
    """``shape`` keys below ``span``, touching both ends of the range."""
    if shape == "empty":
        return np.empty(0, dtype=CODE_DTYPE)
    if shape == "single":
        return np.array([span - 1], dtype=CODE_DTYPE)
    if shape == "duplicated":
        pool = np.unique([0, 1, span // 2, span - 2, span - 1])
        return rng.choice(pool[(pool >= 0) & (pool < span)], 3_000)
    return rng.integers(0, span, 3_000, dtype=CODE_DTYPE)


class TestStableOrder:
    """``_stable_order`` is ``np.argsort(kind="stable")`` on every path."""

    SPANS = [1, 2**16 - 1, 2**16, 2**16 + 1, 2**32, 2**32 + 1, 2**40, 2**63 - 1]

    @pytest.mark.parametrize("shape", ["empty", "single", "duplicated", "random"])
    @pytest.mark.parametrize("span", SPANS)
    def test_equals_the_stable_argsort(self, digit_path, span, shape):
        # One 16-bit digit up to 2**16, two up to 2**32, np.argsort beyond.
        assert relation_module._DIGIT_SPAN_LIMIT == (
            1 << 32 if digit_path == "digits" else 0
        )
        key = _keys(shape, span, np.random.default_rng(span % 9973))
        order = relation_module._stable_order(key, span)
        expected = np.argsort(key, kind="stable")
        assert order.dtype == expected.dtype
        assert np.array_equal(order, expected)

    def test_digit_boundaries_order_across_the_high_digit(self):
        # Keys that differ only in the high digit, or only in the low one.
        key = np.array(
            [2**16, 2**16 - 1, 0, 2**32 - 1, 2**16, 1, 2**31, 2**16 + 1, 0],
            dtype=CODE_DTYPE,
        )
        assert np.array_equal(
            relation_module._stable_order(key, 2**32), np.argsort(key, kind="stable")
        )


def _digit_rows(rng, attributes, keys, domain, count):
    """Rows drawing their key columns from ``keys`` (a shared pool, so the
    sides join) or fresh from ``domain`` (so the key span grows)."""
    rows = []
    for _ in range(count):
        key = rng.choice(keys) if rng.random() < 0.7 else tuple(
            rng.randrange(domain) for _ in range(3)
        )
        rows.append(key + tuple(rng.randrange(domain) for _ in attributes[3:]))
    return rows


class TestDigitPathEquivalence:
    """Rows and row order of the operators that order through the stable
    order, with the digit path taken and refused.  Three key columns over
    3, 80 and 5 000 values give spans of one digit, two digits and past
    the two-digit limit."""

    @pytest.mark.parametrize("domain", [3, 80, 5_000])
    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_join_project_and_sorted_rows_match_reference(
        self, digit_path, kernel_path, domain, seed
    ):
        rng = random.Random(f"digits-{seed}-{domain}")
        keys = [tuple(rng.randrange(domain) for _ in range(3)) for _ in range(25)]
        left_attrs, right_attrs = ["a", "b", "c", "l"], ["a", "b", "c", "r"]
        left_rows = _digit_rows(rng, left_attrs, keys, domain, 240)
        right_rows = _digit_rows(rng, right_attrs, keys, domain, rng.randint(1, 240))
        left_c, left_r = _pair("L", left_attrs, left_rows)
        right_c, right_r = _pair("R", right_attrs, right_rows)

        # The spec builds its hash table on the smaller side; with the right
        # side no larger, its row order is the columnar join's.
        cc, rc = WorkCounter(), WorkCounter()
        join_c = left_c.natural_join(right_c, counter=cc)
        join_r = left_r.natural_join(right_r, counter=rc)
        assert join_c.rows == join_r.rows
        _assert_same_counter(cc, rc)

        for subset in (["a", "b", "c"], ["c", "l", "a"], left_attrs):
            cc, rc = WorkCounter(), WorkCounter()
            assert (
                left_c.project(subset, counter=cc).rows
                == left_r.project(subset, counter=rc).rows
            )
            _assert_same_counter(cc, rc)

        for columnar, reference in ((left_c, left_r), (join_c, join_r)):
            assert columnar.sorted_rows() == reference.sorted_rows()
        for function in ("MIN", "MAX"):
            assert left_c.aggregate(function, "l") == left_r.aggregate(function, "l")


class TestDistinctnessTracking:
    """``_distinct`` is only ever set on relations without duplicate rows."""

    @pytest.mark.parametrize("seed", range(20))
    def test_flagged_relations_never_hold_duplicates(self, seed):
        rng = random.Random(f"distinct-{seed}")
        foreign = ValueInterner()

        def fresh(name):
            attributes, rows = _random_relation_data(rng, domain=3, max_rows=12)
            if rng.random() < 0.5:
                relation = Relation(name, attributes, rows)
            else:
                columns = [list(column) for column in zip(*rows)] or [
                    [] for _ in attributes
                ]
                relation = Relation.from_columns(name, attributes, columns)
            assert not relation._distinct  # raw data is never trusted
            return relation

        pool = [fresh(f"R{i}") for i in range(3)]
        flagged = 0
        for step in range(40):
            relation, other = rng.choice(pool), rng.choice(pool)
            operator = rng.choice(
                ["project", "distinct", "semijoin", "join", "rename", "select",
                 "reencode", "fresh"]
            )
            if operator == "project":
                attributes = list(relation.attributes)
                rng.shuffle(attributes)
                result = relation.project(attributes[: rng.randint(0, len(attributes))])
            elif operator == "distinct":
                result = relation.distinct()
            elif operator == "semijoin":
                result = relation.semijoin(other)
            elif operator == "join":
                if len(relation) * len(other) > 400:
                    continue
                result = relation.natural_join(other)
            elif operator == "rename":
                result = relation.rename(f"N{step}")
            elif operator == "select":
                result = relation.select(lambda row: sum(row.values()) % 2 == 0)
            elif operator == "reencode":
                result = relation.with_interner(foreign)
            else:
                result = fresh(f"F{step}")
            if result._distinct:
                flagged += 1
                assert len(set(result.rows)) == len(result.rows), (operator, result)
            if operator in ("project", "distinct"):
                assert result._distinct
            pool[rng.randrange(len(pool))] = result
        assert flagged  # the invariant was exercised, not vacuous

    def test_full_projection_of_a_distinct_relation_shares_its_columns(self):
        relation = Relation("R", ["a", "b"], [(1, 2), (1, 2), (2, 1)]).distinct()
        counter = WorkCounter()
        swapped = relation.project(["b", "a"], counter=counter)
        assert swapped.codes("a") is relation.codes("a")
        assert swapped.rows == [(2, 1), (1, 2)]
        assert (counter.tuples_read, counter.tuples_written) == (2, 2)
        # Dropping an attribute can create duplicates again: a real dedup.
        assert relation.project(["a"]).rows == [(1,), (2,)]

    def test_semijoin_without_shared_attributes_shares_columns(self):
        relation = Relation("R", ["a"], [(1,), (2,), (1,)])
        other = Relation("S", ["b"], [(7,)])
        counter = WorkCounter()
        kept = relation.semijoin(other, counter=counter)
        assert kept.codes("a") is relation.codes("a")
        assert kept.name == "(R⋉S)" and kept.rows == relation.rows
        assert (counter.tuples_read, counter.tuples_written) == (4, 3)
        assert relation.semijoin(Relation("E", ["b"], [])).rows == []
