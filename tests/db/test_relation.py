"""Unit tests for the in-memory relation operators."""

import numpy as np
import pytest

from repro.db.interner import ValueInterner
from repro.db.relation import Relation, WorkCounter


@pytest.fixture
def r():
    return Relation("R", ["a", "b"], [(1, 10), (2, 20), (3, 30), (1, 11)])


@pytest.fixture
def s():
    return Relation("S", ["b", "c"], [(10, "x"), (20, "y"), (99, "z")])


class TestBasics:
    def test_schema_validation(self):
        with pytest.raises(ValueError):
            Relation("bad", ["a", "a"], [])
        with pytest.raises(ValueError):
            Relation("bad", ["a", "b"], [(1,)])

    def test_cardinality_and_columns(self, r):
        assert len(r) == 4
        assert r.column("a") == [1, 2, 3, 1]
        assert r.distinct_count("a") == 3
        with pytest.raises(KeyError):
            r.column("missing")

    def test_rename(self, r):
        renamed = r.rename("R2", {"a": "x"})
        assert renamed.attributes == ("x", "b")
        assert renamed.rows == r.rows


class TestUnaryOperators:
    def test_project_removes_duplicates(self, r):
        projected = r.project(["a"])
        assert sorted(projected.rows) == [(1,), (2,), (3,)]

    def test_project_counts_work(self, r):
        counter = WorkCounter()
        r.project(["a"], counter=counter)
        assert counter.tuples_read == 4
        assert counter.tuples_written == 3
        assert counter.total == 7

    def test_select(self, r):
        selected = r.select(lambda row: row["a"] == 1)
        assert len(selected) == 2

    def test_distinct(self):
        relation = Relation("D", ["a"], [(1,), (1,), (2,)])
        assert len(relation.distinct()) == 2


class TestJoins:
    def test_natural_join(self, r, s):
        joined = r.natural_join(s)
        assert set(joined.attributes) == {"a", "b", "c"}
        assert sorted(joined.rows) == [(1, 10, "x"), (2, 20, "y")]

    def test_join_is_symmetric_in_content(self, r, s):
        left = {tuple(sorted(zip(("a", "b", "c"), row))) for row in r.natural_join(s).rows}
        right_rel = s.natural_join(r)
        index = [right_rel.attributes.index(a) for a in ("a", "b", "c")]
        right = {
            tuple(sorted(zip(("a", "b", "c"), (row[i] for i in index))))
            for row in right_rel.rows
        }
        assert left == right

    def test_cartesian_product_when_no_shared_attributes(self):
        a = Relation("A", ["x"], [(1,), (2,)])
        b = Relation("B", ["y"], [(3,), (4,), (5,)])
        assert len(a.natural_join(b)) == 6

    def test_semijoin(self, r, s):
        reduced = r.semijoin(s)
        assert sorted(reduced.rows) == [(1, 10), (2, 20)]
        assert reduced.attributes == r.attributes

    def test_semijoin_without_shared_attributes(self, r):
        other = Relation("O", ["z"], [(1,)])
        assert len(r.semijoin(other)) == len(r)
        empty = Relation("E", ["z"], [])
        assert len(r.semijoin(empty)) == 0

    def test_join_work_accounting(self, r, s):
        counter = WorkCounter()
        joined = r.natural_join(s, counter=counter)
        assert counter.tuples_read == len(r) + len(s)
        assert counter.tuples_written == len(joined)


class TestAggregates:
    def test_min_max_count(self, r):
        assert r.aggregate("MIN", "a") == 1
        assert r.aggregate("MAX", "b") == 30
        assert r.aggregate("COUNT", "a") == 4

    def test_empty_relation_aggregates_to_none(self):
        empty = Relation("E", ["a"], [])
        assert empty.aggregate("MIN", "a") is None
        assert empty.aggregate("COUNT", "a") == 0

    def test_unknown_aggregate_rejected(self, r):
        with pytest.raises(ValueError):
            r.aggregate("SUM", "a")


class TestDecoding:
    def test_decoded_values_are_the_interned_objects_themselves(self):
        values = [10**20, "a", (1, 2), None, 2.5, frozenset({3})]
        interner = ValueInterner()
        codes = np.array([interner.code(value) for value in values])
        decoded = interner.decode_column(codes[::-1])
        assert [type(value) for value in decoded] == [type(v) for v in values[::-1]]
        assert all(got is want for got, want in zip(decoded, values[::-1]))
        assert interner.decode_column(codes[:0]) == []

    def test_values_interned_after_a_decode_are_decodable(self):
        interner = ValueInterner.from_values(["x", "y"])
        assert interner.decode_column(np.array([1, 0, 1])) == ["y", "x", "y"]
        late = interner.code(("late", 1))
        assert interner.decode_column(np.array([late, 0])) == [("late", 1), "x"]
