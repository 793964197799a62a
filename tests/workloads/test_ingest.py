"""Tests for dump-file ingest, chunked table building and the registry loader."""

import numpy as np
import pytest

from repro.db.database import Database
from repro.experiments.harness import QueryExperiment
from repro.workloads.ingest import ChunkedTableBuilder, load_table_files
from repro.workloads.registry import (
    benchmark_queries,
    benchmark_query,
    joblite_benchmark_queries,
    workload_entries,
    workload_entry,
)


class TestDumpLoading:
    def test_load_dump_csv_with_header(self, tmp_path):
        (tmp_path / "City.csv").write_text(
            "CityId,isPartOf_CountryId\n0,0\n1,0\n2,1\n"
        )
        (tmp_path / "Person.csv").write_text(
            "PersonId,isLocatedIn_CityId\n0,0\n1,2\n"
        )
        (tmp_path / "Person_knows_Person.csv").write_text(
            "Person1Id,Person2Id\n0,1\n"
        )
        database = workload_entry("lsqb").load_dump(str(tmp_path))
        assert database.relation("City").rows == [(0, 0), (1, 0), (2, 1)]
        assert database.primary_key("City") == "CityId"
        assert database.primary_key("Person") == "PersonId"

    def test_load_dump_string_columns(self, tmp_path):
        # Non-integer dump columns stay strings and survive the columnar
        # ingest (object arrays take the per-value interning path).
        (tmp_path / "t.csv").write_text("name,score\nada,1\nbob,2\nada,3\n")
        database = load_table_files(
            Database(), str(tmp_path), {"t": (("name", "score"), None)}
        )
        assert database.relation("t").rows == [("ada", 1), ("bob", 2), ("ada", 3)]

    def test_column_type_is_decided_over_the_whole_column(self, tmp_path):
        # A non-numeric value appearing only after a chunk boundary must
        # turn the *whole* column into strings — per-chunk inference would
        # make rows from different chunks silently unjoinable.
        lines = [f"{i},{i}" for i in range(5)] + ["N/A,5"]
        (tmp_path / "t.csv").write_text("a,b\n" + "\n".join(lines) + "\n")
        database = load_table_files(
            Database(), str(tmp_path), {"t": (("a", "b"), None)}, chunk_rows=2
        )
        rows = database.relation("t").rows
        assert rows[0] == ("0", 0)
        assert rows[-1] == ("N/A", 5)
        assert {type(a) for a, _ in rows} == {str}

    def test_ids_past_int64_fall_back_to_strings(self, tmp_path):
        huge = 2**64
        (tmp_path / "t.csv").write_text(f"a,b\n{huge},1\n2,2\n")
        database = load_table_files(
            Database(), str(tmp_path), {"t": (("a", "b"), None)}
        )
        assert database.relation("t").rows == [(str(huge), 1), ("2", 2)]

    def test_load_dump_tsv_without_header(self, tmp_path):
        for table in workload_entry("hetionet").schema:
            (tmp_path / f"{table}.tsv").write_text("0\t1\n1\t2\n")
        database = workload_entry("hetionet").load_dump(str(tmp_path))
        assert database.relation("hetio45159").rows == [(0, 1), (1, 2)]

    def test_missing_file_reports_table(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="City"):
            workload_entry("lsqb").load_dump(str(tmp_path))

    def test_dump_database_runs_benchmark_query(self, tmp_path):
        from repro.workloads.hetionet import hetionet_query

        for table in workload_entry("hetionet").schema:
            (tmp_path / f"{table}.csv").write_text(
                "s,d\n" + "".join(f"{i},{i + 1}\n" for i in range(6))
            )
        database = workload_entry("hetionet").load_dump(str(tmp_path))
        query = hetionet_query(database, "q_hto3")
        assert len(query.atoms) == 4


class TestChunkedTableBuilder:
    def test_chunks_concatenate(self):
        database = Database()
        builder = ChunkedTableBuilder("t", ["a", "b"])
        builder.append([np.array([1, 2]), np.array([3, 4])])
        builder.append([np.array([5]), np.array([6])])
        builder.ingest(database)
        assert database.relation("t").rows == [(1, 3), (2, 4), (5, 6)]

    def test_ragged_chunk_rejected(self):
        builder = ChunkedTableBuilder("t", ["a", "b"])
        with pytest.raises(ValueError, match="ragged"):
            builder.append([np.array([1, 2]), np.array([3])])

    def test_wrong_arity_rejected(self):
        builder = ChunkedTableBuilder("t", ["a", "b"])
        with pytest.raises(ValueError, match="columns"):
            builder.append([np.array([1])])


class TestLoadWritesNothing:
    """``WorkloadEntry.load`` generates in memory and persists nothing."""

    @pytest.mark.parametrize("workload", sorted(workload_entries()))
    def test_repeated_loads_leave_the_cwd_empty(self, tmp_path, monkeypatch, workload):
        monkeypatch.chdir(tmp_path)
        entry = workload_entry(workload)
        first = entry.load(scale=2.0)
        second = entry.load(scale=2.0)
        assert list(tmp_path.iterdir()) == []
        assert first.relation_names() == second.relation_names()
        for name in first.relation_names():
            for attribute in first.relation(name).attributes:
                assert np.array_equal(
                    first.relation(name).codes(attribute),
                    second.relation(name).codes(attribute),
                ), (name, attribute)
        assert first.interner.values() == second.interner.values()

    def test_cache_other_than_false_is_rejected(self):
        entry = workload_entry("tpcds")
        with pytest.raises(TypeError, match="cache"):
            entry.load(scale=0.1, cache=True)
        assert entry.load(scale=0.1, cache=False).total_rows() > 0

    @pytest.mark.parametrize("cache", ["auto", None, 0, ""])
    def test_falsy_or_legacy_cache_values_are_rejected(self, cache):
        # Only the literal ``False`` is accepted: a truthiness check would
        # let ``None``/``0`` through and silently keep a dead option alive.
        with pytest.raises(TypeError, match="cache"):
            workload_entry("lsqb").load(scale=0.1, cache=cache)


def _write_dump(database, schema, directory, reverse_header=False):
    """Write every table of ``schema`` as ``<name>.csv`` with a header row."""
    for name, (attributes, _) in schema.items():
        order = list(attributes)[::-1] if reverse_header else list(attributes)
        index = [list(attributes).index(a) for a in order]
        lines = [",".join(order)]
        for row in database.relation(name).rows:
            lines.append(",".join(str(row[i]) for i in index))
        (directory / f"{name}.csv").write_text("\n".join(lines) + "\n")


class TestDumpRoundTrip:
    """A dump of a generated database loads back as the same database.

    This pins the contract between the two ways data enters: every
    generator emits exactly the tables, attributes and primary keys that
    :attr:`WorkloadEntry.schema` promises ``load_dump`` will read.
    """

    @pytest.mark.parametrize("workload", sorted(workload_entries()))
    def test_generated_schema_matches_the_dump_layout(self, workload):
        entry = workload_entry(workload)
        database = entry.load(scale=0.1)
        assert sorted(database.relation_names()) == sorted(entry.schema)
        for name, (attributes, primary_key) in entry.schema.items():
            assert database.relation(name).attributes == tuple(attributes), name
            assert database.primary_key(name) == primary_key, name

    @pytest.mark.parametrize("workload", sorted(workload_entries()))
    def test_dump_of_generated_database_loads_back_equal(self, tmp_path, workload):
        entry = workload_entry(workload)
        generated = entry.load(scale=0.1)
        _write_dump(generated, entry.schema, tmp_path)
        loaded = entry.load_dump(str(tmp_path))
        for name in entry.schema:
            assert loaded.relation(name).rows == generated.relation(name).rows, name
            assert loaded.primary_key(name) == generated.primary_key(name)

    def test_header_columns_may_come_in_any_order(self, tmp_path):
        entry = workload_entry("lsqb")
        generated = entry.load(scale=0.1)
        _write_dump(generated, entry.schema, tmp_path, reverse_header=True)
        loaded = entry.load_dump(str(tmp_path))
        for name in entry.schema:
            assert loaded.relation(name).rows == generated.relation(name).rows, name

    @pytest.mark.parametrize("chunk_rows", [1, 7, 1 << 20])
    def test_chunk_size_does_not_change_the_result(self, tmp_path, chunk_rows):
        entry = workload_entry("hetionet")
        generated = entry.load(scale=0.1)
        _write_dump(generated, entry.schema, tmp_path)
        loaded = load_table_files(
            Database(), str(tmp_path), entry.schema, chunk_rows=chunk_rows
        )
        for name in entry.schema:
            assert loaded.relation(name).rows == generated.relation(name).rows, name

    @pytest.mark.parametrize(
        "query", [q.name for q in benchmark_queries() + joblite_benchmark_queries()]
    )
    def test_dumped_database_answers_like_the_generated_one(self, tmp_path, query):
        entry = benchmark_query(query)
        generated = QueryExperiment.from_benchmark(entry, scale=0.1)
        _write_dump(generated.database, entry.workload.schema, tmp_path)
        dumped = QueryExperiment.from_benchmark(entry, dump_path=str(tmp_path))
        assert dumped.baseline().result == generated.baseline().result
