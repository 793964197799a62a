"""The per-database atom-scan memo behind :func:`atom_relation`.

An atom's scan (select on repeated variables, project + dedup) is computed
once per database and shared by every alias and attribute order of the
same pattern; only the renaming happens per call.  These tests hold the
memo to the uncached computation it replaces — same attributes, same rows
in the same order, on both engines — and check that it never mutates what
it shares, stops growing after one round, and leaves every executor
counter where the uncached scans put it.
"""

import hashlib
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.db import yannakakis
from repro.db.database import Database
from repro.db.frontdoor import plan_query, run_query
from repro.db.query import Atom
from repro.db.reference import ReferenceRelation
from repro.db.yannakakis import YannakakisExecutor, atom_relation
from repro.workloads.hetionet import HETIONET_QUERY_SQL
from repro.workloads.joblite import JOBLITE_QUERY_SQL
from repro.workloads.lsqb import QLB_SQL
from repro.workloads.registry import workload_entries
from repro.workloads.tpcds import QDS_SQL

#: The sixteen benchmark texts: ``(name, dataset, aggregate SQL)``.
BENCHMARK_TEXTS = (
    ("q_ds", "tpcds", QDS_SQL),
    *((name, "hetionet", sql) for name, sql in HETIONET_QUERY_SQL.items()),
    ("q_lb", "lsqb", QLB_SQL),
    *((name, "joblite", sql) for name, sql in sorted(JOBLITE_QUERY_SQL.items())),
)

_AGGREGATE = re.compile(r"SELECT\s+\w+\s*\(\s*[\w.\"]+\s*\)", re.IGNORECASE)


def benchmark_sql(select_all: bool):
    """The sixteen texts, aggregate or with ``SELECT *`` in place of it."""
    for name, dataset, sql in BENCHMARK_TEXTS:
        yield name, dataset, (_AGGREGATE.sub("SELECT *", sql, count=1) if select_all else sql)


def benchmark_databases(scale: float = 0.3):
    return {
        name: entry.load(scale=scale, seed=entry.default_seed, cache=False)
        for name, entry in workload_entries().items()
    }


def uncached_atom_relation(database, atom):
    """The scan as computed before the memo: per call, from the base table."""
    relation = database.relation(atom.relation)
    by_variable = {}
    for attribute, variable in zip(atom.attributes, atom.variables):
        by_variable.setdefault(variable, []).append(attribute)
    duplicated = [attrs for attrs in by_variable.values() if len(attrs) > 1]
    if duplicated:
        relation = relation.select(
            lambda row: all(len({row[a] for a in attrs}) == 1 for attrs in duplicated)
        )
    projected = relation.project([attrs[0] for attrs in by_variable.values()])
    return projected.rename(atom.alias, {attrs[0]: v for v, attrs in by_variable.items()})


def scan_entries(database):
    return {key: value for key, value in database._derived.items() if key != "estimator"}


def code_digest(relation) -> str:
    digest = hashlib.sha256()
    for column in relation._columns:
        digest.update(column.tobytes())
    return digest.hexdigest()


def state_digest(databases):
    """Digests of every registered relation's and every scan's code arrays."""
    state = {}
    for dataset, database in databases.items():
        for name in database.relation_names():
            state[(dataset, "table", name)] = code_digest(database.relation(name))
        for key, scan in scan_entries(database).items():
            state[(dataset, *key)] = code_digest(scan)
    return state


# -- equivalence with the uncached computation --------------------------------------

ATTRIBUTES = ("a", "b", "c", "d")


@st.composite
def tables_and_atoms(draw):
    """Rows of ``R(a, b, c, d)`` plus atoms over ``R``.

    Small domains make duplicate rows and agreeing columns common; atoms
    draw attribute subsets in any order and variables from a pool of three,
    so repeated variables, permuted patterns and repeated patterns under
    several aliases all occur.
    """
    rows = draw(
        st.lists(st.tuples(*[st.integers(0, 2)] * len(ATTRIBUTES)), max_size=25)
    )
    atoms = []
    for index in range(draw(st.integers(1, 6))):
        attributes = draw(st.permutations(ATTRIBUTES))[: draw(st.integers(1, 4))]
        variables = draw(
            st.lists(
                st.sampled_from("xyz"), min_size=len(attributes), max_size=len(attributes)
            )
        )
        atoms.append(Atom(f"A{index}", "R", tuple(attributes), tuple(variables)))
    return rows, atoms


class TestEquivalence:
    @pytest.mark.parametrize("relation_cls", [None, ReferenceRelation], ids=["columnar", "reference"])
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=tables_and_atoms())
    def test_memoised_scan_equals_uncached(self, relation_cls, case):
        rows, atoms = case
        database = Database(relation_cls=relation_cls)
        database.create_table("R", ATTRIBUTES, rows)
        entries = []
        for _ in range(2):
            for atom in atoms:
                memoised = atom_relation(database, atom)
                expected = uncached_atom_relation(database, atom)
                assert memoised.name == expected.name == atom.alias
                assert memoised.attributes == expected.attributes
                assert memoised.rows == expected.rows
            entries.append(len(scan_entries(database)))
        assert entries[0] == entries[1] <= len(atoms)

    def test_permuted_patterns_and_aliases_share_one_scan(self):
        database = Database()
        base = database.create_table("R", ["s", "d"], [(1, 2), (2, 3), (3, 1)])
        forward = atom_relation(database, Atom("A", "R", ("s", "d"), ("x", "y")))
        backward = atom_relation(database, Atom("B", "R", ("d", "s"), ("x", "y")))
        assert forward.attributes == ("x", "y") and backward.attributes == ("x", "y")
        assert forward.rows == [(1, 2), (2, 3), (3, 1)]
        assert backward.rows == [(2, 1), (3, 2), (1, 3)]
        (scan,) = scan_entries(database).values()
        # A duplicate-free table scanned whole: the entry is the table's arrays.
        assert {id(column) for column in scan._columns} == {
            id(column) for column in base._columns
        }

    def test_repeated_variable_selects(self):
        database = Database()
        database.create_table("R", ["a", "b"], [(1, 1), (1, 2), (2, 2), (1, 1)])
        relation = atom_relation(database, Atom("A", "R", ("b", "a"), ("x", "x")))
        assert relation.attributes == ("x",)
        assert relation.rows == [(1,), (2,)]


# -- a full round of the benchmark texts ------------------------------------------


@pytest.fixture(scope="module")
def databases():
    return benchmark_databases()


def run_round(databases):
    for select_all in (False, True):
        for name, dataset, sql in benchmark_sql(select_all):
            result = run_query(sql, databases[dataset], name=name, cache=None)
            assert result.complete, name


class TestBenchmarkRound:
    def test_scans_never_mutate_and_stop_growing(self, databases):
        tables = state_digest(databases)
        run_round(databases)
        first = state_digest(databases)
        assert {k: v for k, v in first.items() if k[1] == "table"} == tables
        assert any(k[1] == "scan" for k in first)
        run_round(databases)
        # No entry added, and no entry or table changed a single byte.
        assert state_digest(databases) == first

    @pytest.mark.parametrize("select_all", [False, True], ids=["aggregate", "rows"])
    def test_executor_counters_match_uncached_scans(self, databases, select_all, monkeypatch):
        def execute_all():
            runs = {}
            for name, dataset, sql in benchmark_sql(select_all):
                database = databases[dataset]
                plan = plan_query(sql, database, name=name, cache=None)
                run = YannakakisExecutor(database, plan.query).execute(
                    plan.decomposition, materialize_result=select_all
                )
                result = run.result
                if select_all:
                    result = sorted(result.project(sorted(result.attributes)).rows)
                runs[name] = (
                    run.work,
                    run.counter.operations,
                    run.node_sizes,
                    run.reduced_sizes,
                    run.fold_sizes,
                    run.max_intermediate,
                    result,
                )
            return runs

        memoised = execute_all()
        monkeypatch.setattr(yannakakis, "atom_relation", uncached_atom_relation)
        assert execute_all() == memoised
