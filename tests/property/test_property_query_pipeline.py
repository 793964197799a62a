"""Cross-layer differential tests pinning the query front door.

:func:`repro.db.frontdoor.run_query` stitches parse → hypergraph →
(cached) CTD → Yannakakis into one call; these tests prove the whole
pipeline is observationally identical to two independent oracles on
hypothesis-generated conjunctive queries over small random databases:

* **direct Yannakakis** on the hand-built hypergraph (bypassing the
  front door's planning and cache routing entirely), and
* the **tuple-engine spec** (:mod:`repro.db.reference`): a naive
  rename-join-project evaluation with no decomposition at all.

and that its answers are *byte-identical* across cold-cache, warm-cache
and cache-disabled runs — the decomposition cache may change where the
CTD comes from, never what the query returns.

The suites together drive well over 200 generated queries (see the
``max_examples`` settings), covering self-joins, disconnected
(Cartesian) queries, empty relations, aggregate and full-row outputs,
and SQL-text entry through the hardened parser.
"""

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cache import DecompositionCache
from repro.core.solve import SolveRequest, execute
from repro.db.database import Database
from repro.db.frontdoor import canonical_rows, run_query
from repro.db.interner import ValueInterner
from repro.db.query import Atom, ConjunctiveQuery
from repro.db.reference import as_reference_database
from repro.db.relation import Relation
from repro.db.yannakakis import YannakakisExecutor
from repro.decompositions.td import TreeDecomposition

VARIABLES = ("x0", "x1", "x2", "x3", "x4")
DOMAIN = 5

COMMON_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def database_and_query(draw):
    """A small random database plus a conjunctive query over it.

    One base table per distinct relation; atoms may alias the same table
    twice (a self-join).  Variables within an atom are distinct (the
    engine's atom contract); across atoms they overlap freely, so the
    query hypergraph ranges from a connected chain to disconnected
    Cartesian factors.
    """
    num_atoms = draw(st.integers(min_value=1, max_value=4))
    database = Database()
    atoms = []
    table_arities = {}
    for index in range(num_atoms):
        # Either introduce a fresh table or self-join an existing one.
        if table_arities and draw(st.booleans()):
            table = draw(st.sampled_from(sorted(table_arities)))
            arity = table_arities[table]
        else:
            table = f"T{len(table_arities)}"
            arity = draw(st.integers(min_value=1, max_value=3))
            num_rows = draw(st.integers(min_value=0, max_value=12))
            columns = [
                draw(
                    st.lists(
                        st.integers(min_value=0, max_value=DOMAIN - 1),
                        min_size=num_rows,
                        max_size=num_rows,
                    )
                )
                for _ in range(arity)
            ]
            database.create_table_columns(
                table, [f"{table.lower()}c{j}" for j in range(arity)], columns
            )
            table_arities[table] = arity
        attributes = tuple(f"{table.lower()}c{j}" for j in range(arity))
        variables = tuple(
            draw(
                st.lists(
                    st.sampled_from(VARIABLES),
                    min_size=arity,
                    max_size=arity,
                    unique=True,
                )
            )
        )
        atoms.append(
            Atom(
                alias=f"a{index}",
                relation=table,
                attributes=attributes,
                variables=variables,
            )
        )
    query = ConjunctiveQuery(atoms=atoms, name="generated")
    used = query.variables()
    aggregate = draw(
        st.one_of(
            st.none(),
            st.tuples(
                st.sampled_from(["MIN", "MAX", "COUNT"]), st.sampled_from(used)
            ),
        )
    )
    query.aggregate = aggregate
    return database, query


def reference_answer(database, query):
    """The ground-truth oracle: textbook CQ semantics, no engine at all.

    Enumerates satisfying variable assignments by nested iteration over
    raw table rows (handling self-joins, repeated variables within an
    atom and Cartesian factors by construction).  Returns ``(sorted
    distinct full rows over sorted(variables), value)`` where ``value``
    follows the engine's aggregate semantics (COUNT = number of distinct
    satisfying assignments, MIN/MAX over the variable's column, ``None``
    on an empty join).
    """
    assignments = [{}]
    for atom in query.atoms:
        relation = database.relation(atom.relation)
        rows = [dict(zip(relation.attributes, row)) for row in relation.rows]
        extended = []
        for assignment in assignments:
            for values in rows:
                binding = dict(assignment)
                for attribute, variable in zip(atom.attributes, atom.variables):
                    value = values[attribute]
                    if variable in binding and binding[variable] != value:
                        break
                    binding[variable] = value
                else:
                    extended.append(binding)
        assignments = extended
    columns = sorted(query.variables())
    rows = sorted({tuple(binding[c] for c in columns) for binding in assignments})
    if query.aggregate is None:
        return rows, len(rows)
    function, variable = query.aggregate
    if function == "COUNT":
        return rows, len(rows)
    if not rows:
        return rows, None
    index = columns.index(variable)
    values = [row[index] for row in rows]
    return rows, (min(values) if function == "MIN" else max(values))


def frontdoor_answer(database, query, cache=None):
    result = run_query(query, database, cache=cache)
    assert result.outcome.complete
    return result


class TestPipelineAgainstOracles:
    @settings(max_examples=120, **COMMON_SETTINGS)
    @given(database_and_query())
    def test_matches_reference_engine_and_direct_yannakakis(self, case):
        database, query = case
        expected_rows, expected_value = reference_answer(database, query)

        result = frontdoor_answer(database, query)
        if query.aggregate is None:
            assert result.rows == expected_rows
        assert result.value == expected_value

        # Oracle 2: direct Yannakakis on the hand-built hypergraph,
        # bypassing the front door entirely (aggregate-free copy so the
        # executor materialises the full join instead of a scalar).
        full_query = ConjunctiveQuery(
            atoms=query.atoms, aggregate=None, name=query.name
        )
        solve = execute(
            SolveRequest(hypergraph=full_query.hypergraph(), mode="soft-width"),
            cache=None,
        )
        assert solve.width == result.width
        run = YannakakisExecutor(database, full_query).execute(
            solve.decomposition, materialize_result=True
        )
        direct_rows = canonical_rows(run.result, sorted(query.variables()))
        assert direct_rows == expected_rows

        # Oracle 3: the same plan executed on the tuple-engine spec.
        reference_run = YannakakisExecutor(
            as_reference_database(database), full_query
        ).execute(solve.decomposition, materialize_result=True)
        reference_rows = sorted(
            set(reference_run.result.project(sorted(query.variables())).rows)
        )
        assert reference_rows == expected_rows

    @settings(max_examples=40, **COMMON_SETTINGS)
    @given(database_and_query())
    def test_explicit_width_matches_least_width_answer(self, case):
        database, query = case
        least = frontdoor_answer(database, query)
        pinned = run_query(query, database, width=least.width, cache=None)
        assert pinned.rows == least.rows
        assert pinned.value == least.value


@st.composite
def centre_rooted_chain(draw):
    """A chain query ``A0(c0,c1), A1(c1,c2), ...`` (closed into a cycle or
    not) with a database, plus for the open chain a path decomposition
    rooted at its middle atom — so the root's two subtrees share no variable.
    """
    length = draw(st.integers(min_value=3, max_value=5))
    cyclic = draw(st.booleans())
    database = Database()
    atoms = []
    for index in range(length):
        rows = draw(
            st.lists(
                st.tuples(st.integers(0, 3), st.integers(0, 3)),
                min_size=1,
                max_size=10,
            )
        )
        table = f"A{index}"
        database.create_table(table, [f"a{index}l", f"a{index}r"], rows)
        last = cyclic and index == length - 1
        atoms.append(
            Atom(
                alias=table,
                relation=table,
                attributes=(f"a{index}l", f"a{index}r"),
                variables=(f"c{index}", "c0" if last else f"c{index + 1}"),
            )
        )
    query = ConjunctiveQuery(atoms=atoms, name="chain")
    if cyclic:
        return database, query, None
    middle = length // 2
    order = [middle, *range(middle - 1, -1, -1), *range(middle + 1, length)]
    parent_of = [
        None if i == middle else order.index(i + 1 if i < middle else i - 1)
        for i in order
    ]
    decomposition = TreeDecomposition.from_bags(
        query.hypergraph(), [set(atoms[i].variables) for i in order], parent_of
    )
    return database, query, decomposition


class TestAnswerExtractionIsOutputBounded:
    """After the full reducer the fold along tree edges never outgrows the answer."""

    def _check(self, database, query, given_decomposition=None):
        expected_rows, _ = reference_answer(database, query)
        full_query = ConjunctiveQuery(
            atoms=query.atoms, aggregate=None, name=query.name
        )
        columns = sorted(query.variables())
        if given_decomposition is None:
            given_decomposition = execute(
                SolveRequest(hypergraph=full_query.hypergraph(), mode="soft-width"),
                cache=None,
            ).decomposition
        # The executor stays engine-agnostic: same bound on the tuple spec.
        for engine in (database, as_reference_database(database)):
            for decomposition in (given_decomposition, given_decomposition.contracted()):
                run = YannakakisExecutor(engine, full_query).execute(
                    decomposition, materialize_result=True
                )
                assert len(run.fold_sizes) == decomposition.tree.num_nodes() - 1
                assert all(size <= len(run.result) for size in run.fold_sizes)
                assert run.max_intermediate >= max(
                    [len(run.result), *run.node_sizes.values()]
                )
                assert sorted(set(run.result.project(columns).rows)) == expected_rows

    @settings(max_examples=60, **COMMON_SETTINGS)
    @given(database_and_query())
    def test_random_queries_through_the_solver(self, case):
        self._check(*case)

    @settings(max_examples=60, **COMMON_SETTINGS)
    @given(centre_rooted_chain())
    def test_chains_rooted_in_the_middle_and_cycles(self, case):
        self._check(*case)


class TestCacheTransparency:
    @settings(max_examples=60, **COMMON_SETTINGS)
    @given(database_and_query(), st.data())
    def test_cold_warm_and_disabled_runs_are_byte_identical(self, case, data):
        database, query = case
        cache_dir = os.path.join(
            os.environ.get("TMPDIR", "/tmp"),
            f"ctd-prop-{abs(hash(tuple(a.alias + a.relation for a in query.atoms)))}",
        )
        cache = DecompositionCache(cache_dir)
        cache.clean()
        try:
            cold = frontdoor_answer(database, query, cache=cache)
            warm = frontdoor_answer(database, query, cache=cache)
            disabled = frontdoor_answer(database, query, cache=None)
        finally:
            cache.clean()
        assert cold.rows == warm.rows == disabled.rows
        assert cold.value == warm.value == disabled.value
        assert cold.width == warm.width == disabled.width
        assert disabled.provenance in ("solve", "none")


@st.composite
def sql_case(draw):
    """A random schema with globally unique column names plus a SQL query."""
    num_tables = draw(st.integers(min_value=2, max_value=3))
    database = Database()
    all_columns = []
    for index in range(num_tables):
        arity = draw(st.integers(min_value=1, max_value=2))
        num_rows = draw(st.integers(min_value=0, max_value=10))
        names = [f"t{index}c{j}" for j in range(arity)]
        columns = [
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=DOMAIN - 1),
                    min_size=num_rows,
                    max_size=num_rows,
                )
            )
            for _ in range(arity)
        ]
        database.create_table_columns(f"T{index}", names, columns)
        all_columns.extend(names)
    num_conditions = draw(st.integers(min_value=1, max_value=3))
    conditions = [
        f"{draw(st.sampled_from(all_columns))} = "
        f"{draw(st.sampled_from(all_columns))}"
        for _ in range(num_conditions)
    ]
    aggregate = draw(st.sampled_from(["COUNT", "MIN", "MAX"]))
    target = draw(st.sampled_from(all_columns))
    sql = (
        f"SELECT {aggregate}({target}) FROM "
        + ", ".join(f"T{index}" for index in range(num_tables))
        + " WHERE "
        + " AND ".join(conditions)
    )
    return database, sql


class TestSqlEntry:
    """SQL-text queries through the hardened parser match the oracle."""

    @settings(max_examples=60, **COMMON_SETTINGS)
    @given(sql_case())
    def test_sql_text_matches_reference_engine(self, case):
        database, sql = case
        result = run_query(sql, database, cache=None)
        assert result.outcome.complete
        _, expected_value = reference_answer(database, result.plan.query)
        assert result.value == expected_value


def _oracle_canonical_rows(relation, columns):
    """``canonical_rows`` as it was before it ranked distinct values: one
    Python ``(type name, repr)`` key tuple per row."""
    return sorted(
        relation.project(list(columns)).rows,
        key=lambda row: tuple((type(value).__name__, repr(value)) for value in row),
    )


#: Ints and strings whose ``repr`` order differs from their natural order
#: (``10 < 2``, ``-1``, quoting), mixed within a column.
MIXED_VALUES = st.one_of(
    st.integers(min_value=-12, max_value=120),
    st.sampled_from(["", "a", "b", "10", "2", "-1", "A", "a b", "é"]),
)


class TestCanonicalRowOrder:
    @settings(max_examples=150, **COMMON_SETTINGS)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda arity: st.lists(
                st.tuples(*[MIXED_VALUES] * arity), max_size=40
            )
        ),
        st.data(),
    )
    def test_matches_the_per_row_repr_sort(self, rows, data):
        arity = len(rows[0]) if rows else 2
        attributes = [f"c{i}" for i in range(arity)]
        relation = Relation("M", attributes, rows)
        columns = data.draw(st.permutations(attributes))
        columns = columns[: data.draw(st.integers(min_value=0, max_value=arity))]
        assert canonical_rows(relation, columns) == _oracle_canonical_rows(
            relation, columns
        )


#: Values interned after the rank table was first built: ints and strings
#: whose keys land between the ``MIXED_VALUES`` ones, a float key that sorts
#: before every int and string key, a tuple key that sorts after them, and
#: repeats of already interned values.
LATER_VALUES = st.one_of(
    MIXED_VALUES,
    st.integers(min_value=121, max_value=10_000),
    st.text(alphabet="aAbz1 ", min_size=1, max_size=3),
    st.sampled_from([-0.5, ("z",)]),
)


class TestRankTableFollowsInternerGrowth:
    @settings(max_examples=100, **COMMON_SETTINGS)
    @given(
        st.lists(
            st.tuples(MIXED_VALUES, MIXED_VALUES), min_size=2, max_size=30, unique=True
        ),
        st.lists(st.tuples(LATER_VALUES, LATER_VALUES), min_size=1, max_size=30),
        st.permutations(["c0", "c1"]),
    )
    def test_rows_interned_after_first_use_sort_canonically(
        self, old_rows, later_rows, columns
    ):
        interner = ValueInterner()
        old = Relation("O", ["c0", "c1"], old_rows, interner=interner)
        assert canonical_rows(old, columns) == _oracle_canonical_rows(old, columns)
        # A second relation on the same interner interns the later values.
        Relation("L", ["c0", "c1"], later_rows, interner=interner)
        mixed_rows = old_rows + later_rows + [
            (old_row[0], later_row[1])
            for old_row, later_row in zip(old_rows, later_rows)
        ]
        mixed = Relation("M", ["c0", "c1"], mixed_rows, interner=interner)
        assert canonical_rows(mixed, columns) == _oracle_canonical_rows(mixed, columns)
