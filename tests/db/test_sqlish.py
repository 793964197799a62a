"""Unit tests for the SQL-ish parser."""

import re

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.db import sqlish
from repro.db.database import Database
from repro.db.sqlish import SqlError, parse_select_query
from repro.runtime.errors import UserError

SETTINGS = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Words and marks that make up rejection-check texts: every construct's
#: keywords in three cases, keyword look-alikes inside longer words, the
#: comparison marks and two non-ASCII letters that ``re.IGNORECASE``
#: matches to ``I`` and ``K``.
TOKENS = [
    variant
    for word in (
        "left", "outer", "cross", "join", "group", "by", "order", "limit",
        "having", "union", "except", "intersect", "distinct", "or", "not", "in",
        "like", "between", "exists", "is", "select", "and", "on", "where",
    )
    for variant in (word, word.upper(), word.title())
] + [
    "order_id", "isbn", "notes", "r.b", "=", "<", ">", "<>", "!=", "!", "'x'",
    "(", ")", ",", "\u0130n", "lIm\u0130t", "li\u212aE", "\u0130S", "t\u212aey",
]


def _rejection(text):
    """The message ``_reject_unsupported`` raises, or ``None``."""
    try:
        sqlish._reject_unsupported(text)
    except SqlError as error:
        return str(error)
    return None


def _loop_rejection(text):
    """The per-construct checks alone, without the word check in front."""
    for pattern, label in sqlish._UNSUPPORTED_CONSTRUCTS:
        if re.search(pattern, text, re.IGNORECASE):
            return (
                f"unsupported SQL construct ({label}); the dialect is "
                "SELECT MIN|MAX|COUNT(col) FROM tables [WHERE col = col AND ...]"
            )
    if re.search(r"\bSELECT\b", text, re.IGNORECASE):
        return "unsupported SQL construct (subqueries)"
    return None


@pytest.fixture
def schema():
    database = Database()
    database.create_table("R", ["a", "b"], [(1, 2)])
    database.create_table("S", ["b", "c"], [(2, 3)])
    database.create_table("T", ["c", "a"], [(3, 1)])
    database.create_table("E", ["s", "d"], [(1, 2)])
    return database


class TestBasicParsing:
    def test_comma_join_with_unqualified_aggregate_column(self, schema):
        query = parse_select_query(
            "SELECT MIN(a) FROM R, S WHERE R.b = S.b", schema
        )
        assert len(query.atoms) == 2
        assert query.aggregate[0] == "MIN"
        # R.b and S.b are merged into one variable; "a" resolves to R.a.
        r_atom = query.atom("R")
        s_atom = query.atom("S")
        assert r_atom.variable_of("b") == s_atom.variable_of("b")
        assert query.aggregate[1] == r_atom.variable_of("a")

    def test_qualified_columns_and_aliases(self, schema):
        query = parse_select_query(
            "SELECT MAX(e1.d) FROM E AS e1, E AS e2 WHERE e1.d = e2.s", schema
        )
        assert {atom.alias for atom in query.atoms} == {"e1", "e2"}
        assert query.atom("e1").relation == "E"
        assert query.atom("e1").variable_of("d") == query.atom("e2").variable_of("s")

    def test_join_on_syntax(self, schema):
        query = parse_select_query(
            "SELECT MIN(R.a) FROM R JOIN S ON R.b = S.b JOIN T ON S.c = T.c", schema
        )
        assert len(query.atoms) == 3
        hypergraph = query.hypergraph()
        assert hypergraph.num_edges() == 3

    def test_aggregate_variable_joins_equivalence_class(self, schema):
        query = parse_select_query(
            "SELECT MIN(R.a) FROM R, T WHERE R.a = T.a", schema
        )
        _, variable = query.aggregate
        assert query.atom("R").variable_of("a") == variable
        assert query.atom("T").variable_of("a") == variable


class TestErrors:
    def test_non_aggregate_query_rejected(self, schema):
        with pytest.raises(ValueError):
            parse_select_query("SELECT a FROM R", schema)

    def test_unknown_column_rejected(self, schema):
        with pytest.raises(ValueError):
            parse_select_query("SELECT MIN(zzz) FROM R", schema)

    def test_ambiguous_column_rejected(self, schema):
        # "b" exists in both R and S.
        with pytest.raises(ValueError):
            parse_select_query("SELECT MIN(a) FROM R, S WHERE b = c AND a = b", schema)

    def test_duplicate_alias_rejected(self, schema):
        with pytest.raises(ValueError):
            parse_select_query("SELECT MIN(a) FROM R AS x, S AS x WHERE x.b = x.b", schema)


class TestHardenedDialect:
    """Regression tests for the front-door parser hardening."""

    def test_sql_error_is_both_value_error_and_user_error(self, schema):
        with pytest.raises(SqlError) as excinfo:
            parse_select_query("SELECT MIN(a) FROM R JOIN S", schema)
        assert isinstance(excinfo.value, ValueError)
        assert isinstance(excinfo.value, UserError)
        assert excinfo.value.exit_code == 2

    def test_quoted_identifiers(self, schema):
        query = parse_select_query(
            'SELECT MIN("a") FROM "R" JOIN `S` ON "R"."b" = `S`.`b`', schema
        )
        assert len(query.atoms) == 2
        assert query.atom("R").variable_of("b") == query.atom("S").variable_of("b")

    def test_inner_join_and_trailing_semicolon(self, schema):
        query = parse_select_query(
            "SELECT MIN(a) FROM R INNER JOIN S ON R.b = S.b;", schema
        )
        assert len(query.atoms) == 2

    def test_join_without_on_rejected(self, schema):
        with pytest.raises(SqlError, match="ON"):
            parse_select_query("SELECT MIN(a) FROM R JOIN S", schema)

    def test_unknown_table_is_sql_error_not_crash(self, schema):
        with pytest.raises(SqlError, match="nowhere"):
            parse_select_query("SELECT MIN(a) FROM nowhere", schema)

    def test_duplicate_alias_message_names_both_tables(self, schema):
        with pytest.raises(SqlError, match="R") as excinfo:
            parse_select_query(
                "SELECT MIN(a) FROM R AS x, S AS x WHERE x.b = x.b", schema
            )
        assert "S" in str(excinfo.value)

    def test_self_join_via_distinct_aliases(self, schema):
        query = parse_select_query(
            "SELECT COUNT(e1.s) FROM E AS e1 JOIN E AS e2 ON e1.d = e2.s",
            schema,
        )
        assert [atom.relation for atom in query.atoms] == ["E", "E"]
        assert query.atom("e1").variable_of("d") == query.atom("e2").variable_of("s")

    def test_unknown_alias_qualifier_rejected(self, schema):
        with pytest.raises(SqlError, match="zz"):
            parse_select_query("SELECT MIN(a) FROM R WHERE zz.b = R.a", schema)

    def test_column_missing_from_aliased_table_rejected(self, schema):
        with pytest.raises(SqlError, match="c"):
            parse_select_query("SELECT MIN(R.c) FROM R", schema)

    def test_ambiguous_unqualified_column_names_candidates(self, schema):
        # "c" exists in both S and T.
        with pytest.raises(SqlError) as excinfo:
            parse_select_query("SELECT MIN(c) FROM S, T WHERE S.b = T.a", schema)
        message = str(excinfo.value)
        assert "S" in message and "T" in message

    def test_constants_rejected(self, schema):
        with pytest.raises(SqlError, match="constant"):
            parse_select_query("SELECT MIN(a) FROM R WHERE R.b = 5", schema)

    @pytest.mark.parametrize(
        "clause",
        [
            "SELECT MIN(a) FROM R LEFT JOIN S ON R.b = S.b",
            "SELECT MIN(a) FROM R, S WHERE R.b = S.b GROUP BY a",
            "SELECT MIN(a) FROM R, S WHERE R.b = S.b ORDER BY a",
            "SELECT MIN(a) FROM R, S WHERE R.b = S.b LIMIT 5",
            "SELECT MIN(a) FROM R, S WHERE R.b = S.b OR R.a = S.c",
            "SELECT MIN(a) FROM R, S WHERE R.b > S.b",
            "SELECT MIN(a) FROM R, S WHERE R.b != S.b",
            "SELECT MIN(a) FROM R WHERE R.b IN (SELECT b FROM S)",
            "SELECT MIN(a) FROM R WHERE R.b LIKE 'x'",
            "SELECT DISTINCT MIN(a) FROM R",
            "SELECT MIN(a) FROM (SELECT b FROM S) AS sub",
        ],
    )
    def test_unsupported_constructs_rejected(self, schema, clause):
        with pytest.raises(SqlError):
            parse_select_query(clause, schema)

    def test_two_constructs_report_the_first_listed(self, schema):
        # OR comes first in the text, ORDER BY first in the construct list.
        with pytest.raises(SqlError, match=r"\(ORDER BY\)"):
            parse_select_query(
                "SELECT MIN(a) FROM R, S WHERE R.b = S.b OR R.a = S.c ORDER BY a",
                schema,
            )

    @pytest.mark.parametrize(
        "sql",
        [
            "select min(a) from R join S on R.b = S.b where S.c = S.c",
            'SELECT COUNT("a") FROM "R" AS "x" JOIN `S` ON "x"."b" = `S`.`b`',
        ],
    )
    def test_supported_text_passes_the_word_check(self, schema, monkeypatch, sql):
        # The per-construct checks would reject anything: only the word
        # check can let the text through.
        monkeypatch.setattr(
            sqlish, "_UNSUPPORTED_CONSTRUCTS", (("", "any text"),)
        )
        assert len(parse_select_query(sql, schema).atoms) == 2

    @SETTINGS
    @given(st.lists(st.sampled_from(TOKENS), max_size=12).map(" ".join))
    @example("R.b != S.b")
    @example("R.b<S.b")
    @example("b = 'x'")
    def test_word_check_rejects_as_the_construct_loop(self, text):
        assert _rejection(text) == _loop_rejection(text)

    def test_select_star_full_join(self, schema):
        query = parse_select_query("SELECT * FROM R, S WHERE R.b = S.b", schema)
        assert query.aggregate is None
        # Every column of both tables becomes a variable; the join columns
        # share one class: {a, b=b, c} -> 3 variables.
        assert query.hypergraph().num_vertices() == 3

    def test_within_table_equality_repeats_variable(self, schema):
        query = parse_select_query(
            "SELECT MIN(E.s) FROM E, R WHERE E.s = E.d AND E.s = R.a", schema
        )
        e_atom = query.atom("E")
        assert e_atom.variable_of("s") == e_atom.variable_of("d")


class TestPaperQueries:
    def test_tpcds_query_parses(self):
        from repro.workloads.tpcds import QDS_SQL, build_tpcds_database

        database = build_tpcds_database(scale=0.05)
        query = parse_select_query(QDS_SQL, database, name="q_ds")
        assert len(query.atoms) == 5
        hypergraph = query.hypergraph()
        assert hypergraph.num_edges() == 5
        assert hypergraph.num_vertices() == 4

    def test_hetionet_queries_parse(self):
        from repro.workloads.hetionet import HETIONET_QUERY_SQL, build_hetionet_database, hetionet_query

        database = build_hetionet_database(scale=0.1)
        expected_atoms = {"q_hto": 7, "q_hto2": 7, "q_hto3": 4, "q_hto4": 6}
        for name, count in expected_atoms.items():
            query = hetionet_query(database, name)
            assert len(query.atoms) == count
        with pytest.raises(KeyError):
            hetionet_query(database, "q_unknown")

    def test_lsqb_query_parses(self):
        from repro.workloads.lsqb import QLB_SQL, build_lsqb_database

        database = build_lsqb_database(scale=0.1)
        query = parse_select_query(QLB_SQL, database, name="q_lb")
        assert len(query.atoms) == 6
        # Table 1 reports |H| = 6 for q_lb.
        assert query.hypergraph().num_edges() == 6
