"""A parser for the simple SQL dialect used by the paper's benchmark queries.

Supported shape (sufficient for the evaluation queries and the JOB-lite
workload):

.. code-block:: sql

    SELECT MIN(col) FROM t1, t2 AS a, t3 AS b
    WHERE a.x = b.y AND col2 = a.z ...

    SELECT MIN(col) FROM t1 AS a JOIN t2 AS b ON a.x = b.y JOIN ...

    SELECT * FROM t1 AS a JOIN t2 AS b ON a.x = b.y

``SELECT *`` yields an aggregate-free query whose answer is the full
join (one query variable per join-equivalence class).

Identifiers may be double-quoted or backtick-quoted (``"title"``);
``INNER JOIN`` is accepted as a synonym for ``JOIN`` and every ``JOIN``
must carry an ``ON`` clause.  Column references may be qualified
(``alias.column``) or unqualified, in which case they are resolved against
the database schema (they must be unambiguous, which holds for
TPC-DS-style schemas).  The parser produces a
:class:`repro.db.query.ConjunctiveQuery`: join equalities induce variable
equivalence classes; each table occurrence becomes one atom over the
variables of its referenced columns.

Everything outside that shape — outer joins, disjunctions, comparisons
other than ``=``, constants, grouping/ordering, subqueries — is rejected
with :class:`SqlError`, which is both a :class:`ValueError` (so library
callers can keep catching that) and a
:class:`repro.runtime.errors.UserError` (so the CLI reports it as a
one-line ``error: ...`` with exit code 2 instead of a traceback).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.db.database import Database
from repro.db.query import Atom, ConjunctiveQuery
from repro.runtime.errors import UserError

__all__ = ["SqlError", "parse_select_query"]


class SqlError(UserError, ValueError):
    """A query outside the supported dialect (or referencing unknown schema).

    Subclasses :class:`ValueError` for backward compatibility with callers
    that predate the error taxonomy, and :class:`UserError` so the CLI
    boundary maps it to a one-line message with exit code 2.
    """


_SELECT_RE = re.compile(
    r"^\s*SELECT\s+(?:(?P<agg>MIN|MAX|COUNT)\s*\(\s*(?P<column>[\w.]+)\s*\)|\*)\s+"
    r"FROM\s+(?P<rest>.*)$",
    re.IGNORECASE | re.DOTALL,
)

#: One ``column = column`` equality — the only condition the dialect has.
#: Anchored: a conjunct must be *exactly* this, so stray operators or
#: constants are rejected instead of silently ignored.
_EQUALITY_RE = re.compile(r"^\s*([\w.]+)\s*=\s*([\w.]+)\s*$")

#: Quoted identifiers are normalised away up front: the dialect treats
#: ``"title"`` / `` `title` `` exactly like ``title``.
_QUOTED_IDENT_RE = re.compile(r'["`](\w+)["`]')

#: Constructs the dialect deliberately does not support, each rejected
#: with a targeted message instead of being half-parsed.  Checked on the
#: quote-normalised text, word-boundary anchored.
_UNSUPPORTED_CONSTRUCTS: Tuple[Tuple[str, str], ...] = (
    (r"\b(?:LEFT|RIGHT|FULL|OUTER|CROSS)\s+(?:OUTER\s+)?JOIN\b", "outer/cross joins"),
    (r"\bGROUP\s+BY\b", "GROUP BY"),
    (r"\bORDER\s+BY\b", "ORDER BY"),
    (r"\bLIMIT\b", "LIMIT"),
    (r"\bHAVING\b", "HAVING"),
    (r"\bUNION\b", "UNION"),
    (r"\bEXCEPT\b", "EXCEPT"),
    (r"\bINTERSECT\b", "INTERSECT"),
    (r"\bDISTINCT\b", "DISTINCT"),
    (r"\b(?:OR|NOT)\b", "OR/NOT conditions"),
    (r"\b(?:IN|LIKE|BETWEEN|EXISTS|IS)\b", "predicates other than equality"),
    (r"[<>]|!=", "comparison operators other than ="),
    (r"'", "string literals"),
)

#: Every construct above, and a subquery, needs one of these words (a whole
#: ``\w+`` run, any case) or one of these marks, so a text with neither
#: holds none of them.
_UNSUPPORTED_WORDS = frozenset(
    "LEFT RIGHT FULL OUTER CROSS GROUP ORDER LIMIT HAVING UNION EXCEPT "
    "INTERSECT DISTINCT OR NOT IN LIKE BETWEEN EXISTS IS SELECT".split()
)
_UNSUPPORTED_MARKS = ("<", ">", "!=", "'")
_WORD_RE = re.compile(r"\w+")


class _UnionFind:
    def __init__(self) -> None:
        self._parent: Dict[Tuple[str, str], Tuple[str, str]] = {}

    def add(self, item: Tuple[str, str]) -> None:
        self._parent.setdefault(item, item)

    def find(self, item: Tuple[str, str]) -> Tuple[str, str]:
        self.add(item)
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: Tuple[str, str], b: Tuple[str, str]) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb

    def items(self):
        return list(self._parent)


def _normalise(sql: str) -> str:
    """Strip a trailing semicolon and unquote ``"ident"`` / `` `ident` ``."""
    text = sql.strip().rstrip(";").strip()
    return _QUOTED_IDENT_RE.sub(r"\1", text)


def _reject_unsupported(text: str) -> None:
    # One look at the text's words rules every construct out at once; the
    # ordered checks below run only when one may be there, so the message
    # names the first-listed construct.  ``str.upper`` agrees with
    # ``re.IGNORECASE`` on ASCII text only (``\u0130`` matches ``I``).
    if (
        text.isascii()
        and _UNSUPPORTED_WORDS.isdisjoint(_WORD_RE.findall(text.upper()))
        and not any(mark in text for mark in _UNSUPPORTED_MARKS)
    ):
        return
    for pattern, label in _UNSUPPORTED_CONSTRUCTS:
        if re.search(pattern, text, re.IGNORECASE):
            raise SqlError(
                f"unsupported SQL construct ({label}); the dialect is "
                "SELECT MIN|MAX|COUNT(col) FROM tables [WHERE col = col AND ...]"
            )
    # A second SELECT can only be a subquery (the leading one was consumed
    # by the caller's match before this check runs on the remainder).
    if re.search(r"\bSELECT\b", text, re.IGNORECASE):
        raise SqlError("unsupported SQL construct (subqueries)")


def _split_from_where(rest: str) -> Tuple[str, str]:
    """Split the text after FROM into the table list and the condition text."""
    match = re.search(r"\bWHERE\b", rest, re.IGNORECASE)
    if match:
        return rest[: match.start()], rest[match.end():]
    return rest, ""


def _parse_tables(from_clause: str) -> Tuple[List[Tuple[str, str]], str]:
    """Parse the FROM clause into (table, alias) pairs and ON conditions."""
    conditions: List[str] = []
    # Normalise JOIN ... ON ... into comma-separated tables + conditions.
    text = re.sub(r"\bINNER\s+JOIN\b", "JOIN", from_clause, flags=re.IGNORECASE)
    pieces = re.split(r"\bJOIN\b", text, flags=re.IGNORECASE)
    tables_text: List[str] = []
    for i, piece in enumerate(pieces):
        if i == 0:
            tables_text.append(piece)
            continue
        on_split = re.split(r"\bON\b", piece, flags=re.IGNORECASE, maxsplit=1)
        if len(on_split) < 2:
            raise SqlError(
                "JOIN without an ON clause; write explicit JOIN ... ON "
                "conditions (or use comma-separated tables with WHERE)"
            )
        tables_text.append(on_split[0])
        conditions.append(on_split[1])
    tables: List[Tuple[str, str]] = []
    for chunk in ",".join(tables_text).split(","):
        chunk = chunk.strip()
        if not chunk:
            raise SqlError("empty table reference in FROM clause")
        parts = re.split(r"\s+AS\s+|\s+", chunk, flags=re.IGNORECASE)
        parts = [p for p in parts if p and p.upper() != "AS"]
        if len(parts) > 2:
            raise SqlError(
                f"cannot parse table reference {chunk!r}; expected "
                "'table' or 'table AS alias'"
            )
        if len(parts) == 1:
            tables.append((parts[0], parts[0]))
        else:
            tables.append((parts[0], parts[1]))
    if not tables:
        raise SqlError("FROM clause names no tables")
    return tables, " AND ".join(conditions)


def _check_tables(
    tables: List[Tuple[str, str]], database: Database
) -> Dict[str, str]:
    """The FROM clause's alias -> table map.

    Unknown tables and duplicate aliases are schema errors, not crashes.
    """
    seen: Dict[str, str] = {}
    for table, alias in tables:
        if table not in database:
            raise SqlError(
                f"unknown table {table!r}; known: {sorted(database.relation_names())}"
            )
        if alias in seen:
            raise SqlError(
                f"duplicate table alias {alias!r} in FROM clause "
                f"(tables {seen[alias]!r} and {table!r}); "
                "give each occurrence a distinct alias"
            )
        seen[alias] = table
    return seen


def _column_aliases(
    tables: List[Tuple[str, str]], database: Database
) -> Dict[str, List[str]]:
    """Per column name, the aliases whose table has it, in FROM order."""
    index: Dict[str, List[str]] = {}
    for table, alias in tables:
        for column in dict.fromkeys(database.relation(table).attributes):
            index.setdefault(column, []).append(alias)
    return index


def _resolve_column(
    reference: str,
    alias_to_table: Dict[str, str],
    column_aliases: Dict[str, List[str]],
) -> Tuple[str, str]:
    """Resolve a column reference to (alias, column)."""
    if "." in reference:
        alias, column = reference.split(".", 1)
        if alias not in alias_to_table:
            raise SqlError(
                f"unknown table alias in column reference {reference!r}; "
                f"FROM binds: {sorted(alias_to_table)}"
            )
        if alias not in column_aliases.get(column, ()):
            raise SqlError(
                f"table {alias_to_table[alias]!r} (alias {alias!r}) has no "
                f"column {column!r}"
            )
        return alias, column
    aliases = column_aliases.get(reference)
    if not aliases:
        raise SqlError(f"column {reference!r} not found in any FROM table")
    if len(aliases) > 1:
        raise SqlError(
            f"column {reference!r} is ambiguous; qualify it with one of: "
            f"{sorted(aliases)}"
        )
    return aliases[0], reference


def _parse_conditions(condition_text: str) -> List[Tuple[str, str]]:
    """Split a WHERE/ON conjunction into strict ``col = col`` equalities."""
    equalities: List[Tuple[str, str]] = []
    for conjunct in re.split(r"\bAND\b", condition_text, flags=re.IGNORECASE):
        conjunct = conjunct.strip()
        if not conjunct:
            continue
        match = _EQUALITY_RE.match(conjunct)
        if not match:
            raise SqlError(
                f"unsupported condition {conjunct!r}; only column = column "
                "equalities joined by AND are supported"
            )
        left, right = match.group(1), match.group(2)
        if left[0].isdigit() or right[0].isdigit():
            raise SqlError(
                f"unsupported condition {conjunct!r}; constants are not "
                "supported, only column = column equalities"
            )
        equalities.append((left, right))
    return equalities


def parse_select_query(
    sql: str, database: Database, name: Optional[str] = None
) -> ConjunctiveQuery:
    """Parse an aggregate equijoin query into a :class:`ConjunctiveQuery`.

    Raises :class:`SqlError` (a ``ValueError`` and ``UserError``) on any
    query outside the supported dialect, with a message naming the
    offending construct.
    """
    text = _normalise(sql)
    match = _SELECT_RE.match(text)
    if not match:
        raise SqlError(
            "query must be of the form SELECT AGG(col) FROM ... [WHERE ...] "
            "or SELECT * FROM ... [WHERE ...]"
        )
    aggregate_function = match.group("agg")
    if aggregate_function is not None:
        aggregate_function = aggregate_function.upper()
    aggregate_column = match.group("column")
    rest = match.group("rest")
    _reject_unsupported(rest)
    from_clause, where_clause = _split_from_where(rest)
    tables, join_conditions = _parse_tables(from_clause)
    alias_to_table = _check_tables(tables, database)
    column_aliases = _column_aliases(tables, database)
    condition_text = " AND ".join(filter(None, [join_conditions, where_clause]))

    union_find = _UnionFind()
    for left, right in _parse_conditions(condition_text):
        left_ref = _resolve_column(left, alias_to_table, column_aliases)
        right_ref = _resolve_column(right, alias_to_table, column_aliases)
        union_find.union(left_ref, right_ref)
    aggregate_ref: Optional[Tuple[str, str]] = None
    if aggregate_function is not None:
        aggregate_ref = _resolve_column(
            aggregate_column, alias_to_table, column_aliases
        )
        union_find.add(aggregate_ref)

    # Assign variable names per equivalence class.
    class_names: Dict[Tuple[str, str], str] = {}

    def variable_for(reference: Tuple[str, str]) -> str:
        root = union_find.find(reference)
        if root not in class_names:
            class_names[root] = f"v{len(class_names)}"
        return class_names[root]

    atoms: List[Atom] = []
    for table, alias in tables:
        used_columns: List[str] = []
        if aggregate_function is None:
            # SELECT *: the answer is the full join, so every attribute of
            # every table occurrence becomes a query variable (join columns
            # keep their shared equivalence class, the rest get their own).
            for column in database.relation(table).attributes:
                union_find.add((alias, column))
                used_columns.append(column)
        for alias_ref, column in union_find.items():
            if alias_ref == alias and column not in used_columns:
                used_columns.append(column)
        if not used_columns:
            # A table with no join column would be a Cartesian factor; keep it
            # connected through its first attribute so the query stays well
            # formed (none of the benchmark queries trigger this).
            used_columns = [database.relation(table).attributes[0]]
            union_find.add((alias, used_columns[0]))
        attributes = tuple(used_columns)
        variables = tuple(variable_for((alias, column)) for column in used_columns)
        atoms.append(
            Atom(alias=alias, relation=table, attributes=attributes, variables=variables)
        )

    aggregate: Optional[Tuple[str, str]] = None
    if aggregate_ref is not None:
        aggregate = (aggregate_function, variable_for(aggregate_ref))
    return ConjunctiveQuery(
        atoms=atoms,
        aggregate=aggregate,
        name=name or "query",
    )
