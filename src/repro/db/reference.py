"""The seed tuple-at-a-time relational engine, kept as the executable spec.

This is the pre-columnar :class:`Relation` implementation, preserved verbatim
(mirroring how :mod:`repro.core.reference` preserves the frozenset kernel):
every operator loops over Python tuples and builds dict/set hash tables.  The
columnar engine in :mod:`repro.db.relation` must be observationally
equivalent — identical row *sets*, identical :class:`WorkCounter` totals,
identical aggregates — which
``tests/property/test_property_relation_equivalence.py`` asserts on
randomized databases and queries and on the paper's six benchmark queries
over generated data.

``interner`` is accepted (and ignored) by the constructor so that
:class:`repro.db.database.Database` can instantiate either engine through
the same ``relation_cls`` factory hook.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.db.interner import canonical_key
from repro.db.relation import Row, Value, WorkCounter, _permutation

__all__ = ["ReferenceRelation", "as_reference_database"]


class ReferenceRelation:
    """A named relation: attribute names plus a list of value tuples."""

    __slots__ = ("name", "attributes", "rows")

    def __init__(
        self,
        name: str,
        attributes: Sequence[str],
        rows: Iterable[Row],
        interner: object = None,
    ):
        self.name = name
        self.attributes: Tuple[str, ...] = tuple(attributes)
        if len(set(self.attributes)) != len(self.attributes):
            raise ValueError(f"duplicate attribute names in relation {name!r}")
        self.rows: List[Row] = [tuple(row) for row in rows]
        for row in self.rows:
            if len(row) != len(self.attributes):
                raise ValueError(
                    f"row arity {len(row)} does not match schema arity "
                    f"{len(self.attributes)} in relation {name!r}"
                )

    # -- basics -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def cardinality(self) -> int:
        return len(self.rows)

    def attribute_index(self, attribute: str) -> int:
        try:
            return self.attributes.index(attribute)
        except ValueError as exc:
            raise KeyError(
                f"relation {self.name!r} has no attribute {attribute!r}"
            ) from exc

    def column(self, attribute: str) -> List[Value]:
        index = self.attribute_index(attribute)
        return [row[index] for row in self.rows]

    def distinct_count(self, attribute: str) -> int:
        index = self.attribute_index(attribute)
        return len({row[index] for row in self.rows})

    def distinct_counts(self) -> Dict[str, int]:
        """Per-attribute distinct counts (one pass per attribute)."""
        return {a: self.distinct_count(a) for a in self.attributes}

    def rename(
        self,
        new_name: str,
        mapping: Optional[Dict[str, str]] = None,
        order: Optional[Sequence[str]] = None,
    ) -> "ReferenceRelation":
        """A renamed copy; ``mapping`` renames attributes and ``order``, a
        permutation of them, re-orders columns."""
        mapping = mapping or {}
        order = _permutation(self.attributes, order)
        indices = [self.attribute_index(a) for a in order]
        rows = [tuple(row[i] for i in indices) for row in self.rows]
        return ReferenceRelation(new_name, [mapping.get(a, a) for a in order], rows)

    # -- unary operators ------------------------------------------------------------

    def project(
        self, attributes: Sequence[str], counter: Optional[WorkCounter] = None
    ) -> "ReferenceRelation":
        """Duplicate-eliminating projection onto the given attributes."""
        indices = [self.attribute_index(a) for a in attributes]
        seen = set()
        rows = []
        for row in self.rows:
            projected = tuple(row[i] for i in indices)
            if projected not in seen:
                seen.add(projected)
                rows.append(projected)
        if counter is not None:
            counter.record(len(self.rows), len(rows))
        return ReferenceRelation(f"π({self.name})", attributes, rows)

    def select(
        self, predicate: Callable[[Dict[str, Value]], bool],
        counter: Optional[WorkCounter] = None,
    ) -> "ReferenceRelation":
        """Filter rows by a predicate over attribute-name dictionaries."""
        rows = []
        for row in self.rows:
            binding = dict(zip(self.attributes, row))
            if predicate(binding):
                rows.append(row)
        if counter is not None:
            counter.record(len(self.rows), len(rows))
        return ReferenceRelation(f"σ({self.name})", self.attributes, rows)

    def distinct(self, counter: Optional[WorkCounter] = None) -> "ReferenceRelation":
        return self.project(self.attributes, counter=counter)

    def sorted_rows(self) -> List[Row]:
        """The rows, stably sorted by their values' :func:`canonical_key`."""
        return sorted(self.rows, key=lambda row: tuple(map(canonical_key, row)))

    # -- joins ------------------------------------------------------------------------

    def _shared_attributes(self, other: "ReferenceRelation") -> List[str]:
        return [a for a in self.attributes if a in other.attributes]

    def natural_join(
        self, other: "ReferenceRelation", counter: Optional[WorkCounter] = None
    ) -> "ReferenceRelation":
        """Hash-based natural join on all shared attribute names.

        With no shared attributes this degenerates to the Cartesian product,
        exactly the situation the ConCov constraint is designed to avoid.
        """
        shared = self._shared_attributes(other)
        own_indices = [self.attribute_index(a) for a in shared]
        other_indices = [other.attribute_index(a) for a in shared]
        other_extra = [
            i for i, a in enumerate(other.attributes) if a not in shared
        ]
        attributes = list(self.attributes) + [other.attributes[i] for i in other_extra]
        # Build the hash table on the smaller input.
        build_on_other = len(other.rows) <= len(self.rows)
        rows: List[Row] = []
        if build_on_other:
            table: Dict[Row, List[Row]] = {}
            for row in other.rows:
                key = tuple(row[i] for i in other_indices)
                table.setdefault(key, []).append(row)
            for row in self.rows:
                key = tuple(row[i] for i in own_indices)
                for match in table.get(key, ()):
                    rows.append(tuple(row) + tuple(match[i] for i in other_extra))
        else:
            table = {}
            for row in self.rows:
                key = tuple(row[i] for i in own_indices)
                table.setdefault(key, []).append(row)
            for row in other.rows:
                key = tuple(row[i] for i in other_indices)
                extra = tuple(row[i] for i in other_extra)
                for match in table.get(key, ()):
                    rows.append(tuple(match) + extra)
        if counter is not None:
            counter.record(len(self.rows) + len(other.rows), len(rows))
        return ReferenceRelation(f"({self.name}⋈{other.name})", attributes, rows)

    def semijoin(
        self, other: "ReferenceRelation", counter: Optional[WorkCounter] = None
    ) -> "ReferenceRelation":
        """Keep the rows of ``self`` that join with at least one row of ``other``."""
        shared = self._shared_attributes(other)
        if not shared:
            # Semi-join with no shared attributes keeps everything unless the
            # other side is empty (PostgreSQL behaves the same way).
            rows = list(self.rows) if other.rows else []
            if counter is not None:
                counter.record(len(self.rows) + len(other.rows), len(rows))
            return ReferenceRelation(f"({self.name}⋉{other.name})", self.attributes, rows)
        own_indices = [self.attribute_index(a) for a in shared]
        other_indices = [other.attribute_index(a) for a in shared]
        keys = {tuple(row[i] for i in other_indices) for row in other.rows}
        rows = [
            row for row in self.rows if tuple(row[i] for i in own_indices) in keys
        ]
        if counter is not None:
            counter.record(len(self.rows) + len(other.rows), len(rows))
        return ReferenceRelation(f"({self.name}⋉{other.name})", self.attributes, rows)

    # -- aggregation -------------------------------------------------------------------

    def aggregate(self, function: str, attribute: str) -> Optional[Value]:
        """``MIN``/``MAX``/``COUNT`` over a column (``None`` on empty input)."""
        if function.upper() == "COUNT":
            return len(self.rows)
        if not self.rows:
            return None
        values = self.column(attribute)
        if function.upper() == "MIN":
            return min(values)
        if function.upper() == "MAX":
            return max(values)
        raise ValueError(f"unsupported aggregate {function!r}")

    def __repr__(self) -> str:
        return (
            f"ReferenceRelation({self.name!r}, |rows|={len(self.rows)}, "
            f"attrs={self.attributes})"
        )


def as_reference_database(database):
    """A deep copy of ``database`` running on the reference tuple engine.

    The copy has the same relations (rows decoded back to Python values) and
    the same primary keys, but its ``relation_cls`` is
    :class:`ReferenceRelation`, so every executor driven through it exercises
    the tuple-at-a-time spec instead of the columnar kernel.
    """
    from repro.db.database import Database

    reference = Database(relation_cls=ReferenceRelation)
    for name in database.relation_names():
        relation = database.relation(name)
        reference.create_table(
            name,
            relation.attributes,
            relation.rows,
            primary_key=database.primary_key(name),
        )
    return reference
