"""Columnar in-memory relations with the operators the executors need.

A :class:`Relation` stores dictionary-encoded columns: every value is mapped
to a dense ``int64`` code by a :class:`repro.db.interner.ValueInterner`
(shared per database) and each attribute is held as a numpy code array.  The
hot operators run entirely on codes and stay in the interner's dense code
space:

* **keys** — the key columns of an operator are radix-packed into one
  ``int64`` (:func:`_pack_keys`: multiply by per-column ``max + 1`` bases),
  which also yields the key *span*, an exclusive upper bound on every key;
* **semi-join** — key membership;
* **projection with dedup** — first occurrence of every key, in row order;
* **natural join** — build-side stable sort, per-probe-row group lookup,
  probe expansion with ``np.repeat``/fancy indexing;
* **stable order** — :func:`_stable_order` sorts keys whose span fits in
  two 16-bit digits with one numpy radix pass per digit, wider keys with
  ``np.argsort``; the join's build side, the sort dedup kernel and
  ``sorted_rows`` all order rows through it;
* **MIN/MAX/COUNT aggregates** — distinct codes via the dedup kernel,
  decoded once.

Membership, dedup and group lookup each have two implementations: a
*table* kernel that scatters into / gathers from an array indexed by key
(linear in the rows, no sort) and a *sort* kernel (``np.isin``, the
stable order, ``searchsorted``).  :func:`_dense` picks the table whenever
it fits in :data:`_TABLE_BYTES_PER_ROW` bytes per input row — a property of
the input, never a setting — and both give identical rows in identical
order.

Relations also track **distinctness** (``_distinct``): set when an operator
proves its output duplicate-free (``project``; ``natural_join`` of two
distinct inputs), kept by the operators that only drop or relabel rows
(``semijoin``, ``select``, ``rename``, ``with_interner``), never set on
relations built from raw rows or columns.  Projecting a distinct relation
onto all of its attributes is then a column re-order instead of a dedup.

The public row-oriented API is unchanged from the seed tuple engine (which
lives on as the executable spec in :mod:`repro.db.reference`): ``rows`` is
still a list of value tuples (decoded lazily), all operators report the same
:class:`WorkCounter` totals, and execution cost stays roughly linear in the
sizes of the inputs and outputs — the same asymptotics a real DBMS achieves —
which keeps the *shape* of the experimental results comparable to the
paper's PostgreSQL numbers.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.db.interner import CODE_DTYPE, ValueInterner

Row = Tuple
Value = object


class WorkCounter:
    """Accumulates the amount of work done by relational operators."""

    def __init__(self) -> None:
        self.tuples_read = 0
        self.tuples_written = 0
        self.operations = 0

    def record(self, read: int, written: int) -> None:
        self.tuples_read += read
        self.tuples_written += written
        self.operations += 1

    @property
    def total(self) -> int:
        """A single scalar work measure (tuples read + written)."""
        return self.tuples_read + self.tuples_written

    def __repr__(self) -> str:
        return (
            f"WorkCounter(read={self.tuples_read}, written={self.tuples_written}, "
            f"ops={self.operations})"
        )


#: Largest key span the radix packing may produce before it falls back to
#: densifying the accumulated key (patched down by the kernel tests).
_PACK_LIMIT = int(np.iinfo(CODE_DTYPE).max)

#: The table kernels run when their tables take at most this many bytes per
#: input row; sparser keys take the sort kernels.  The tables are transient,
#: so this is also the bound on an operator's extra memory.  Measured on
#: 3 k - 300 k rows: at this density every table kernel beats its sort kernel
#: 3x or more; at four times the span, page-faulting the table for 300 k
#: rows costs as much as sorting them.
_TABLE_BYTES_PER_ROW = 256

#: Keys below this span are stably ordered by 16-bit digits, one radix pass
#: each; wider keys take ``np.argsort`` (patched by the kernel tests).  Two
#: digits, because a third pass lost to ``np.argsort``'s timsort on the
#: partly sorted 34-63-bit row keys of ``sorted_rows``.
_DIGIT_SPAN_LIMIT = 1 << 32


def _pack_keys(*sides: Sequence[np.ndarray]) -> Tuple[List[np.ndarray], int]:
    """Radix-pack the key columns of each side into one ``int64`` key per row.

    Every side lists the same key columns (non-empty, codes ``>= 0``), and
    the bases are shared, so equal code tuples get equal keys across sides.
    Returns the keys plus their *span*, an exclusive upper bound on every
    key.  Column ``i`` is mixed in as ``key * base_i + code`` with
    ``base_i = max code + 1``; only when that product could leave
    :data:`_PACK_LIMIT` is the accumulated key first densified to its rank
    among the distinct keys (one sort), which brings the span below the row
    count — so the packing is injective for any realistic interner size.
    Either way keys compare like the code tuples they stand for.
    """
    keys = [side[0] for side in sides]
    span = max(int(key.max()) for key in keys) + 1
    for columns in zip(*(side[1:] for side in sides)):
        base = max(int(column.max()) for column in columns) + 1
        if span * base > _PACK_LIMIT:
            uniques, ranks = np.unique(np.concatenate(keys), return_inverse=True)
            bounds = np.cumsum([len(key) for key in keys])[:-1]
            keys = np.split(ranks.astype(CODE_DTYPE, copy=False), bounds)
            span = len(uniques)
        keys = [key * base + column for key, column in zip(keys, columns)]
        span *= base
    return keys, span


def _stable_order(key: np.ndarray, span: int) -> np.ndarray:
    """Exactly ``np.argsort(key, kind="stable")`` for keys in ``[0, span)``.

    numpy radix-sorts ``uint16`` keys, so a key within
    :data:`_DIGIT_SPAN_LIMIT` is ordered by its low 16-bit digit, then
    (stably) by its high one.  A stable order is unique, so both paths give
    the same permutation.
    """
    if span > _DIGIT_SPAN_LIMIT:
        return np.argsort(key, kind="stable")
    # ``astype`` keeps the low 16 bits of the non-negative keys.
    order = np.argsort(key.astype(np.uint16), kind="stable")
    if span > 1 << 16:
        high = (key >> 16).astype(np.uint16)
        order = order[np.argsort(high[order], kind="stable")]
    return order


def _dense(span: int, slot_bytes: int, rows: int) -> bool:
    """Whether a ``span``-slot table is small enough for ``rows`` input rows."""
    return span * slot_bytes <= _TABLE_BYTES_PER_ROW * rows


def _member(left_key: np.ndarray, right_key: np.ndarray, span: int) -> np.ndarray:
    """Boolean mask of the ``left_key`` entries that occur in ``right_key``."""
    if _dense(span, 1, len(left_key) + len(right_key)):
        table = np.zeros(span, dtype=bool)
        table[right_key] = True
        return table[left_key]
    return np.isin(left_key, right_key)


def _first_occurrences(key: np.ndarray, span: int) -> np.ndarray:
    """Ascending row indices of the first occurrence of every distinct key."""
    index_dtype = np.min_scalar_type(len(key))
    if _dense(span, index_dtype.itemsize, len(key)):
        index = np.arange(len(key), dtype=index_dtype)
        # Scatter the row indices in reverse: with repeated keys the last
        # write wins, so every slot ends up holding its key's first row.
        # (numpy writes a 1-d fancy assignment in index order without
        # promising to; any other order would still keep exactly one row per
        # key, only not the first — the equivalence tests pin the order.)
        # Only slots of keys that occur are ever read, hence ``np.empty``.
        table = np.empty(span, dtype=index_dtype)
        table[key[::-1]] = index[::-1]
        return np.flatnonzero(table[key] == index)
    # The first row of every run of equal keys in the stable order.
    order = _stable_order(key, span)
    sorted_key = key[order]
    is_first = np.zeros(len(key), dtype=bool)
    is_first[order[np.concatenate(([True], sorted_key[1:] != sorted_key[:-1]))]] = True
    return np.flatnonzero(is_first)


def _group_ranges(
    build_key: np.ndarray, order: np.ndarray, probe_key: np.ndarray, span: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per probe key, the ``(start, size)`` of its group in ``build_key[order]``.

    ``order`` sorts ``build_key``; a probe key without a match gets size 0.
    """
    sorted_key = build_key[order]
    group_dtype = np.min_scalar_type(len(sorted_key))
    if _dense(span, group_dtype.itemsize, len(sorted_key) + len(probe_key)):
        # Number the groups 1..g in key order and look probes up in a
        # key -> group number table (0: no such group).
        is_start = np.concatenate(([True], sorted_key[1:] != sorted_key[:-1]))
        starts = np.flatnonzero(is_start)
        sizes = np.diff(starts, append=len(sorted_key))
        table = np.zeros(span, dtype=group_dtype)
        table[sorted_key[starts]] = np.arange(1, len(starts) + 1)
        group = table[probe_key]
        return (
            np.concatenate(([0], starts))[group],
            np.concatenate(([0], sizes))[group],
        )
    lo = np.searchsorted(sorted_key, probe_key, side="left")
    hi = np.searchsorted(sorted_key, probe_key, side="right")
    return lo, hi - lo


def _permutation(attributes: Tuple[str, ...], order: Optional[Sequence[str]]) -> Tuple[str, ...]:
    """``rename``'s column order: ``order`` (a permutation) or ``attributes``."""
    if order is not None and sorted(order) != sorted(attributes):
        raise ValueError(f"{list(order)} is not a permutation of {list(attributes)}")
    return attributes if order is None else tuple(order)


class Relation:
    """A named relation: attribute names plus dictionary-encoded columns."""

    __slots__ = (
        "name", "attributes", "_interner", "_columns", "_length", "_rows", "_distinct",
    )

    def __init__(
        self,
        name: str,
        attributes: Sequence[str],
        rows: Iterable[Row],
        interner: Optional[ValueInterner] = None,
    ):
        self.name = name
        self.attributes: Tuple[str, ...] = tuple(attributes)
        self._check_attributes()
        self._interner = interner if interner is not None else ValueInterner()
        materialized: List[Row] = [tuple(row) for row in rows]
        arity = len(self.attributes)
        for row in materialized:
            if len(row) != arity:
                raise ValueError(
                    f"row arity {len(row)} does not match schema arity "
                    f"{arity} in relation {name!r}"
                )
        code = self._interner.code
        self._columns: Tuple[np.ndarray, ...] = tuple(
            np.fromiter(
                (code(row[i]) for row in materialized),
                dtype=CODE_DTYPE,
                count=len(materialized),
            )
            for i in range(arity)
        )
        self._length = len(materialized)
        self._rows: Optional[List[Row]] = materialized
        self._distinct = False

    # -- alternative constructors ------------------------------------------------

    @classmethod
    def from_columns(
        cls,
        name: str,
        attributes: Sequence[str],
        columns: Sequence[Sequence[Value]],
        interner: Optional[ValueInterner] = None,
    ) -> "Relation":
        """Build a relation straight from value columns (no row tuples).

        This is the ingest fast path the workload generators use: each column
        is interned in one pass and never materialised as Python row tuples
        unless ``rows`` is later asked for.
        """
        if len(columns) != len(attributes):
            raise ValueError(
                f"{len(columns)} columns do not match schema arity "
                f"{len(attributes)} in relation {name!r}"
            )
        lengths = {len(column) for column in columns}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns in relation {name!r}: lengths {lengths}")
        interner = interner if interner is not None else ValueInterner()
        encoded = tuple(interner.encode_column(column) for column in columns)
        length = lengths.pop() if lengths else 0
        return cls._from_codes(name, attributes, encoded, length, interner)

    @classmethod
    def _from_codes(
        cls,
        name: str,
        attributes: Sequence[str],
        columns: Sequence[np.ndarray],
        length: int,
        interner: ValueInterner,
        distinct: bool = False,
    ) -> "Relation":
        """Trusted internal constructor from already-encoded columns.

        ``distinct`` asserts that no two rows are equal; pass it only when
        the producing operator proves it.
        """
        relation = cls.__new__(cls)
        relation.name = name
        relation.attributes = tuple(attributes)
        relation._check_attributes()
        relation._interner = interner
        relation._columns = tuple(columns)
        relation._length = length
        relation._rows = None
        relation._distinct = distinct
        return relation

    def _check_attributes(self) -> None:
        if len(set(self.attributes)) != len(self.attributes):
            raise ValueError(f"duplicate attribute names in relation {self.name!r}")

    # -- basics -----------------------------------------------------------------

    @property
    def rows(self) -> List[Row]:
        """The rows as value tuples, decoded from the code columns on demand."""
        if self._rows is None:
            if not self._columns:
                self._rows = [()] * self._length
            elif self._length == 0:
                self._rows = []
            else:
                decoded = [
                    self._interner.decode_column(column) for column in self._columns
                ]
                self._rows = list(zip(*decoded))
        return self._rows

    @property
    def interner(self) -> ValueInterner:
        return self._interner

    def codes(self, attribute: str) -> np.ndarray:
        """The raw code column of an attribute (kernel-internal view)."""
        return self._columns[self.attribute_index(attribute)]

    def __len__(self) -> int:
        return self._length

    def cardinality(self) -> int:
        return self._length

    def attribute_index(self, attribute: str) -> int:
        try:
            return self.attributes.index(attribute)
        except ValueError as exc:
            raise KeyError(
                f"relation {self.name!r} has no attribute {attribute!r}"
            ) from exc

    def column(self, attribute: str) -> List[Value]:
        return self._interner.decode_column(
            self._columns[self.attribute_index(attribute)]
        )

    def distinct_count(self, attribute: str) -> int:
        return len(np.unique(self._columns[self.attribute_index(attribute)]))

    def distinct_counts(self) -> Dict[str, int]:
        """Per-attribute distinct counts, one vectorised pass per column."""
        return {
            attribute: len(np.unique(column))
            for attribute, column in zip(self.attributes, self._columns)
        }

    def with_interner(self, interner: ValueInterner) -> "Relation":
        """This relation re-encoded against another interner."""
        if interner is self._interner:
            return self
        columns = self._interner.translate(self._columns, interner)
        return Relation._from_codes(
            self.name, self.attributes, columns, self._length, interner, self._distinct
        )

    def rename(
        self,
        new_name: str,
        mapping: Optional[Dict[str, str]] = None,
        order: Optional[Sequence[str]] = None,
    ) -> "Relation":
        """A renamed copy sharing the code arrays; ``mapping`` renames
        attributes and ``order``, a permutation of them, re-orders columns."""
        mapping = mapping or {}
        order = _permutation(self.attributes, order)
        renamed = Relation._from_codes(
            new_name,
            [mapping.get(a, a) for a in order],
            tuple(self.codes(a) for a in order),
            self._length,
            self._interner,
            self._distinct,
        )
        renamed._rows = self._rows if order == self.attributes else None
        return renamed

    # -- unary operators ------------------------------------------------------------

    def _take(self, name: str, indices: np.ndarray) -> "Relation":
        """The rows of ``self`` at ``indices`` (in order, each at most once)."""
        return Relation._from_codes(
            name,
            self.attributes,
            tuple(column[indices] for column in self._columns),
            len(indices),
            self._interner,
            self._distinct,
        )

    def project(
        self, attributes: Sequence[str], counter: Optional[WorkCounter] = None
    ) -> "Relation":
        """Duplicate-eliminating projection onto the given attributes."""
        indices = [self.attribute_index(a) for a in attributes]
        columns = tuple(self._columns[i] for i in indices)
        length = self._length
        # A distinct relation that keeps all of its attributes has nothing to
        # merge: the projection only re-orders its columns.
        reorder = self._distinct and len(set(indices)) == len(self.attributes)
        if not columns:
            # Zero-arity projection of a non-empty relation: the single empty
            # tuple (the relational "true").
            length = min(length, 1)
        elif length and not reorder:
            (key,), span = _pack_keys(columns)
            first = _first_occurrences(key, span)
            if len(first) < length:
                columns = tuple(column[first] for column in columns)
                length = len(first)
        result = Relation._from_codes(
            f"π({self.name})", attributes, columns, length, self._interner, True
        )
        if counter is not None:
            counter.record(self._length, length)
        return result

    def select(
        self, predicate: Callable[[Dict[str, Value]], bool],
        counter: Optional[WorkCounter] = None,
    ) -> "Relation":
        """Filter rows by a predicate over attribute-name dictionaries."""
        attributes = self.attributes
        keep = [
            i
            for i, row in enumerate(self.rows)
            if predicate(dict(zip(attributes, row)))
        ]
        result = self._take(f"σ({self.name})", np.asarray(keep, dtype=CODE_DTYPE))
        if counter is not None:
            counter.record(self._length, len(keep))
        return result

    def distinct(self, counter: Optional[WorkCounter] = None) -> "Relation":
        return self.project(self.attributes, counter=counter)

    def sorted_rows(self) -> List[Row]:
        """The rows, stably sorted by the interner's canonical value order:
        a rank gather per column, packed keys and one stable order."""
        if not self._columns or self._length < 2:
            return list(self.rows)
        ranks = self._interner.canonical_ranks()
        (key,), span = _pack_keys([ranks[column] for column in self._columns])
        return self._take(self.name, _stable_order(key, span)).rows

    # -- joins ------------------------------------------------------------------------

    def _shared_attributes(self, other: "Relation") -> List[str]:
        return [a for a in self.attributes if a in other.attributes]

    def _key_columns(self, other: "Relation", shared: Sequence[str]):
        own = [self._columns[self.attribute_index(a)] for a in shared]
        theirs = [other._columns[other.attribute_index(a)] for a in shared]
        return own, theirs

    def natural_join(
        self, other: "Relation", counter: Optional[WorkCounter] = None
    ) -> "Relation":
        """Code-level natural join on all shared attribute names.

        With no shared attributes this degenerates to the Cartesian product,
        exactly the situation the ConCov constraint is designed to avoid.
        """
        other = other.with_interner(self._interner)
        shared = self._shared_attributes(other)
        other_extra = [i for i, a in enumerate(other.attributes) if a not in shared]
        attributes = list(self.attributes) + [other.attributes[i] for i in other_extra]
        name = f"({self.name}⋈{other.name})"
        read = self._length + other._length
        # Two duplicate-free inputs give a duplicate-free join: an output row
        # carries every attribute of the pair of rows it came from.
        distinct = self._distinct and other._distinct
        if self._length == 0 or other._length == 0:
            empty = np.empty(0, dtype=CODE_DTYPE)
            if counter is not None:
                counter.record(read, 0)
            return Relation._from_codes(
                name,
                attributes,
                tuple(empty for _ in attributes),
                0,
                self._interner,
                distinct,
            )
        if not shared:
            left_index = np.repeat(
                np.arange(self._length, dtype=CODE_DTYPE), other._length
            )
            right_index = np.tile(
                np.arange(other._length, dtype=CODE_DTYPE), self._length
            )
        else:
            (left_key, right_key), span = _pack_keys(
                *self._key_columns(other, shared)
            )
            # Group the build side by key with a stable sort, then expand
            # every probe row by its matching group.
            order = _stable_order(right_key, span)
            lo, matches = _group_ranges(right_key, order, left_key, span)
            total = int(matches.sum())
            left_index = np.repeat(
                np.arange(self._length, dtype=CODE_DTYPE), matches
            )
            # Output row ``i`` of probe row ``p`` reads its group at offset
            # ``i - (outputs of the probe rows before p)``.
            offsets = lo - (np.cumsum(matches) - matches)
            right_index = order[
                np.arange(total, dtype=CODE_DTYPE) + np.repeat(offsets, matches)
            ]
        columns = [column[left_index] for column in self._columns]
        columns.extend(other._columns[i][right_index] for i in other_extra)
        if counter is not None:
            counter.record(read, len(left_index))
        return Relation._from_codes(
            name, attributes, tuple(columns), len(left_index), self._interner, distinct
        )

    def semijoin(
        self, other: "Relation", counter: Optional[WorkCounter] = None
    ) -> "Relation":
        """Keep the rows of ``self`` that join with at least one row of ``other``."""
        other = other.with_interner(self._interner)
        shared = self._shared_attributes(other)
        name = f"({self.name}⋉{other.name})"
        read = self._length + other._length
        if not shared and other._length:
            # Semi-join with no shared attributes keeps everything unless the
            # other side is empty (PostgreSQL behaves the same way).
            result = self.rename(name)
        elif self._length == 0 or other._length == 0:
            result = self._take(name, np.empty(0, dtype=CODE_DTYPE))
        else:
            (left_key, right_key), span = _pack_keys(
                *self._key_columns(other, shared)
            )
            result = self._take(
                name, np.flatnonzero(_member(left_key, right_key, span))
            )
        if counter is not None:
            counter.record(read, len(result))
        return result

    # -- aggregation -------------------------------------------------------------------

    def aggregate(self, function: str, attribute: str) -> Optional[Value]:
        """``MIN``/``MAX``/``COUNT`` over a column (``None`` on empty input)."""
        if function.upper() == "COUNT":
            return self._length
        if not self._length:
            return None
        codes = self._columns[self.attribute_index(attribute)]
        distinct = codes[_first_occurrences(codes, int(codes.max()) + 1)]
        values = self._interner.decode_column(distinct)
        if function.upper() == "MIN":
            return min(values)
        if function.upper() == "MAX":
            return max(values)
        raise ValueError(f"unsupported aggregate {function!r}")

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, |rows|={self._length}, attrs={self.attributes})"
