"""Dictionary encoding for the columnar relation engine.

A :class:`ValueInterner` maps each distinct Python value to a dense ``int64``
code (assigned in first-seen order) and back.  Every relation of a database
shares the database's interner, so equal values always carry equal codes and
the relational operators can compare, hash and sort raw code arrays without
ever touching the underlying Python objects.

Codes are only meaningful relative to the interner that produced them;
:meth:`translate` re-encodes a foreign column when two relations with
different interners meet in a binary operator (which only happens for
standalone relations — everything inside a :class:`repro.db.Database` shares
one interner).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

CODE_DTYPE = np.int64


def canonical_key(value: object) -> Tuple[str, str]:
    """The canonical value order's key: ``(type name, repr)`` is total and
    deterministic even on mixed-type columns (interned ints and strings)."""
    return (type(value).__name__, repr(value))


class ValueInterner:
    """A bijection between distinct values and dense ``int64`` codes.

    The decode and rank tables are built once per interner state and
    rebuilt when values were interned since (codes are append-only).
    """

    __slots__ = ("_codes", "_values", "_table", "_ranks")

    def __init__(self) -> None:
        self._codes: dict = {}
        self._values: List[object] = []
        self._table = np.empty(0, dtype=object)
        self._ranks = np.empty(0, dtype=CODE_DTYPE)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return f"ValueInterner(|values|={len(self._values)})"

    # -- encoding ----------------------------------------------------------

    def code(self, value: object) -> int:
        """The code of ``value``, interning it on first sight."""
        codes = self._codes
        code = codes.get(value, -1)
        if code < 0:
            code = len(self._values)
            codes[value] = code
            self._values.append(value)
        return code

    def encode_column(self, values: Sequence[object]) -> np.ndarray:
        """Encode a whole column of values into an ``int64`` code array.

        Numpy arrays take a vectorised path: only the *distinct* values are
        interned (via ``np.unique``), so encoding a generated column is
        ``O(n log n)`` array work plus a Python loop over the distinct
        values only.  Any other sequence is interned value by value.
        """
        if isinstance(values, np.ndarray):
            return self._encode_array(values)
        code = self.code
        return np.fromiter((code(v) for v in values), dtype=CODE_DTYPE, count=len(values))

    def _encode_array(self, values: np.ndarray) -> np.ndarray:
        if values.size == 0:
            return np.empty(0, dtype=CODE_DTYPE)
        if values.dtype == object:
            # Iterating an object array yields the raw Python objects (no
            # ``.item()``, possibly unsortable under np.unique) — intern
            # them one by one like any other sequence.
            code = self.code
            return np.fromiter(
                (code(v) for v in values.tolist()),
                dtype=CODE_DTYPE,
                count=values.size,
            )
        uniques, inverse = np.unique(values, return_inverse=True)
        code = self.code
        # ``.item()`` interns native Python scalars, keeping decoded rows
        # (and figure output) free of numpy scalar types.
        table = np.fromiter(
            (code(v.item()) for v in uniques), dtype=CODE_DTYPE, count=len(uniques)
        )
        return table[inverse.reshape(values.shape)]

    # -- decoding ----------------------------------------------------------

    def value(self, code: int) -> object:
        """The value behind ``code``."""
        return self._values[code]

    def values(self) -> List[object]:
        """All interned values, in code order (do not mutate)."""
        return self._values

    def decode_column(self, codes: np.ndarray) -> List[object]:
        """Decode a code array back into a list of Python values.

        One gather through the object table, so the result holds the
        interned objects themselves, not numpy scalars.
        """
        if len(self._table) != len(self._values):
            self._table = np.fromiter(
                self._values, dtype=object, count=len(self._values)
            )
        return self._table[codes].tolist()

    def canonical_ranks(self) -> np.ndarray:
        """Per code, the dense rank of its value's :func:`canonical_key`
        (equal keys share a rank; one key call per interned value)."""
        if len(self._ranks) != len(self._values):
            keys = list(map(canonical_key, self._values))
            rank = {key: i for i, key in enumerate(sorted(set(keys)))}
            self._ranks = np.array([rank[key] for key in keys], dtype=CODE_DTYPE)
        return self._ranks

    # -- cross-interner translation ---------------------------------------

    def translate(self, columns: Iterable[np.ndarray], target: "ValueInterner"):
        """Re-encode code columns of this interner into ``target``'s codes.

        Unseen values are interned into ``target``; the translation is a
        single ``np.take`` per column through a lookup table.
        """
        if target is self:
            return [np.asarray(column) for column in columns]
        code = target.code
        table = np.fromiter(
            (code(v) for v in self._values), dtype=CODE_DTYPE, count=len(self._values)
        )
        return [
            table[column] if len(column) else np.empty(0, dtype=CODE_DTYPE)
            for column in columns
        ]
