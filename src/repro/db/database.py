"""A database: a catalogue of named relations plus schema metadata.

The database owns the :class:`~repro.db.interner.ValueInterner` that
dictionary-encodes every column of every relation it holds, so all relations
of one database live in a single code space and the columnar operators can
join and semi-join raw code arrays.  ``relation_cls`` selects the engine:
the columnar :class:`repro.db.relation.Relation` by default, or the
tuple-at-a-time :class:`repro.db.reference.ReferenceRelation` spec (used by
the equivalence tests and the join benchmark).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Type, TypeVar

from repro.db.interner import ValueInterner
from repro.db.relation import Relation

T = TypeVar("T")


class Database:
    """Named relations with optional primary-key metadata.

    Primary keys matter for the actual-cardinality cost function of
    Appendix C.2.2, whose ``ReduceAttrs`` definition distinguishes attributes
    that are primary keys of their relation (semijoins along such attributes
    are assumed not to reduce the parent).

    What depends only on the relations (estimator, atom scans, cost
    models) is computed once per database, in :meth:`derived`.
    """

    def __init__(self, relation_cls: Optional[Type] = None) -> None:
        self._relations: Dict[str, Relation] = {}
        self._primary_keys: Dict[str, str] = {}
        self.relation_cls: Type = relation_cls or Relation
        self.interner = ValueInterner()
        self._derived: Dict[Hashable, object] = {}

    # -- schema management -------------------------------------------------------

    def add_relation(
        self, relation: Relation, primary_key: Optional[str] = None
    ) -> None:
        if relation.name in self._relations:
            raise ValueError(f"relation {relation.name!r} already exists")
        if (
            hasattr(relation, "with_interner")
            and getattr(relation, "interner", None) is not self.interner
        ):
            # Re-encode foreign-interner relations into this database's code
            # space so joins inside the database never need translation.
            relation = relation.with_interner(self.interner)
        self._relations[relation.name] = relation
        if primary_key is not None:
            if primary_key not in relation.attributes:
                raise ValueError(
                    f"primary key {primary_key!r} is not an attribute of "
                    f"{relation.name!r}"
                )
            self._primary_keys[relation.name] = primary_key

    def new_relation(
        self, name: str, attributes: Sequence[str], rows: Iterable
    ) -> Relation:
        """Build (but do not register) a relation in this database's engine."""
        return self.relation_cls(name, attributes, rows, interner=self.interner)

    def create_table(
        self,
        name: str,
        attributes: Sequence[str],
        rows: Iterable,
        primary_key: Optional[str] = None,
    ) -> Relation:
        relation = self.new_relation(name, attributes, rows)
        self.add_relation(relation, primary_key=primary_key)
        return relation

    def create_table_columns(
        self,
        name: str,
        attributes: Sequence[str],
        columns: Sequence[Sequence],
        primary_key: Optional[str] = None,
    ) -> Relation:
        """Create a table straight from value columns (ingest fast path).

        The columnar engine interns each column in one pass without ever
        materialising row tuples; engines without a ``from_columns``
        constructor (the reference spec) get the zipped rows instead.
        """
        from_columns = getattr(self.relation_cls, "from_columns", None)
        if from_columns is not None:
            relation = from_columns(
                name, attributes, columns, interner=self.interner
            )
        else:
            rows = list(zip(*columns)) if columns else []
            relation = self.relation_cls(
                name, attributes, rows, interner=self.interner
            )
        self.add_relation(relation, primary_key=primary_key)
        return relation

    # -- lookup ---------------------------------------------------------------------

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError as exc:
            raise KeyError(f"no relation named {name!r}") from exc

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def relation_names(self) -> List[str]:
        return sorted(self._relations)

    def primary_key(self, name: str) -> Optional[str]:
        return self._primary_keys.get(name)

    def derived(self, key: Hashable, build: Callable[[], T]) -> T:
        """The value under ``key`` in the one memo of data derived from the
        registered relations alone — the :attr:`estimator`, every atom scan
        (:func:`repro.db.yannakakis.atom_relation`) and every query's cost
        preferences (:func:`repro.db.cost.make_cost_preference`) — built by
        ``build()`` on first use.  Its only invalidation rule: a registered
        relation is never replaced, so no entry goes stale.  Entries are
        shared; a memo table inside an entry may fill, but its values never
        change.
        """
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]  # type: ignore[return-value]

    @property
    def estimator(self):
        """The database's one :class:`~repro.db.stats.CardinalityEstimator`,
        shared by every planner and executor over it (:meth:`derived`)."""
        from repro.db.stats import CardinalityEstimator

        return self.derived("estimator", lambda: CardinalityEstimator(self))

    def total_rows(self) -> int:
        return sum(len(rel) for rel in self._relations.values())

    def __repr__(self) -> str:
        return (
            f"Database(relations={len(self._relations)}, rows={self.total_rows()})"
        )
