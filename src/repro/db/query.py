"""Conjunctive queries and their hypergraphs.

A conjunctive query is a set of atoms ``alias: relation(var_1, ..., var_n)``
with an optional aggregate over one variable (the paper's benchmark queries
are all ``SELECT MIN(...)``/``MAX(...)`` over a join).  Every atom becomes a
hyperedge named by its alias, so self-joins (the Hetionet queries join the
same edge table several times) yield distinct hyperedges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.hypergraph.hypergraph import Hypergraph

#: How many query shapes :meth:`ConjunctiveQuery.hypergraph` keeps interned.
INTERNED_SHAPES = 256

# Edge spec -> its interned hypergraph, least recently used first.
_INTERNED: Dict[Tuple[Tuple[str, Tuple[str, ...]], ...], Hypergraph] = {}


@dataclass(frozen=True)
class Atom:
    """One atom of a conjunctive query.

    ``alias`` names the atom (unique within the query), ``relation`` is the
    database relation it refers to, and ``variables`` maps the relation's
    attributes to query variables: ``variables[i]`` is the query variable
    bound to the ``i``-th attribute listed in ``attributes``.  Attributes not
    mentioned are simply not used by the query.
    """

    alias: str
    relation: str
    attributes: Tuple[str, ...]
    variables: Tuple[str, ...]

    def __post_init__(self):
        if len(self.attributes) != len(self.variables):
            raise ValueError(
                f"atom {self.alias!r}: {len(self.attributes)} attributes but "
                f"{len(self.variables)} variables"
            )

    def variable_of(self, attribute: str) -> str:
        return self.variables[self.attributes.index(attribute)]

    def attribute_of(self, variable: str) -> str:
        return self.attributes[self.variables.index(variable)]


@dataclass
class ConjunctiveQuery:
    """A conjunctive (join) query with an optional aggregate output."""

    atoms: List[Atom]
    aggregate: Optional[Tuple[str, str]] = None  # (function, variable)
    name: str = "query"

    def __post_init__(self):
        aliases = [atom.alias for atom in self.atoms]
        if len(set(aliases)) != len(aliases):
            raise ValueError("atom aliases must be unique within a query")

    # -- accessors -----------------------------------------------------------------

    def atom(self, alias: str) -> Atom:
        for atom in self.atoms:
            if atom.alias == alias:
                return atom
        raise KeyError(f"no atom with alias {alias!r}")

    def variables(self) -> List[str]:
        seen = []
        for atom in self.atoms:
            for variable in atom.variables:
                if variable not in seen:
                    seen.append(variable)
        return seen

    def hypergraph(self) -> Hypergraph:
        """The query hypergraph: one edge per atom, vertices are variables.

        Interned per shape: every query whose atoms give the same edge spec
        — ``(alias, variables deduplicated in order)`` per atom, in atom
        order — gets the same immutable :class:`Hypergraph`, so its bitset
        tables, canonical form, acyclicity verdict and λ-covers (memoised
        on it) are derived once per shape, not once per request.  The spec
        keeps names and order, which ``Hypergraph.__eq__`` ignores, so two
        shapes that differ in an alias never share a memo.  The table holds
        the :data:`INTERNED_SHAPES` most recently used shapes.
        """
        spec = tuple(
            (atom.alias, tuple(dict.fromkeys(atom.variables))) for atom in self.atoms
        )
        hypergraph = _INTERNED.pop(spec, None)
        if hypergraph is None:
            hypergraph = Hypergraph(dict(spec))
            while len(_INTERNED) >= INTERNED_SHAPES:
                del _INTERNED[next(iter(_INTERNED))]
        _INTERNED[spec] = hypergraph
        return hypergraph

    def partition_labels(
        self, relation_partition: Mapping[str, str]
    ) -> Dict[str, str]:
        """Translate a relation-level partitioning into edge (alias) labels."""
        return {
            atom.alias: relation_partition[atom.relation]
            for atom in self.atoms
            if atom.relation in relation_partition
        }

    def __repr__(self) -> str:
        return f"ConjunctiveQuery({self.name!r}, atoms={len(self.atoms)})"


def atom(
    alias: str,
    relation: str,
    bindings: Mapping[str, str],
) -> Atom:
    """Convenience constructor: ``bindings`` maps attribute name -> variable."""
    attributes = tuple(bindings.keys())
    variables = tuple(bindings.values())
    return Atom(alias=alias, relation=relation, attributes=attributes, variables=variables)
