"""The :class:`Hypergraph` data structure.

A hypergraph is a pair ``(V, E)`` where ``E`` is a set of named hyperedges,
each a subset of ``V``.  Vertices are arbitrary hashable values (strings in
most of this code base).  Edges carry names because the database layer maps
each hyperedge to a relation (atom) of a conjunctive query and needs to refer
back to it; the combinatorial layer mostly works with the edge vertex sets.

The class is immutable after construction, which lets us cache derived
structures (incidence lists, vertex ordering) and safely share hypergraphs
between decomposition searches.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

Vertex = Hashable


class Edge:
    """A named hyperedge: an immutable set of vertices with a name.

    Two edges compare equal iff both their names and vertex sets are equal.
    Edges are hashable and can be used as dictionary keys, e.g. in ``λ``
    labels of decompositions.
    """

    __slots__ = ("name", "vertices")

    def __init__(self, name: str, vertices: Iterable[Vertex]):
        self.name = str(name)
        self.vertices: FrozenSet[Vertex] = frozenset(vertices)

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self.vertices

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Edge):
            return NotImplemented
        return self.name == other.name and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash((self.name, self.vertices))

    def __repr__(self) -> str:
        verts = ",".join(sorted(map(str, self.vertices)))
        return f"Edge({self.name!r}, {{{verts}}})"


class Hypergraph:
    """An immutable hypergraph with named edges.

    Parameters
    ----------
    edges:
        Either a mapping ``name -> iterable of vertices`` or an iterable of
        :class:`Edge` objects / ``(name, vertices)`` pairs.
    vertices:
        Optional extra vertices.  The paper assumes hypergraphs without
        isolated vertices; we allow them for generality but most algorithms
        require ``self.has_isolated_vertices()`` to be ``False``.
    """

    __slots__ = (
        "_edges", "_vertices", "_incidence", "_edge_order", "_bitsets", "_canonical",
    )

    def __init__(
        self,
        edges: Iterable,
        vertices: Optional[Iterable[Vertex]] = None,
    ):
        edge_list = []
        if isinstance(edges, Mapping):
            items: Iterable = edges.items()
        else:
            items = edges
        for item in items:
            if isinstance(item, Edge):
                edge_list.append(item)
            else:
                name, verts = item
                edge_list.append(Edge(name, verts))
        names = [e.name for e in edge_list]
        if len(set(names)) != len(names):
            raise ValueError("duplicate edge names in hypergraph")
        self._edges: Dict[str, Edge] = {e.name: e for e in edge_list}
        self._edge_order: Tuple[str, ...] = tuple(e.name for e in edge_list)
        vertex_set = set()
        for e in edge_list:
            vertex_set.update(e.vertices)
        if vertices is not None:
            vertex_set.update(vertices)
        self._vertices: FrozenSet[Vertex] = frozenset(vertex_set)
        incidence: Dict[Vertex, list] = {v: [] for v in self._vertices}
        for e in edge_list:
            for v in e.vertices:
                incidence[v].append(e)
        self._incidence = {v: tuple(es) for v, es in incidence.items()}
        self._bitsets = None
        #: Memo of :func:`repro.hypergraph.canonical.canonical_form` (safe for
        #: the same reason as ``_bitsets``: the hypergraph is immutable).
        self._canonical = None

    # -- basic accessors ---------------------------------------------------

    @property
    def vertices(self) -> FrozenSet[Vertex]:
        """The vertex set ``V(H)``."""
        return self._vertices

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """The edges ``E(H)`` in insertion order."""
        return tuple(self._edges[name] for name in self._edge_order)

    @property
    def edge_names(self) -> Tuple[str, ...]:
        return self._edge_order

    def edge(self, name: str) -> Edge:
        """Return the edge with the given name."""
        return self._edges[name]

    def __contains__(self, name: str) -> bool:
        return name in self._edges

    def num_vertices(self) -> int:
        return len(self._vertices)

    def num_edges(self) -> int:
        return len(self._edges)

    def size(self) -> int:
        """``||H||``: total number of vertex occurrences over all edges."""
        return sum(len(e) for e in self.edges)

    def incident_edges(self, vertex: Vertex) -> Tuple[Edge, ...]:
        """``I(v)``: the edges containing ``vertex``."""
        return self._incidence.get(vertex, ())

    def has_isolated_vertices(self) -> bool:
        return any(len(es) == 0 for es in self._incidence.values())

    # -- bitset kernel -----------------------------------------------------

    @property
    def bitsets(self) -> "HypergraphBitsets":
        """The cached mask tables for this hypergraph (built on first use).

        Immutability makes the cache safe: the vertex order, per-edge masks
        and the [S]-component memo all remain valid for the lifetime of the
        hypergraph.  Masks are an internal representation — public APIs
        accept and return frozensets (see :mod:`repro.hypergraph.bitset`).
        """
        bitsets = self._bitsets
        if bitsets is None:
            from repro.hypergraph.bitset import HypergraphBitsets

            bitsets = HypergraphBitsets(
                self._vertices,
                [(name, self._edges[name].vertices) for name in self._edge_order],
            )
            self._bitsets = bitsets
        return bitsets

    def edge_mask(self, name: str) -> int:
        """The vertex mask of the named edge."""
        return self.bitsets.edge_mask_by_name[name]

    def vertex_mask(self, vertices: Iterable[Vertex]) -> int:
        """Encode ``vertices ∩ V(H)`` as a mask (unknown vertices dropped)."""
        return self.bitsets.indexer.to_mask_clipped(vertices)

    def vertex_set(self, mask: int) -> FrozenSet[Vertex]:
        """Decode a mask produced by this hypergraph's indexer."""
        return self.bitsets.indexer.to_frozenset(mask)

    # -- derived hypergraphs -----------------------------------------------

    def induced_subhypergraph(self, vertex_subset: Iterable[Vertex]) -> "Hypergraph":
        """``H[U]``: vertices ``U`` and edges ``{e ∩ U | e ∈ E(H)} \\ {∅}``.

        Edges that become equal after restriction are kept once (the first
        edge name wins); this matches how induced subhypergraphs are used in
        the decomposition algorithms, where only the vertex sets matter.
        """
        universe = frozenset(vertex_subset) & self._vertices
        seen = {}
        for e in self.edges:
            restricted = e.vertices & universe
            if restricted and restricted not in seen:
                seen[restricted] = e.name
        edges = [Edge(name, verts) for verts, name in seen.items()]
        return Hypergraph(edges, vertices=universe)

    def restrict_edges(self, edge_names: Iterable[str]) -> "Hypergraph":
        """The subhypergraph consisting of the named edges only."""
        names = set(edge_names)
        return Hypergraph([self._edges[n] for n in self._edge_order if n in names])

    def vertices_of(self, edges: Iterable[Edge]) -> FrozenSet[Vertex]:
        """``⋃λ`` for a collection ``λ`` of edges."""
        result = set()
        for e in edges:
            result.update(e.vertices)
        return frozenset(result)

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self._vertices == other._vertices
            and {e.vertices for e in self.edges} == {e.vertices for e in other.edges}
        )

    def __hash__(self) -> int:
        return hash((self._vertices, frozenset(e.vertices for e in self.edges)))

    def __repr__(self) -> str:
        return f"Hypergraph(|V|={self.num_vertices()}, |E|={self.num_edges()})"

    # -- convenience constructors -------------------------------------------

    @classmethod
    def from_edge_sets(cls, edge_sets: Sequence[Iterable[Vertex]]) -> "Hypergraph":
        """Build a hypergraph from unnamed vertex sets (named ``e0``, ``e1``, ...)."""
        return cls({f"e{i}": verts for i, verts in enumerate(edge_sets)})
