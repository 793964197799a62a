"""Isomorphism-invariant canonical forms of hypergraphs.

The decomposition algorithms are pure functions of the query *shape*: two
hypergraphs that differ only in vertex names and edge names/order have
exactly the same CompNF CTDs up to renaming.  This module computes, for a
:class:`~repro.hypergraph.hypergraph.Hypergraph`, a :class:`CanonicalForm`
carrying

* a **fingerprint** — a sha256 hex digest that is identical for isomorphic
  hypergraphs (the key of the persistent decomposition cache), and
* a **relabeling permutation** — a canonical vertex order, so vertex sets
  (bags of a cached CTD) can be translated between the caller's vertex
  names and label-free canonical indices and back.

Algorithm
---------

1. **Iterated WL-style refinement**: vertices and edges are colored by
   mutual recursion — an edge's signature is its size plus the sorted
   multiset of its vertex colors, a vertex's signature is its old color
   plus the sorted multiset of its incident edge colors — until the vertex
   partition stabilises.  Signatures are densified to integers by sorted
   order, never hashed, so colors are deterministic across processes and
   hash seeds.
2. **Individualisation search**: while some color class holds more than
   one vertex, one vertex of the first (lowest-color) non-singleton class
   is individualised (given a fresh color) and refinement re-runs; the
   recursion branches on the class and keeps the first lexicographically
   least resulting edge encoding.  True twins (vertices with identical
   incident edge sets, which are automorphic by transposition) are
   collapsed to one branch, which keeps e.g. a single wide edge from
   exploding the search.
3. **Orbit pruning** (McKay & Piperno, *Practical graph isomorphism II*,
   2014): a leaf whose encoding *equals* the best one yields an
   automorphism (each vertex to the best leaf's vertex at its index).  A
   node skips a branch vertex in the orbit (union-find) of an explored
   sibling under the automorphisms that fix the node's individualised
   prefix pointwise.  Such an automorphism maps the explored subtree onto
   the skipped one with equal encodings, and the explored one comes first,
   so the first least leaf — and hence the fingerprint, order and
   encoding — is exactly that of the unpruned search; only symmetric
   shapes visit fewer leaves (a 16-cycle 32 → 4).  The leaf count stays
   capped (:data:`MAX_LEAVES`) as a backstop; the cap binding can only
   cost cache hits, never correctness — every cache hit is independently
   re-certified against the caller's hypergraph before being served.

Edges are canonicalised as the *set* of distinct vertex sets — edge names
and duplicated edges are invisible to every decomposition algorithm, so
they are invisible to the fingerprint too (matching ``Hypergraph.__eq__``).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.hypergraph.hypergraph import Hypergraph, Vertex

__all__ = ["CanonicalForm", "canonical_form", "hypergraph_fingerprint", "MAX_LEAVES"]

#: Upper bound on explored leaves of the individualisation search.  With
#: twin collapsing and orbit pruning, real query hypergraphs resolve in a
#: handful of leaves; the cap is a backstop against adversarial inputs
#: (where a truncated search may cost cache hits, never wrong answers).
MAX_LEAVES = 4096


class CanonicalForm:
    """The canonical form of one hypergraph.

    ``order`` maps canonical indices to the caller's vertices
    (``order[i]`` is the vertex with canonical index ``i``); ``encoding``
    is the sorted tuple of edges as sorted canonical-index tuples.  The
    fingerprint is the sha256 of the canonical JSON of the encoding, so
    isomorphic hypergraphs — same shape, any vertex/edge naming — agree on
    it while the permutation stays private to each labeling.
    """

    __slots__ = ("fingerprint", "order", "encoding", "_index")

    def __init__(self, order: Tuple[Vertex, ...], encoding: Tuple[Tuple[int, ...], ...]):
        self.order = order
        self.encoding = encoding
        self._index: Dict[Vertex, int] = {v: i for i, v in enumerate(order)}
        payload = json.dumps(
            {"vertices": len(order), "edges": [list(edge) for edge in encoding]},
            sort_keys=True,
            separators=(",", ":"),
        )
        self.fingerprint = hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- permutation --------------------------------------------------------

    def index_of(self, vertex: Vertex) -> int:
        """The canonical index of one of the caller's vertices."""
        return self._index[vertex]

    def to_canonical_bag(self, bag: Iterable[Vertex]) -> List[int]:
        """Translate a vertex set into sorted canonical indices.

        Raises :class:`KeyError` on vertices the hypergraph does not have —
        a bag that cannot be expressed in canonical indices must never be
        written to the cache.
        """
        return sorted(self._index[v] for v in bag)

    def from_canonical_bag(self, indices: Iterable[int]) -> FrozenSet[Vertex]:
        """Translate canonical indices back into the caller's vertices.

        Raises :class:`ValueError` on out-of-range indices (a corrupt or
        foreign cache entry), never returns a partial bag.
        """
        order = self.order
        bag = []
        for index in indices:
            if not isinstance(index, int) or not 0 <= index < len(order):
                raise ValueError(f"canonical vertex index {index!r} is out of range")
            bag.append(order[index])
        return frozenset(bag)


# -- refinement --------------------------------------------------------------


def _refine(
    colors: List[int],
    edges: Sequence[Tuple[int, ...]],
    incidence: Sequence[Tuple[int, ...]],
) -> List[int]:
    """Run WL-style refinement to a stable vertex coloring.

    ``edges[j]`` lists the vertex ids of edge ``j``; ``incidence[v]`` the
    edge ids containing vertex ``v``.  Colors are densified by sorted
    signature each round, so the result depends only on the partition, not
    on any hash function.
    """
    classes = len(set(colors))
    while True:
        edge_signatures = [
            (len(edge),) + tuple(sorted(colors[v] for v in edge)) for edge in edges
        ]
        edge_palette = {sig: i for i, sig in enumerate(sorted(set(edge_signatures)))}
        edge_colors = [edge_palette[sig] for sig in edge_signatures]
        vertex_signatures = [
            (colors[v],) + tuple(sorted(edge_colors[e] for e in incidence[v]))
            for v in range(len(colors))
        ]
        vertex_palette = {
            sig: i for i, sig in enumerate(sorted(set(vertex_signatures)))
        }
        colors = [vertex_palette[sig] for sig in vertex_signatures]
        new_classes = len(vertex_palette)
        if new_classes == classes:
            return colors
        classes = new_classes


def _encode(
    position: List[int], edges: Sequence[Tuple[int, ...]]
) -> Tuple[Tuple[int, ...], ...]:
    """The edge encoding under ``position`` (vertex id -> canonical index)."""
    return tuple(
        sorted(tuple(sorted(position[v] for v in edge)) for edge in edges)
    )


class _Search:
    """Individualisation-refinement search for the least edge encoding."""

    def __init__(
        self,
        edges: Sequence[Tuple[int, ...]],
        incidence: Sequence[Tuple[int, ...]],
        tie_key: Sequence,
    ):
        self.edges = edges
        self.incidence = incidence
        #: Deterministic (but label-dependent) order for picking branch
        #: representatives; only the *choice order* depends on it, and with
        #: an unexhausted leaf budget every orbit is explored anyway.
        self.tie_key = tie_key
        self.leaves_left = MAX_LEAVES
        self.best_encoding: Optional[Tuple] = None
        self.best_position: Optional[List[int]] = None
        #: Automorphisms found so far, each as a vertex -> image list.
        self.automorphisms: List[List[int]] = []

    def run(self, colors: List[int]) -> None:
        self._descend(_refine(colors, self.edges, self.incidence), ())

    def _descend(self, colors: List[int], prefix: Tuple[int, ...]) -> None:
        if self.leaves_left <= 0:
            return
        cells: Dict[int, List[int]] = {}
        for v, color in enumerate(colors):
            cells.setdefault(color, []).append(v)
        target: Optional[List[int]] = None
        for color in sorted(cells):
            if len(cells[color]) > 1:
                target = cells[color]
                break
        if target is None:
            # A discrete coloring is a position: vertex id -> canonical index.
            self.leaves_left -= 1
            encoding = _encode(colors, self.edges)
            if self.best_encoding is None or encoding < self.best_encoding:
                self.best_encoding = encoding
                self.best_position = colors
            elif encoding == self.best_encoding:
                # Equal encodings: v -> the best leaf's vertex at v's index
                # preserves every edge, so it is an automorphism.
                at_index = [0] * len(colors)
                for u, index in enumerate(self.best_position):
                    at_index[index] = u
                self.automorphisms.append([at_index[index] for index in colors])
            return
        # Collapse true twins: vertices with identical incident edge sets
        # are automorphic by transposition, so one branch per incidence
        # signature covers every distinct outcome.
        groups: Dict[Tuple[int, ...], int] = {}
        for v in sorted(target, key=lambda u: self.tie_key[u]):
            groups.setdefault(self.incidence[v], v)
        # Orbits (union-find) of the automorphisms fixing the prefix
        # pointwise: they map this node to itself, so a branch in an
        # explored branch's orbit is that branch's image, leaf for leaf.
        orbit = list(range(len(colors)))

        def find(u: int) -> int:
            while orbit[u] != u:
                orbit[u] = u = orbit[orbit[u]]
            return u

        merged = 0
        explored: List[int] = []
        for v in groups.values():
            if self.leaves_left <= 0:
                return
            for gamma in self.automorphisms[merged:]:
                if all(gamma[u] == u for u in prefix):
                    for u, image in enumerate(gamma):
                        orbit[find(u)] = find(image)
            merged = len(self.automorphisms)
            if any(find(u) == find(v) for u in explored):
                continue
            explored.append(v)
            # Individualise v: give it a color below its cell, densify.
            branched = [
                (color, 0 if u == v else 1) for u, color in enumerate(colors)
            ]
            palette = {sig: i for i, sig in enumerate(sorted(set(branched)))}
            self._descend(
                _refine(
                    [palette[sig] for sig in branched], self.edges, self.incidence
                ),
                prefix + (v,),
            )


def canonical_form(hypergraph: Hypergraph) -> CanonicalForm:
    """Compute the canonical form (fingerprint + permutation) of a hypergraph.

    Isomorphic hypergraphs get equal fingerprints; the permutation
    (:attr:`CanonicalForm.order`) maps canonical indices back to this
    particular labeling's vertices.  Deterministic for a fixed labeling.
    The form is memoised on the (immutable) hypergraph, so one request
    canonicalises once however many layers — each soft-width level, the
    cache probe, the fingerprint — ask for it.
    """
    canonical = hypergraph._canonical
    if canonical is None:
        canonical = hypergraph._canonical = _canonical_form(hypergraph)
    return canonical


def _canonical_form(hypergraph: Hypergraph) -> CanonicalForm:
    vertices = sorted(hypergraph.vertices, key=lambda v: (str(type(v)), str(v)))
    vertex_id = {v: i for i, v in enumerate(vertices)}
    # Distinct edge vertex sets only: names and duplicates are invisible to
    # the solvers, so they must be invisible to the fingerprint too.
    edge_sets = sorted(
        {frozenset(vertex_id[v] for v in edge.vertices) for edge in hypergraph.edges},
        key=lambda s: tuple(sorted(s)),
    )
    edges: List[Tuple[int, ...]] = [tuple(sorted(s)) for s in edge_sets]
    incidence_lists: List[List[int]] = [[] for _ in vertices]
    for j, edge in enumerate(edges):
        for v in edge:
            incidence_lists[v].append(j)
    incidence = [tuple(ids) for ids in incidence_lists]
    if not vertices:
        return CanonicalForm((), tuple(edges))
    search = _Search(edges, incidence, tie_key=[str(v) for v in vertices])
    search.run([0] * len(vertices))
    assert search.best_position is not None  # at least one leaf was explored
    order: List[Vertex] = [None] * len(vertices)  # type: ignore[list-item]
    for v, index in enumerate(search.best_position):
        order[index] = vertices[v]
    return CanonicalForm(tuple(order), search.best_encoding)


def hypergraph_fingerprint(hypergraph: Hypergraph) -> str:
    """The isomorphism-invariant fingerprint of ``hypergraph``.

    Convenience wrapper around :func:`canonical_form` for callers that
    only need the cache key / provenance identity (e.g. the query front
    door's ``--explain`` output), not the permutation.
    """
    return canonical_form(hypergraph).fingerprint
