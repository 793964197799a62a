"""Int-mask bitset kernel for vertex-set algebra.

Every combinatorial hot path of the decomposition pipeline — candidate-bag
generation (``Soft^i_{H,k}``), [S]-components, edge covers and the block
dynamic program — reduces to set algebra over subsets of ``V(H)``.
This module represents those subsets as Python ints (bit ``i`` set iff the
``i``-th vertex in a fixed order is present), turning unions, intersections,
subset tests and cardinalities into single machine-word-per-64-vertices
operations instead of hash-based frozenset traversals.

Two invariants hold throughout the code base:

* **Masks never leak through public APIs.**  All public functions keep their
  frozenset-based signatures; masks are an internal representation that is
  materialised back into frozensets at the API boundary via
  :meth:`VertexIndexer.to_frozenset`.
* **One indexer per hypergraph.**  A mask is only meaningful relative to the
  :class:`VertexIndexer` that produced it; the cached
  :class:`HypergraphBitsets` on each (immutable) :class:`Hypergraph` is the
  single source of masks for that hypergraph.

The frozenset implementations this replaces live on as the executable
specification in :mod:`repro.core.reference`.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Sequence,
    Tuple,
)

Vertex = Hashable

try:  # numpy accelerates the pairwise mask products on ≤64-vertex graphs
    import numpy as _np
except ImportError:  # pragma: no cover - the toolchain ships numpy
    _np = None

__all__ = [
    "VertexIndexer",
    "HypergraphBitsets",
    "popcount",
    "iter_bits",
    "pairwise_and_masks",
]


def popcount(mask: int) -> int:
    """Number of set bits (``|S|`` for the vertex set encoded by ``mask``)."""
    return mask.bit_count()


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _masks_to_limbs(masks: Sequence[int], limbs: int) -> "_np.ndarray":
    """Decompose big-int masks into an ``(n, limbs)`` uint64 array.

    Limb ``j`` of row ``i`` holds bits ``64*j .. 64*j+63`` of ``masks[i]``.
    """
    word = (1 << 64) - 1
    array = _np.empty((len(masks), limbs), dtype=_np.uint64)
    for i, mask in enumerate(masks):
        for j in range(limbs):
            array[i, j] = (mask >> (64 * j)) & word
    return array


def _pairwise_and_limbs(
    left: Sequence[int], right: Sequence[int], limbs: int
) -> "set[int]":
    """Chunked numpy outer AND over the n-limb layout (> 64-vertex graphs)."""
    left_arr = _masks_to_limbs(left, limbs)
    right_arr = _masks_to_limbs(right, limbs)
    result: set = set()
    # Chunk the outer product so memory stays bounded (~8 MB per chunk).
    chunk = max(1, (1 << 20) // max(1, len(right) * limbs))
    for start in range(0, len(left_arr), chunk):
        block = left_arr[start : start + chunk, None, :] & right_arr[None, :, :]
        flat = block.reshape(-1, limbs)
        nonzero = flat[flat.any(axis=1)]
        for row in _np.unique(nonzero, axis=0):
            mask = 0
            for j in range(limbs - 1, -1, -1):
                mask = (mask << 64) | int(row[j])
            result.add(mask)
    return result


def pairwise_and_masks(left: Sequence[int], right: Sequence[int]) -> "set[int]":
    """The set of non-zero pairwise ANDs ``{a & b | a ∈ left, b ∈ right}``.

    This is the inner product of candidate-bag generation (``⋃λ1 ∩ ⋃C`` over
    all unions and components).  At volume the product is computed with a
    chunked numpy outer AND: single uint64 words when every mask fits in 64
    bits, an n-limb ``(n, ⌈bits/64⌉)`` uint64 layout for larger vertex sets
    (LSQB/Hetionet-sized hypergraphs), so the big-int double loop is only
    ever used for small inputs or when numpy is unavailable.
    """
    if not left or not right:
        return set()
    if _np is not None and len(left) * len(right) >= 16384:  # numpy wins only at volume
        bits = max(max(left).bit_length(), max(right).bit_length())
        limbs = max(1, (bits + 63) // 64)
        if limbs > 1:
            return _pairwise_and_limbs(left, right, limbs)
        left_arr = _np.fromiter(left, dtype=_np.uint64, count=len(left))
        right_arr = _np.fromiter(right, dtype=_np.uint64, count=len(right))
        result: set = set()
        # Chunk the outer product so memory stays bounded (~8 MB per chunk).
        chunk = max(1, (1 << 20) // max(1, len(right_arr)))
        for start in range(0, len(left_arr), chunk):
            block = left_arr[start : start + chunk, None] & right_arr[None, :]
            flat = block.ravel()
            result.update(_np.unique(flat[flat != 0]).tolist())
        return result
    result = set()
    add = result.add
    for a in left:
        for b in right:
            c = a & b
            if c:
                add(c)
    return result


class VertexIndexer:
    """A stable bijection between vertices and bit positions.

    Vertices are ordered by their string representation (ties broken by the
    input iteration order), so bit position 0 is the lexicographically
    smallest vertex.  Because components of a hypergraph are pairwise
    disjoint, ordering component masks by their *lowest set bit* coincides
    with the "sorted by sorted string representation" ordering the public
    API guarantees — a property the components code relies on.
    """

    __slots__ = ("_order", "_index", "_universe")

    def __init__(self, vertices: Iterable[Vertex]):
        self._order: Tuple[Vertex, ...] = tuple(sorted(vertices, key=str))
        self._index: Dict[Vertex, int] = {v: i for i, v in enumerate(self._order)}
        self._universe: int = (1 << len(self._order)) - 1

    # -- basic accessors ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._index

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._order)

    @property
    def universe(self) -> int:
        """The mask of all vertices, ``V(H)``."""
        return self._universe

    def bit(self, vertex: Vertex) -> int:
        """The bit position of ``vertex`` (raises ``KeyError`` if unknown)."""
        return self._index[vertex]

    def vertex(self, bit: int) -> Vertex:
        """The vertex at the given bit position."""
        return self._order[bit]

    # -- conversions -------------------------------------------------------

    def to_mask(self, vertices: Iterable[Vertex]) -> int:
        """Encode a set of known vertices (raises ``KeyError`` on unknowns)."""
        index = self._index
        mask = 0
        for v in vertices:
            mask |= 1 << index[v]
        return mask

    def to_mask_clipped(self, vertices: Iterable[Vertex]) -> int:
        """Encode ``vertices ∩ V(H)``, silently dropping unknown vertices."""
        index = self._index
        mask = 0
        for v in vertices:
            bit = index.get(v)
            if bit is not None:
                mask |= 1 << bit
        return mask

    def to_frozenset(self, mask: int) -> FrozenSet[Vertex]:
        """Decode a mask back into a frozenset of vertices."""
        order = self._order
        return frozenset(order[b] for b in iter_bits(mask))

    def to_sorted_vertices(self, mask: int) -> List[Vertex]:
        """Decode a mask into vertices in bit (string-sorted) order."""
        order = self._order
        return [order[b] for b in iter_bits(mask)]


class HypergraphBitsets:
    """Cached mask tables for one hypergraph.

    ``edge_masks[i]`` is the vertex mask of the ``i``-th edge (in the
    hypergraph's edge order) and ``incident_edge_masks[b]`` is a mask *over
    edge positions* listing the edges containing the vertex at bit ``b``.
    The two directions together let the component BFS touch each edge once.

    [S]-components are memoised per separator mask: the candidate-bag
    enumeration and the block machinery probe the same separators over and
    over (``Soft_{H,k}`` alone revisits every ≤k-edge union), so the cache
    turns the dominant cost into a dict lookup.
    """

    __slots__ = (
        "indexer",
        "edge_masks",
        "edge_mask_by_name",
        "incident_edge_masks",
        "universe",
        "_component_cache",
        "_component_union_cache",
    )

    def __init__(self, vertices: Iterable[Vertex], named_edges: Sequence[Tuple[str, FrozenSet[Vertex]]]):
        self.indexer = VertexIndexer(vertices)
        to_mask = self.indexer.to_mask
        self.edge_masks: Tuple[int, ...] = tuple(
            to_mask(edge_vertices) for _, edge_vertices in named_edges
        )
        self.edge_mask_by_name: Dict[str, int] = {
            name: mask for (name, _), mask in zip(named_edges, self.edge_masks)
        }
        incident = [0] * len(self.indexer)
        for edge_index, mask in enumerate(self.edge_masks):
            edge_bit = 1 << edge_index
            for b in iter_bits(mask):
                incident[b] |= edge_bit
        self.incident_edge_masks: Tuple[int, ...] = tuple(incident)
        self.universe: int = self.indexer.universe
        self._component_cache: Dict[int, Tuple[int, ...]] = {}
        self._component_union_cache: Dict[int, Tuple[int, ...]] = {}

    # -- components --------------------------------------------------------

    def components(self, separator_mask: int) -> Tuple[int, ...]:
        """[S]-vertex-component masks for the given separator, ascending.

        Each returned mask is a maximal set of pairwise [S]-connected
        vertices (isolated free vertices yield singleton components).  The
        masks are pairwise disjoint and returned in ascending order of
        their lowest set bit — which, the masks being disjoint, equals the
        lexicographic order of their sorted vertex lists.
        """
        cached = self._component_cache.get(separator_mask)
        if cached is None:
            cached = self._compute_components(separator_mask)
            self._component_cache[separator_mask] = cached
        return cached

    def _compute_components(self, separator_mask: int) -> Tuple[int, ...]:
        free = self.universe & ~separator_mask
        if not free:
            return ()
        not_sep = ~separator_mask
        edge_masks = self.edge_masks
        incident = self.incident_edge_masks
        edge_free = [m & not_sep for m in edge_masks]
        remaining_edges = (1 << len(edge_masks)) - 1
        components: List[int] = []
        unassigned = free
        while unassigned:
            frontier = unassigned & -unassigned
            component = 0
            while frontier:
                component |= frontier
                touched = 0
                while frontier:
                    low = frontier & -frontier
                    touched |= incident[low.bit_length() - 1]
                    frontier ^= low
                touched &= remaining_edges
                remaining_edges &= ~touched
                new_vertices = 0
                while touched:
                    low = touched & -touched
                    new_vertices |= edge_free[low.bit_length() - 1]
                    touched ^= low
                frontier = new_vertices & ~component
            components.append(component)
            unassigned &= ~component
        return tuple(components)

    def component_unions(self, separator_mask: int) -> Tuple[int, ...]:
        """``⋃C`` for each [S]-*edge*-component ``C`` of the separator.

        For every vertex component that contains at least one edge, the
        union of the (full, separator-inclusive) vertex sets of the edges in
        the corresponding edge component.  This is exactly the ``⋃C`` of
        Definition 3, so candidate-bag generation can intersect against
        these masks directly.
        """
        cached = self._component_union_cache.get(separator_mask)
        if cached is not None:
            return cached
        incident = self.incident_edge_masks
        edge_masks = self.edge_masks
        unions: List[int] = []
        for component in self.components(separator_mask):
            touched = 0
            while component:
                low = component & -component
                touched |= incident[low.bit_length() - 1]
                component ^= low
            if touched:
                union = 0
                while touched:
                    low = touched & -touched
                    union |= edge_masks[low.bit_length() - 1]
                    touched ^= low
                unions.append(union)
        result = tuple(unions)
        self._component_union_cache[separator_mask] = result
        return result
