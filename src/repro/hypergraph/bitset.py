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
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

Vertex = Hashable

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


def _masks_to_limbs(masks: Sequence[int], limbs: int) -> np.ndarray:
    """Decompose big-int masks into an ``(n, limbs)`` uint64 array.

    Limb ``j`` of row ``i`` holds bits ``64*j .. 64*j+63`` of ``masks[i]``.
    """
    word = (1 << 64) - 1
    array = np.empty((len(masks), limbs), dtype=np.uint64)
    for j in range(limbs):
        array[:, j] = [(mask >> (64 * j)) & word for mask in masks]
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
        for row in np.unique(nonzero, axis=0):
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
    ever used for small inputs.
    """
    if not left or not right:
        return set()
    if len(left) * len(right) >= 16384:  # numpy wins only at volume
        bits = max(max(left).bit_length(), max(right).bit_length())
        limbs = max(1, (bits + 63) // 64)
        if limbs > 1:
            return _pairwise_and_limbs(left, right, limbs)
        left_arr = np.fromiter(left, dtype=np.uint64, count=len(left))
        right_arr = np.fromiter(right, dtype=np.uint64, count=len(right))
        result: set = set()
        # Chunk the outer product so memory stays bounded (~8 MB per chunk).
        chunk = max(1, (1 << 20) // max(1, len(right_arr)))
        for start in range(0, len(left_arr), chunk):
            block = left_arr[start : start + chunk, None] & right_arr[None, :]
            flat = block.ravel()
            result.update(np.unique(flat[flat != 0]).tolist())
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

    The cover kernel (:meth:`has_cover`, :meth:`has_connected_cover`)
    answers Theorem 2's "≤ k edges cover the bag" and Section 6's ConCov
    question on bag masks.  Its tables — the popcount of each vertex's
    covering-edge mask and one neighbour mask per edge over edge positions —
    are built on first use and live as long as the hypergraph, as does the
    bridging memo, whose answers depend on the chosen edges only, not on
    the bag.
    """

    __slots__ = (
        "indexer",
        "edge_masks",
        "edge_mask_by_name",
        "incident_edge_masks",
        "universe",
        "_component_cache",
        "_component_union_cache",
        "_cover_counts",
        "_widest_edge",
        "_edge_neighbours",
        "_bridge_memo",
        "__weakref__",
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
        self._cover_counts: Optional[Tuple[int, ...]] = None
        self._widest_edge = 0
        self._edge_neighbours: Optional[Tuple[int, ...]] = None
        self._bridge_memo: Dict[Tuple[int, int], bool] = {}

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

    # -- covers ------------------------------------------------------------

    def _out_of_reach(self, remaining: int, budget: int) -> bool:
        """Whether ``budget`` edges are too few to cover ``remaining`` even
        at the widest edge's size (builds the cover tables on first use)."""
        if self._cover_counts is None:
            self._cover_counts = tuple(mask.bit_count() for mask in self.incident_edge_masks)
            self._widest_edge = max((mask.bit_count() for mask in self.edge_masks), default=0)
        return remaining.bit_count() > budget * self._widest_edge

    def _pivot(self, remaining: int) -> int:
        """The remaining vertex bit with the fewest covering edges."""
        counts = self._cover_counts
        best_bit = best_count = -1
        while remaining:
            low = remaining & -remaining
            bit = low.bit_length() - 1
            count = counts[bit]
            if best_count < 0 or count < best_count:
                best_bit, best_count = bit, count
            remaining ^= low
        return best_bit

    def has_cover(self, bag_mask: int, k: int) -> bool:
        """``True`` iff at most ``k`` edges cover the vertices of ``bag_mask``.

        Branches on the remaining vertex with the fewest covering edges, so
        a vertex no edge covers fails at once.  The empty bag is covered.
        """
        if not bag_mask:
            return True
        if k <= 0 or self._out_of_reach(bag_mask, k):
            return False
        edge_masks = self.edge_masks
        covering = self.incident_edge_masks[self._pivot(bag_mask)]
        while covering:
            low = covering & -covering
            if self.has_cover(bag_mask & ~edge_masks[low.bit_length() - 1], k - 1):
                return True
            covering ^= low
        return False

    def has_connected_cover(self, bag_mask: int, k: int) -> bool:
        """``True`` iff some connected set of at most ``k`` edges covers the bag.

        The ConCov property of Section 6: the covering search of
        :meth:`has_cover` collects the chosen edges as a mask over edge
        positions, and a cover that is not connected is handed to the
        bridging search with the budget it left.  The empty bag is covered.
        """
        if not bag_mask:
            return True
        return self._connected_cover(bag_mask, k, 0)

    def _connected_cover(self, remaining: int, budget: int, chosen: int) -> bool:
        if not remaining:
            return self._connectable(chosen, budget)
        if budget <= 0 or self._out_of_reach(remaining, budget):
            return False
        edge_masks = self.edge_masks
        covering = self.incident_edge_masks[self._pivot(remaining)]
        while covering:
            low = covering & -covering
            if self._connected_cover(
                remaining & ~edge_masks[low.bit_length() - 1], budget - 1, chosen | low
            ):
                return True
            covering ^= low
        return False

    def _neighbours(self) -> Tuple[int, ...]:
        """Per edge, the mask over edge positions of the edges it meets."""
        neighbours = self._edge_neighbours
        if neighbours is None:
            incident = self.incident_edge_masks
            table = []
            for mask in self.edge_masks:
                meets = 0
                while mask:
                    low = mask & -mask
                    meets |= incident[low.bit_length() - 1]
                    mask ^= low
                table.append(meets)
            neighbours = self._edge_neighbours = tuple(table)
        return neighbours

    def _edges_connected(self, chosen: int) -> bool:
        """Whether the edges in ``chosen`` (edge positions) form one component."""
        if not chosen & (chosen - 1):
            return True
        neighbours = self._neighbours()
        reached = frontier = chosen & -chosen
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = neighbours[low.bit_length() - 1] & chosen & ~reached
            reached |= new
            frontier |= new
        return reached == chosen

    def _connectable(self, chosen: int, budget: int) -> bool:
        """Can adding at most ``budget`` edges, each meeting the ones already
        chosen, make ``chosen`` connected?  Memoised per ``(chosen, budget)``."""
        if self._edges_connected(chosen):
            return True
        if budget <= 0:
            return False
        key = (chosen, budget)
        verdict = self._bridge_memo.get(key)
        if verdict is None:
            neighbours = self._neighbours()
            reach = 0
            rest = chosen
            while rest:
                low = rest & -rest
                reach |= neighbours[low.bit_length() - 1]
                rest ^= low
            reach &= ~chosen
            verdict = False
            while reach:
                low = reach & -reach
                if self._connectable(chosen | low, budget - 1):
                    verdict = True
                    break
                reach ^= low
            self._bridge_memo[key] = verdict
        return verdict
