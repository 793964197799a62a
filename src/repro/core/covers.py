"""Edge covers of vertex sets.

The λ-labels of (G)HDs and the ConCov constraint both need edge covers:
collections of hyperedges whose union contains a given bag.  This module
provides greedy and exact minimum covers, enumeration of all covers up to a
size bound, and the ConCov test "is the bag covered by ≤ k connected edges".

The searches run on int masks.  :func:`minimum_edge_cover` and
:func:`enumerate_covers` build per-call tables over the bag's relevant edges
(largest intersection first, names break ties) because their *yield order*
picks the covers Yannakakis plans with; pivot selection (fewest covering
edges first) and the branch step are bit scans.  The yes/no questions —
:func:`has_cover` and :func:`has_connected_cover` — need no order, so they
run on the per-hypergraph cover kernel of
:class:`repro.hypergraph.bitset.HypergraphBitsets`, whose tables and
bridging memo are built once per hypergraph.  Public functions speak
frozensets; the frozenset reference implementations, including the seed
ConCov search, live in :mod:`repro.core.reference`.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.hypergraph.bitset import iter_bits
from repro.hypergraph.hypergraph import Edge, Hypergraph, Vertex


def _bag_mask(hypergraph: Hypergraph, bag: FrozenSet[Vertex]) -> Optional[int]:
    """The bag as a mask, or ``None`` if it contains unknown vertices."""
    indexer = hypergraph.bitsets.indexer
    mask = 0
    for vertex in bag:
        if vertex not in indexer:
            return None
        mask |= 1 << indexer.bit(vertex)
    return mask


class _CoverTables:
    """Per-bag search tables: relevant edges and vertex→covering-edges masks."""

    __slots__ = ("edges", "edge_masks", "coverable", "covering_edges", "counts")

    def __init__(self, hypergraph: Hypergraph, bag_mask: int):
        bitsets = hypergraph.bitsets
        relevant = [
            (edge, edge_mask & bag_mask, edge_mask)
            for edge, edge_mask in zip(hypergraph.edges, bitsets.edge_masks)
            if edge_mask & bag_mask
        ]
        # Largest intersection first, names break ties (the seed's order).
        relevant.sort(key=lambda item: (-item[1].bit_count(), item[0].name))
        self.edges: Tuple[Edge, ...] = tuple(item[0] for item in relevant)
        self.edge_masks: Tuple[int, ...] = tuple(item[1] for item in relevant)
        coverable = 0
        for mask in self.edge_masks:
            coverable |= mask
        self.coverable: int = coverable
        # covering_edges[b]: mask over *relevant edge positions* of the edges
        # containing the bag vertex at bit b; counts[b] = its popcount.
        covering: dict = {}
        for position, mask in enumerate(self.edge_masks):
            position_bit = 1 << position
            for b in iter_bits(mask):
                covering[b] = covering.get(b, 0) | position_bit
        self.covering_edges = covering
        self.counts = {b: m.bit_count() for b, m in covering.items()}

    def pivot(self, remaining: int) -> int:
        """The remaining vertex bit with the fewest covering edges."""
        counts = self.counts
        best_bit = -1
        best_count = None
        for b in iter_bits(remaining):
            count = counts.get(b, 0)
            if best_count is None or count < best_count:
                best_bit, best_count = b, count
        return best_bit


def greedy_edge_cover(
    hypergraph: Hypergraph, bag: Iterable[Vertex]
) -> Optional[List[Edge]]:
    """A greedy (not necessarily minimum) edge cover of ``bag``.

    Returns ``None`` if no cover exists (some bag vertex occurs in no edge).
    """
    bag_set = frozenset(bag)
    if not bag_set:
        return []
    remaining = _bag_mask(hypergraph, bag_set)
    if remaining is None:
        return None
    bitsets = hypergraph.bitsets
    edges = hypergraph.edges
    edge_masks = bitsets.edge_masks
    cover: List[Edge] = []
    while remaining:
        best = -1
        best_gain = 0
        for i, mask in enumerate(edge_masks):
            gain = (mask & remaining).bit_count()
            if gain > best_gain:
                best, best_gain = i, gain
        if best < 0:
            return None
        cover.append(edges[best])
        remaining &= ~edge_masks[best]
    return cover


def minimum_edge_cover(
    hypergraph: Hypergraph, bag: Iterable[Vertex], upper_bound: Optional[int] = None
) -> Optional[List[Edge]]:
    """An exact minimum edge cover of ``bag`` (branch and bound).

    ``upper_bound`` restricts the search to covers of at most that size and
    makes the call cheap when only small covers are of interest (e.g. when
    verifying that a candidate bag has a cover of size ≤ k).
    """
    bag_set = frozenset(bag)
    if not bag_set:
        return []
    bag_mask = _bag_mask(hypergraph, bag_set)
    if bag_mask is None:
        return None
    tables = _CoverTables(hypergraph, bag_mask)
    if tables.coverable != bag_mask:
        return None
    greedy = greedy_edge_cover(hypergraph, bag_set)
    best: Optional[List[int]] = None
    limit = len(tables.edges)
    if greedy is not None:
        positions = {edge.name: i for i, edge in enumerate(tables.edges)}
        best = [positions[edge.name] for edge in greedy]
        limit = len(best)
    if upper_bound is not None:
        limit = min(limit, upper_bound)
        if best is not None and len(best) > upper_bound:
            best = None

    edge_masks = tables.edge_masks
    covering = tables.covering_edges

    def search(remaining: int, chosen: List[int]) -> None:
        nonlocal best, limit
        if not remaining:
            if best is None or len(chosen) < len(best):
                best = list(chosen)
                limit = len(best)
            return
        if len(chosen) >= limit:
            return
        pivot = tables.pivot(remaining)
        for position in iter_bits(covering[pivot]):
            chosen.append(position)
            search(remaining & ~edge_masks[position], chosen)
            chosen.pop()

    search(bag_mask, [])
    if best is None:
        return None
    if upper_bound is not None and len(best) > upper_bound:
        return None
    return [tables.edges[position] for position in best]


def enumerate_covers(
    hypergraph: Hypergraph, bag: Iterable[Vertex], max_size: int
) -> Iterator[Tuple[Edge, ...]]:
    """Enumerate the *minimal* edge covers of ``bag`` of size at most ``max_size``.

    A cover is minimal if no proper subset is also a cover.  Every cover of
    size ≤ ``max_size`` contains a minimal one, so minimal covers suffice for
    existence-style questions (ConCov asks for *some* connected cover; note
    that non-minimal covers are not enumerated, see
    :meth:`repro.hypergraph.bitset.HypergraphBitsets.has_connected_cover`
    for how connectivity is handled).
    """
    bag_set = frozenset(bag)
    if not bag_set:
        yield ()
        return
    bag_mask = _bag_mask(hypergraph, bag_set)
    if bag_mask is None:
        return
    yield from _search_covers(_CoverTables(hypergraph, bag_mask), bag_mask, max_size)


def _search_covers(
    tables: _CoverTables, bag_mask: int, max_size: int
) -> Iterator[Tuple[Edge, ...]]:
    """:func:`enumerate_covers` on prebuilt tables: branch on the pivot's
    covering edges, each distinct edge set yielded once."""
    edge_masks = tables.edge_masks
    edges = tables.edges
    covering = tables.covering_edges
    seen = set()

    def search(remaining: int, chosen: List[int], chosen_mask: int) -> Iterator[Tuple[Edge, ...]]:
        if not remaining:
            key = chosen_mask
            if key not in seen:
                seen.add(key)
                yield tuple(edges[position] for position in chosen)
            return
        if len(chosen) >= max_size:
            return
        pivot = tables.pivot(remaining)
        for position in iter_bits(covering.get(pivot, 0) & ~chosen_mask):
            chosen.append(position)
            yield from search(
                remaining & ~edge_masks[position], chosen, chosen_mask | (1 << position)
            )
            chosen.pop()

    yield from search(bag_mask, [], 0)


def least_connected_covers(
    hypergraph: Hypergraph, bag: Iterable[Vertex]
) -> List[Tuple[Edge, ...]]:
    """The connected covers :func:`enumerate_covers` yields for ``bag`` at
    the least size bound that yields one, or ``[]`` when no bound does.

    The bag mask and search tables are built once and the size bound
    deepens inside them.  A cover uses each relevant edge at most once, so
    no bound past their number finds another cover.
    """
    bag_set = frozenset(bag)
    if not bag_set:
        return [()]
    bag_mask = _bag_mask(hypergraph, bag_set)
    if bag_mask is None:
        return []
    tables = _CoverTables(hypergraph, bag_mask)
    for size in range(1, len(tables.edges) + 1):
        connected = [
            cover
            for cover in _search_covers(tables, bag_mask, size)
            if connected_edge_set(cover)
        ]
        if connected:
            return connected
    return []


def connected_edge_set(edges: Sequence[Edge]) -> bool:
    """``True`` iff the given edges form a connected subhypergraph.

    Connectivity is via shared vertices: the intersection graph of the edges
    must be connected.  The empty set and singletons are connected.
    """
    edge_list = list(edges)
    if len(edge_list) <= 1:
        return True
    vertex_sets = [edge.vertices for edge in edge_list]
    visited = {0}
    frontier = [0]
    while frontier:
        current = frontier.pop()
        current_vertices = vertex_sets[current]
        for j, other in enumerate(vertex_sets):
            if j not in visited and current_vertices & other:
                visited.add(j)
                frontier.append(j)
    return len(visited) == len(edge_list)


def has_cover(hypergraph: Hypergraph, bag: Iterable[Vertex], max_size: int) -> bool:
    """``True`` iff at most ``max_size`` edges cover ``bag``.

    Decided on the hypergraph's cover kernel
    (:meth:`~repro.hypergraph.bitset.HypergraphBitsets.has_cover`).  A bag
    with a vertex the hypergraph lacks has no cover; the empty bag is
    trivially covered.
    """
    bag_mask = _bag_mask(hypergraph, frozenset(bag))
    if bag_mask is None:
        return False
    return hypergraph.bitsets.has_cover(bag_mask, max_size)


def has_connected_cover(
    hypergraph: Hypergraph, bag: Iterable[Vertex], max_size: int
) -> bool:
    """``True`` iff ``bag`` has an edge cover of size ≤ ``max_size`` whose
    edges form a connected subhypergraph (the ConCov property of Section 6).

    Decided on the hypergraph's cover kernel
    (:meth:`~repro.hypergraph.bitset.HypergraphBitsets.has_connected_cover`).
    A bag with a vertex the hypergraph lacks has no cover; the empty bag is
    trivially covered.
    """
    bag_mask = _bag_mask(hypergraph, frozenset(bag))
    if bag_mask is None:
        return False
    return hypergraph.bitsets.has_connected_cover(bag_mask, max_size)
