"""Blocks and bases — the machinery behind the CandidateTD algorithms.

Following Section 3 of the paper: a *block* is a pair ``(S, C)`` of disjoint
vertex sets where ``C`` is a maximal set of [S]-connected vertices of ``H``
or ``C = ∅``; the block is *headed by* ``S``.  For blocks ``(X, Y)`` and
``(S, C)`` we have ``(X, Y) ≤ (S, C)`` iff ``X ∪ Y ⊆ S ∪ C`` and ``Y ⊆ C``.

A vertex set ``X ≠ S`` is a *basis* of ``(S, C)`` (w.r.t. the blocks headed
by ``X`` that are ≤ ``(S, C)``) if (1) those blocks together with ``X`` cover
``C``, (2) they cover every edge that intersects ``C``, and (3) each of them
is satisfied.

The index assigns every block a dense integer id and keeps only its head and
component masks, in parallel arrays, plus each head's range of ids.
The solvers resolve blocks top-down and reach a small share of them, so the
index pays per *reached* block: a :class:`Block` object (with its two
frozensets) is built the first time a caller asks for it, and a block's
needed mask (its component and the edges meeting it) the first time it is
probed.

The satisfaction-*independent* basis conditions (1) and (2) reduce to a
test against the block's *boundary* ``N(C)``, the vertices outside ``C`` of
the edges that meet ``C``: they hold for ``X`` iff
``N(C) ⊆ X ⊆ S ∪ C`` and ``X ≠ S``.  Proof: the blocks headed by
``X ⊆ S ∪ C`` are the [X]-components, which partition ``V(H) ∖ X``, and
such a block is ≤ ``(S, C)`` iff its component lies inside ``C``; the
vertices to cover are ``C ∪ N(C)``.  A vertex of ``N(C)`` lies outside
``C``, so only ``X`` can cover it.  Conversely, if ``N(C) ⊆ X`` then an
[X]-path leaving ``C`` would have to step, along an edge meeting ``C``,
onto a vertex of ``N(C) ⊆ X``; so every [X]-component meeting ``C`` lies
inside it, and those components cover ``C ∖ X``.
:meth:`BlockIndex.candidate_probes` applies the test to all candidates of
a block at once — an AND of per-vertex candidate sets over ``N(C)`` — and
memoises the result per block; only condition (3) is left to the solvers.
:meth:`BlockIndex.basis_sub_ids` is the per-pair specification of that
scan.  The public API still speaks :class:`Block` objects and frozensets.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.hypergraph.bitset import iter_bits
from repro.hypergraph.hypergraph import Hypergraph, Vertex

Bag = FrozenSet[Vertex]


@dataclass(frozen=True)
class Block:
    """A block ``(S, C)``: head ``S`` and component ``C`` (possibly empty)."""

    head: Bag
    component: Bag

    @property
    def union(self) -> Bag:
        return self.head | self.component

    def leq(self, other: "Block") -> bool:
        """The block order: ``self ≤ other``."""
        return self.union <= other.union and self.component <= other.component

    def __repr__(self) -> str:
        head = ",".join(sorted(map(str, self.head))) or "∅"
        comp = ",".join(sorted(map(str, self.component))) or "∅"
        return f"Block(S={{{head}}}, C={{{comp}}})"


class BlockIndex:
    """All blocks headed by the candidate bags (plus the root block).

    The index registers, for every head ``S ∈ 𝒮 ∪ {∅}``, the blocks
    ``(S, C)`` over the [S]-vertex-components of the hypergraph, and offers
    the basis test used by Algorithms 1 and 2.  Block ids run over the
    heads in candidate order (the empty head last), each head's ``(S, ∅)``
    block first, then its components in mask order.
    """

    def __init__(self, hypergraph: Hypergraph, candidate_bags: Iterable[Bag]):
        self.hypergraph = hypergraph
        bitsets = hypergraph.bitsets
        self._indexer = bitsets.indexer
        self.candidate_bags: List[Bag] = sorted(
            {frozenset(bag) for bag in candidate_bags if bag},
            key=lambda bag: (len(bag), sorted(map(str, bag))),
        )
        to_mask = self._indexer.to_mask
        self.candidate_masks: List[int] = [to_mask(bag) for bag in self.candidate_bags]
        self.candidate_bag_masks: Dict[Bag, int] = dict(
            zip(self.candidate_bags, self.candidate_masks)
        )
        head_masks: List[int] = []
        component_masks: List[int] = []
        # head mask -> the contiguous id range of the blocks it heads: with
        # the component masks, the (head, component) -> id map.
        self._head_ids: Dict[int, range] = {}
        for head_mask in self.candidate_masks + [0]:
            start = len(head_masks)
            components = bitsets.components(head_mask)
            head_masks += [head_mask] * (len(components) + 1)
            component_masks.append(0)
            component_masks += components
            self._head_ids[head_mask] = range(start, len(head_masks))
        universe = bitsets.universe
        if universe and universe not in components:
            # Disconnected hypergraph: register the full-vertex-set block
            # explicitly so the root block still has an id.
            head_masks.append(0)
            component_masks.append(universe)
            self._head_ids[0] = range(self._head_ids[0].start, len(head_masks))
        self._head_masks = head_masks
        self.component_masks: Tuple[int, ...] = tuple(component_masks)
        # block id -> Block, built on first request.
        self._blocks: List[Optional[Block]] = [None] * len(head_masks)
        self.root_block = Block(frozenset(), frozenset(hypergraph.vertices))
        self._blocks[self.block_id(self.root_block)] = self.root_block
        # The scan's per-vertex candidate sets and per-candidate sub ids.
        self._tables: Optional[Tuple[List[int], List[range]]] = None
        # block id -> statically feasible (candidate id, live sub ids) probes.
        self._probe_cache: Dict[int, Tuple[Tuple[int, Tuple[int, ...]], ...]] = {}

    # -- accessors ------------------------------------------------------------

    def blocks(self) -> Sequence[Block]:
        """All blocks in id order: a read-only view, built item by item."""
        return _BlockView(self)

    def block_count(self) -> int:
        return len(self._head_masks)

    def block_at(self, block_id: int) -> Block:
        """The block with the given dense id."""
        block = self._blocks[block_id]
        if block is None:
            to_frozenset = self._indexer.to_frozenset
            block = Block(
                to_frozenset(self._head_masks[block_id]),
                to_frozenset(self.component_masks[block_id]),
            )
            self._blocks[block_id] = block
        return block

    def block_id(self, block: Block) -> Optional[int]:
        """The dense id of a registered block (``None`` if unregistered)."""
        to_mask = self._indexer.to_mask
        try:
            ids = self._head_ids.get(to_mask(block.head))
            if ids is not None:
                return self.component_masks.index(
                    to_mask(block.component), ids.start, ids.stop
                )
        except (KeyError, ValueError):  # a vertex outside V(H); no such block
            pass
        return None

    def _ids_headed_by(self, head: Bag) -> range:
        head_mask = self.candidate_mask(frozenset(head))
        return self._head_ids.get(head_mask, range(0))

    def blocks_headed_by(self, head: Bag) -> List[Block]:
        return [self.block_at(i) for i in self._ids_headed_by(head)]

    def candidate_mask(self, candidate: Bag) -> Optional[int]:
        """The mask of a candidate bag, or ``None`` if it leaves ``V(H)``."""
        mask = self.candidate_bag_masks.get(candidate)
        if mask is None:
            try:
                mask = self._indexer.to_mask(candidate)
            except KeyError:
                return None
        return mask

    def sub_blocks(self, head: Bag, parent: Block) -> List[Block]:
        """The blocks headed by ``head`` that are ≤ ``parent``."""
        # Every block lies inside V(H), so clipping the parent to V(H)
        # leaves the order test unchanged.
        to_mask = self._indexer.to_mask_clipped
        not_union = ~to_mask(parent.union)
        not_component = ~to_mask(parent.component)
        head_masks = self._head_masks
        component_masks = self.component_masks
        return [
            self.block_at(i)
            for i in self._ids_headed_by(head)
            if not ((head_masks[i] | component_masks[i]) & not_union)
            and not component_masks[i] & not_component
        ]

    def topological_order(self) -> List[Block]:
        """Blocks ordered so that every block follows all blocks it can depend on.

        A basis decomposition of ``(S, C)`` only uses blocks ``(X, Y)`` with
        ``X ∪ Y ⊆ S ∪ C`` and, when the unions coincide, ``Y ⊊ C``.  Sorting
        by ``(|S ∪ C|, |C|)`` therefore yields a valid bottom-up order.
        """
        return [self.block_at(i) for i in self.topological_order_ids()]

    def topological_order_ids(self) -> List[int]:
        """:meth:`topological_order` as dense block ids; ties keep id order."""
        head_masks = self._head_masks
        component_masks = self.component_masks
        return sorted(
            range(len(head_masks)),
            key=lambda i: (
                (head_masks[i] | component_masks[i]).bit_count(),
                component_masks[i].bit_count(),
            ),
        )

    # -- the basis test ----------------------------------------------------------

    def basis_sub_ids(
        self, candidate_mask: int, block_id: int
    ) -> Optional[Tuple[int, ...]]:
        """Sub-block ids witnessing conditions 1+2, or ``None`` if they fail.

        This is the satisfaction-independent part of the basis test for one
        (candidate, block) pair: ``candidate`` is a basis of ``block`` under
        a satisfaction map iff this is not ``None`` and every returned
        sub-block is satisfied (condition 3).  The solvers never test pairs
        one by one; they take a block's whole probe set from
        :meth:`candidate_probes`.
        """
        return self._basis_subs(
            candidate_mask, self._head_masks[block_id], self.component_masks[block_id]
        )

    def _needed_mask(self, component_mask: int) -> int:
        """``C`` and every edge meeting it: what conditions 1+2 must cover."""
        needed = component_mask
        for edge_mask in self.hypergraph.bitsets.edge_masks:
            if edge_mask & component_mask:
                needed |= edge_mask
        return needed

    def _basis_subs(
        self, candidate_mask: int, head_mask: int, component_mask: int
    ) -> Optional[Tuple[int, ...]]:
        union_mask = head_mask | component_mask
        # A basis must live inside the block: the decomposition it induces is
        # a TD of H[S ∪ C], so bags outside S ∪ C would break connectedness
        # once the block is glued into a larger decomposition.
        if candidate_mask == head_mask or candidate_mask & ~union_mask:
            return None
        head_masks = self._head_masks
        component_masks = self.component_masks
        covered = candidate_mask
        subs = []
        for sub_id in self._head_ids.get(candidate_mask, ()):
            if ((head_masks[sub_id] | component_masks[sub_id]) & ~union_mask) == 0 and (
                component_masks[sub_id] & ~component_mask
            ) == 0:
                subs.append(sub_id)
                covered |= component_masks[sub_id]
        # Condition 1: C ⊆ X ∪ ⋃Yi.  Condition 2: edges meeting C are inside
        # X ∪ ⋃Yi (each such edge is a subset of their union, so one subset
        # test covers all of them).
        if self._needed_mask(component_mask) & ~covered:
            return None
        return tuple(subs)

    def _scan_tables(self) -> Tuple[List[int], List[range]]:
        """``(candidates holding each vertex, each candidate's sub-block ids)``.

        Bit ``i`` of entry ``v`` of the first list is set iff candidate ``i``
        holds vertex bit ``v``; entry ``i`` of the second is the id range of
        the blocks headed by candidate ``i`` that have a component.  Built on
        the first scan.
        """
        if self._tables is None:
            containing = [0] * len(self._indexer)
            for cand_id, mask in enumerate(self.candidate_masks):
                for vertex_bit in iter_bits(mask):
                    containing[vertex_bit] |= 1 << cand_id
            subs = [self._head_ids[mask][1:] for mask in self.candidate_masks]
            self._tables = (containing, subs)
        return self._tables

    def candidate_probes(self, block_id: int) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        """The statically feasible ``(candidate id, live sub-block ids)`` pairs.

        A pair appears, in candidate order, iff basis conditions 1+2 hold for
        the candidate and the block (:meth:`basis_sub_ids`), with the
        trivially satisfied empty-component sub-blocks dropped: only the
        remaining *live* subs gate condition 3 and contribute subtrees to the
        induced partial decomposition.  This is the one candidate scan of the
        block DP — the solver and the enumerator call it for each block they
        reach — so it is memoised per block.

        The scan is the boundary test of the module docstring: with
        ``N(C)`` the vertices outside ``C`` of the edges meeting ``C``,
        conditions 1+2 hold iff ``N(C) ⊆ X ⊆ S ∪ C`` and ``X ≠ S``.  A
        vertex of ``N(C)`` is in no component inside ``C``, so ``X`` must
        hold it; and once ``X`` holds ``N(C)``, no [X]-path can leave ``C``
        (its step out would land on ``N(C)``), so the [X]-components
        meeting ``C`` lie inside it, cover ``C ∖ X``, and are exactly the
        live subs.  The candidates holding all of ``N(C)`` are the AND of
        their per-vertex sets, walked in ascending candidate order; each
        survivor is checked against ``S ∪ C`` and ``S``.
        """
        cached = self._probe_cache.get(block_id)
        if cached is not None:
            return cached
        head_mask = self._head_masks[block_id]
        component_mask = self.component_masks[block_id]
        boundary = self._needed_mask(component_mask) & ~component_mask
        containing, subs = self._scan_tables()
        survivors = (1 << len(self.candidate_masks)) - 1
        for vertex_bit in iter_bits(boundary):
            survivors &= containing[vertex_bit]
        outside = ~(head_mask | component_mask)
        candidate_masks = self.candidate_masks
        component_masks = self.component_masks
        probes = []
        # The survivors' bits, lowest first: one scan of the binary string.
        bits = bin(survivors)[:1:-1]
        cand_id = bits.find("1")
        while cand_id >= 0:
            mask = candidate_masks[cand_id]
            if not mask & outside and mask != head_mask:
                live = [i for i in subs[cand_id] if component_masks[i] & component_mask]
                probes.append((cand_id, tuple(live)))
            cand_id = bits.find("1", cand_id + 1)
        result = tuple(probes)
        self._probe_cache[block_id] = result
        return result

    def is_basis(
        self,
        candidate: Bag,
        block: Block,
        satisfied: Dict[Block, bool],
    ) -> bool:
        """Is ``candidate`` a basis of ``block`` given the satisfaction map?

        ``satisfied`` maps blocks to whether a (constraint-compliant)
        decomposition witnessing their satisfaction is known.  ``block`` need
        not be registered in the index.
        """
        candidate_mask = self.candidate_mask(frozenset(candidate))
        if candidate_mask is None:
            return False
        to_mask = self._indexer.to_mask_clipped
        sub_ids = self._basis_subs(
            candidate_mask, to_mask(block.head), to_mask(block.component)
        )
        if sub_ids is None:
            return False
        # Condition 3: every sub-block is satisfied.
        return all(satisfied.get(self.block_at(i), False) for i in sub_ids)


class _BlockView(Sequence):
    """The blocks of an index by id; an item is built when it is read."""

    __slots__ = ("_index",)

    def __init__(self, index: BlockIndex):
        self._index = index

    def __len__(self) -> int:
        return self._index.block_count()

    def __getitem__(self, block_id: int) -> Block:
        return self._index.block_at(range(len(self))[block_id])

