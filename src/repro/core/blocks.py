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
probed.  The satisfaction-*independent* basis conditions (1) and (2)
are evaluated for all candidates of a block in one vectorised numpy pass
over an n-limb uint64 layout (``⌈|V(H)| / 64⌉`` words per mask, so large
vertex sets take the same path), memoised per block
(:meth:`BlockIndex.candidate_probes`); only the feasible pairs become Python
tuples, and only condition (3) is left to the solvers.
:meth:`BlockIndex.basis_sub_ids` is the per-pair specification of that scan.
The public API still speaks :class:`Block` objects and frozensets.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from repro.hypergraph.bitset import _masks_to_limbs
from repro.hypergraph.hypergraph import Hypergraph, Vertex

Bag = FrozenSet[Vertex]

_WORD = (1 << 64) - 1


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
        self._scan_layout: Optional[tuple] = None
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

    def _layout(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[tuple]]:
        """``(candidate rows, sub rows, sub owners, sub ids by candidate)``.

        The scan's n-limb layout, one row per 64-bit limb: the candidate
        masks, and the components of the blocks headed by a candidate that
        have one (the only blocks that can be live subs or cover vertices),
        in id order, with each sub's candidate id alongside.
        """
        if self._scan_layout is None:
            limbs = max(1, (len(self._indexer) + 63) // 64)
            subs = [self._head_ids[mask][1:] for mask in self.candidate_masks]
            sub_masks = [self.component_masks[i] for ids in subs for i in ids]
            self._scan_layout = (
                _masks_to_limbs(self.candidate_masks, limbs).T,
                _masks_to_limbs(sub_masks, limbs).T,
                np.repeat(np.arange(len(subs)), [len(ids) for ids in subs]),
                subs,
            )
        return self._scan_layout

    def candidate_probes(self, block_id: int) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        """The statically feasible ``(candidate id, live sub-block ids)`` pairs.

        A pair appears, in candidate order, iff basis conditions 1+2 hold for
        the candidate and the block (:meth:`basis_sub_ids`, evaluated for
        all candidates in one numpy pass), with the trivially satisfied
        empty-component sub-blocks dropped: only the remaining *live* subs
        gate condition 3 and contribute subtrees to the induced partial
        decomposition.  This is the one candidate scan of the block DP — the
        solver and the enumerator call it for each block they reach — so it
        is memoised per block.
        """
        cached = self._probe_cache.get(block_id)
        if cached is not None:
            return cached
        candidates, sub_components, owners, subs = self._layout()
        head_mask = self._head_masks[block_id]
        component_mask = self.component_masks[block_id]
        not_component = ~component_mask
        feasible = _meets(candidates, ~(head_mask | component_mask)) == 0
        # The sub-blocks headed by a candidate X ⊆ S ∪ C are the [X]-components,
        # which partition V(H) ∖ X, and such a sub is live iff its component
        # lies inside C.  So X covers the needed vertices (conditions 1+2) iff
        # no component that meets them leaves C.  The minimum of two uint64
        # words is non-zero iff both are.
        escapes = np.minimum(
            _meets(sub_components, not_component),
            _meets(sub_components, self._needed_mask(component_mask)),
        )
        feasible[owners[escapes != 0]] = False
        candidate_masks = self.candidate_masks
        component_masks = self.component_masks
        probes = []
        for cand_id in np.flatnonzero(feasible).tolist():
            if candidate_masks[cand_id] != head_mask:
                live = [
                    i for i in subs[cand_id] if not component_masks[i] & not_component
                ]
                probes.append((cand_id, tuple(live)))
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


def _meets(rows: np.ndarray, mask: int) -> np.ndarray:
    """Per column of an n-limb layout, its AND with ``mask`` ORed over the limbs.

    Non-zero exactly where the column's mask meets ``mask``.
    """
    met = None
    for limb, row in enumerate(rows):
        part = row & ((mask >> (64 * limb)) & _WORD)
        met = part if met is None else met | part
    return met
