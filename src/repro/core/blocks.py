"""Blocks and bases — the machinery behind the CandidateTD algorithms.

Following Section 3 of the paper: a *block* is a pair ``(S, C)`` of disjoint
vertex sets where ``C`` is a maximal set of [S]-connected vertices of ``H``
or ``C = ∅``; the block is *headed by* ``S``.  For blocks ``(X, Y)`` and
``(S, C)`` we have ``(X, Y) ≤ (S, C)`` iff ``X ∪ Y ⊆ S ∪ C`` and ``Y ⊆ C``.

A vertex set ``X ≠ S`` is a *basis* of ``(S, C)`` (w.r.t. the blocks headed
by ``X`` that are ≤ ``(S, C)``) if (1) those blocks together with ``X`` cover
``C``, (2) they cover every edge that intersects ``C``, and (3) each of them
is satisfied.

The index assigns every block a dense integer id and keeps its masks (head,
component, union, and the union of all edges touching the component) in
parallel arrays, so the block order and the basis test collapse to array
loads and int operations — no frozenset hashing on the hot path.  The
satisfaction-*independent* basis conditions (1) and (2) are evaluated in
one scan over the candidates per block, memoised per block
(:meth:`BlockIndex.candidate_probes`), leaving only condition (3) for the
solvers, which resolve the blocks they reach.  The public API still speaks
:class:`Block` objects and frozensets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

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

    The index materialises, for every head ``S ∈ 𝒮 ∪ {∅}``, the blocks
    ``(S, C)`` over the [S]-vertex-components of the hypergraph, and offers
    the basis test used by Algorithms 1 and 2.
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
        # Dense block storage: id -> Block plus parallel mask arrays.
        self._block_list: List[Block] = []
        self._block_id: Dict[Block, int] = {}
        self._head_masks: List[int] = []
        self._component_masks: List[int] = []
        self._union_masks: List[int] = []
        self._touching_masks: List[int] = []
        # head mask -> ids of the blocks headed by that vertex set.
        self._head_to_block_ids: Dict[int, List[int]] = {}
        self._blocks_by_head: Dict[Bag, List[Block]] = {}

        edge_masks = bitsets.edge_masks
        to_frozenset = self._indexer.to_frozenset
        empty: Bag = frozenset()
        heads = list(zip(self.candidate_bags, self.candidate_masks)) + [(empty, 0)]
        for head, head_mask in heads:
            blocks = [self._register(Block(head, empty), head_mask, 0, edge_masks)]
            for component_mask in bitsets.components(head_mask):
                blocks.append(
                    self._register(
                        Block(head, to_frozenset(component_mask)),
                        head_mask,
                        component_mask,
                        edge_masks,
                    )
                )
            self._blocks_by_head[head] = blocks
        # Per candidate id, the ids of the blocks it heads that have a
        # component: the only ones that can be live subs or cover vertices.
        self._candidate_component_blocks: List[Tuple[int, ...]] = [
            tuple(self._block_id[block] for block in self._blocks_by_head[bag][1:])
            for bag in self.candidate_bags
        ]
        self.root_block = Block(empty, frozenset(hypergraph.vertices))
        if self.root_block not in self._block_id:
            # Disconnected hypergraph: register the full-vertex-set block
            # explicitly so the accept test of Algorithm 1 still applies.
            self._register(self.root_block, 0, bitsets.universe, edge_masks)
            self._blocks_by_head[empty].append(self.root_block)
        # block id -> statically feasible (candidate id, live sub ids) probes.
        self._probe_cache: Dict[int, Tuple[Tuple[int, Tuple[int, ...]], ...]] = {}

    def _register(
        self, block: Block, head_mask: int, component_mask: int, edge_masks
    ) -> Block:
        touching = _touching_mask(component_mask, edge_masks) if component_mask else 0
        block_id = len(self._block_list)
        self._block_list.append(block)
        self._block_id[block] = block_id
        self._head_masks.append(head_mask)
        self._component_masks.append(component_mask)
        self._union_masks.append(head_mask | component_mask)
        self._touching_masks.append(touching)
        self._head_to_block_ids.setdefault(head_mask, []).append(block_id)
        return block

    # -- accessors ------------------------------------------------------------

    def blocks(self) -> List[Block]:
        """All blocks, in no particular order."""
        return list(self._block_list)

    def block_count(self) -> int:
        return len(self._block_list)

    def block_at(self, block_id: int) -> Block:
        """The block with the given dense id."""
        return self._block_list[block_id]

    def block_id(self, block: Block) -> Optional[int]:
        """The dense id of a registered block (``None`` if unregistered)."""
        return self._block_id.get(block)

    def blocks_headed_by(self, head: Bag) -> List[Block]:
        return list(self._blocks_by_head.get(frozenset(head), []))

    def mask_arrays(self) -> Tuple[List[int], List[int], List[int], List[int]]:
        """``(head, component, union, touching)`` mask arrays, block-id indexed.

        The returned lists are the live internal arrays — callers must treat
        them as read-only.  They exist so the solvers can run on
        plain list indexing without per-call accessor overhead.
        """
        return (
            self._head_masks,
            self._component_masks,
            self._union_masks,
            self._touching_masks,
        )

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
        head_mask = self.candidate_mask(frozenset(head))
        if head_mask is None:
            return []
        parent_id = self._block_id.get(parent)
        if parent_id is None:
            return [b for b in self.blocks_headed_by(head) if b.leq(parent)]
        parent_union = self._union_masks[parent_id]
        parent_component = self._component_masks[parent_id]
        block_list = self._block_list
        union_masks = self._union_masks
        component_masks = self._component_masks
        return [
            block_list[i]
            for i in self._head_to_block_ids.get(head_mask, ())
            if (union_masks[i] & ~parent_union) == 0
            and (component_masks[i] & ~parent_component) == 0
        ]

    def topological_order(self) -> List[Block]:
        """Blocks ordered so that every block follows all blocks it can depend on.

        A basis decomposition of ``(S, C)`` only uses blocks ``(X, Y)`` with
        ``X ∪ Y ⊆ S ∪ C`` and, when the unions coincide, ``Y ⊊ C``.  Sorting
        by ``(|S ∪ C|, |C|)`` therefore yields a valid bottom-up order.
        """
        return [self._block_list[i] for i in self.topological_order_ids()]

    def topological_order_ids(self) -> List[int]:
        """:meth:`topological_order` as dense block ids."""
        union_masks = self._union_masks
        component_masks = self._component_masks
        block_list = self._block_list
        return sorted(
            range(len(block_list)),
            key=lambda i: (
                union_masks[i].bit_count(),
                component_masks[i].bit_count(),
                sorted(map(str, block_list[i].head)),
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
            candidate_mask,
            self._head_masks[block_id],
            self._component_masks[block_id],
            self._touching_masks[block_id],
        )

    def _basis_subs(
        self,
        candidate_mask: int,
        head_mask: int,
        component_mask: int,
        touching_mask: int,
    ) -> Optional[Tuple[int, ...]]:
        union_mask = head_mask | component_mask
        # A basis must live inside the block: the decomposition it induces is
        # a TD of H[S ∪ C], so bags outside S ∪ C would break connectedness
        # once the block is glued into a larger decomposition.
        if candidate_mask == head_mask or candidate_mask & ~union_mask:
            return None
        union_masks = self._union_masks
        component_masks = self._component_masks
        covered = candidate_mask
        subs = []
        for sub_id in self._head_to_block_ids.get(candidate_mask, ()):
            if (union_masks[sub_id] & ~union_mask) == 0 and (
                component_masks[sub_id] & ~component_mask
            ) == 0:
                subs.append(sub_id)
                covered |= component_masks[sub_id]
        # Condition 1: C ⊆ X ∪ ⋃Yi.  Condition 2: edges meeting C are inside
        # X ∪ ⋃Yi (each such edge is a subset of their union, so one subset
        # test covers all of them).
        if (component_mask | touching_mask) & ~covered:
            return None
        return tuple(subs)

    def candidate_probes(self, block_id: int) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        """The statically feasible ``(candidate id, live sub-block ids)`` pairs.

        A pair appears, in candidate order, iff basis conditions 1+2 hold for
        the candidate and the block (:meth:`basis_sub_ids`, evaluated inline
        in one scan over the candidates), with the trivially satisfied
        empty-component sub-blocks dropped: only the remaining *live* subs
        gate condition 3 and contribute subtrees to the induced partial
        decomposition.  This is the one candidate scan of the block DP — the
        solver and the enumerator call it for each block they reach — so it
        is memoised per block.
        """
        cached = self._probe_cache.get(block_id)
        if cached is not None:
            return cached
        head_mask = self._head_masks[block_id]
        component_mask = self._component_masks[block_id]
        not_union = ~self._union_masks[block_id]
        not_component = ~component_mask
        # Conditions 1 and 2 as one subset test (see _basis_subs).
        needed = component_mask | self._touching_masks[block_id]
        union_masks = self._union_masks
        component_masks = self._component_masks
        component_blocks = self._candidate_component_blocks
        probes = []
        for cand_id, candidate_mask in enumerate(self.candidate_masks):
            if candidate_mask & not_union or candidate_mask == head_mask:
                continue
            covered = candidate_mask
            live = []
            for sub_id in component_blocks[cand_id]:
                sub_component = component_masks[sub_id]
                if not (union_masks[sub_id] & not_union or sub_component & not_component):
                    live.append(sub_id)
                    covered |= sub_component
            if not needed & ~covered:
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
        block_id = self._block_id.get(block)
        if block_id is not None:
            sub_ids = self.basis_sub_ids(candidate_mask, block_id)
        else:
            component_mask = self._indexer.to_mask_clipped(block.component)
            sub_ids = self._basis_subs(
                candidate_mask,
                self._indexer.to_mask_clipped(block.head),
                component_mask,
                _touching_mask(component_mask, self.hypergraph.bitsets.edge_masks),
            )
        if sub_ids is None:
            return False
        # Condition 3: every sub-block is satisfied.
        block_list = self._block_list
        return all(satisfied.get(block_list[i], False) for i in sub_ids)


def _touching_mask(component_mask: int, edge_masks) -> int:
    """The union of the edges that meet ``component_mask``."""
    touching = 0
    for edge_mask in edge_masks:
        if edge_mask & component_mask:
            touching |= edge_mask
    return touching
