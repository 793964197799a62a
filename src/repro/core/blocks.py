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
satisfaction-*independent* basis conditions (1) and (2) are evaluated once
per (candidate, block) pair and memoised (:meth:`BlockIndex.basis_sub_ids`),
leaving only condition (3) for the solvers' fixpoints.  The public API still
speaks :class:`Block` objects and frozensets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.hypergraph.hypergraph import Hypergraph, Vertex

Bag = FrozenSet[Vertex]

_MISSING = object()


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
        self.root_block = Block(empty, frozenset(hypergraph.vertices))
        if self.root_block not in self._block_id:
            # Disconnected hypergraph: register the full-vertex-set block
            # explicitly so the accept test of Algorithm 1 still applies.
            self._register(self.root_block, 0, bitsets.universe, edge_masks)
            self._blocks_by_head[empty].append(self.root_block)
        # (candidate mask, block id) -> sub-block ids if conditions 1+2 hold.
        self._basis_subs_cache: Dict[Tuple[int, int], Optional[Tuple[int, ...]]] = {}
        # block id -> statically feasible (candidate id, live sub ids) probes.
        self._probe_cache: Dict[int, Tuple[Tuple[int, Tuple[int, ...]], ...]] = {}

    def _register(
        self, block: Block, head_mask: int, component_mask: int, edge_masks
    ) -> Block:
        touching = 0
        if component_mask:
            for edge_mask in edge_masks:
                if edge_mask & component_mask:
                    touching |= edge_mask
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
        them as read-only.  They exist so the solvers' fixpoints can run on
        plain list indexing without per-call accessor overhead.
        """
        return (
            self._head_masks,
            self._component_masks,
            self._union_masks,
            self._touching_masks,
        )

    def blocks_of_head_mask(self, head_mask: int) -> Tuple[int, ...]:
        """Ids of the blocks headed by the vertex set encoded by ``head_mask``."""
        return tuple(self._head_to_block_ids.get(head_mask, ()))

    def block_masks(self, block_id: int) -> Tuple[int, int, int]:
        """``(head, component, union)`` masks of the identified block."""
        return (
            self._head_masks[block_id],
            self._component_masks[block_id],
            self._union_masks[block_id],
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

        This is the satisfaction-independent part of the basis test: the
        result only depends on the hypergraph, the candidate (identified by
        its mask — masks and vertex sets are in bijection) and the block, so
        it is computed once and memoised.  ``candidate`` is a basis of
        ``block`` under a satisfaction map iff this is not ``None`` and every
        returned sub-block is satisfied (condition 3).
        """
        key = (candidate_mask, block_id)
        cached = self._basis_subs_cache.get(key, _MISSING)
        if cached is not _MISSING:
            return cached
        result = self._compute_basis_sub_ids(candidate_mask, block_id)
        self._basis_subs_cache[key] = result
        return result

    def _compute_basis_sub_ids(
        self, candidate_mask: int, block_id: int
    ) -> Optional[Tuple[int, ...]]:
        if candidate_mask == self._head_masks[block_id]:
            return None
        block_union = self._union_masks[block_id]
        # A basis must live inside the block: the decomposition it induces is
        # a TD of H[S ∪ C], so bags outside S ∪ C would break connectedness
        # once the block is glued into a larger decomposition.
        if candidate_mask & ~block_union:
            return None
        block_component = self._component_masks[block_id]
        union_masks = self._union_masks
        component_masks = self._component_masks
        covered = candidate_mask
        subs = []
        for sub_id in self._head_to_block_ids.get(candidate_mask, ()):
            if (union_masks[sub_id] & ~block_union) == 0 and (
                component_masks[sub_id] & ~block_component
            ) == 0:
                subs.append(sub_id)
                covered |= component_masks[sub_id]
        # Condition 1: C ⊆ X ∪ ⋃Yi.
        if block_component & ~covered:
            return None
        # Condition 2: edges meeting C are inside X ∪ ⋃Yi (each such edge is
        # a subset of their union, so one subset test covers all of them).
        if self._touching_masks[block_id] & ~covered:
            return None
        return tuple(subs)

    def candidate_probes(self, block_id: int) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        """The statically feasible ``(candidate id, live sub-block ids)`` pairs.

        A pair appears iff the satisfaction-independent basis conditions 1+2
        hold for the candidate and the block (:meth:`basis_sub_ids`), with the
        trivially satisfied empty-component sub-blocks dropped: only the
        remaining *live* subs gate condition 3 and contribute subtrees to the
        induced partial decomposition.  This is the probe set Algorithm 2's
        worklist re-examines and the lazy enumerator builds its option
        streams over (via :meth:`repro.core.options.SolverCore.probe_tables`),
        so it is memoised per block.
        """
        cached = self._probe_cache.get(block_id)
        if cached is not None:
            return cached
        not_union = ~self._union_masks[block_id]
        component_masks = self._component_masks
        probes = []
        for cand_id, candidate_mask in enumerate(self.candidate_masks):
            if candidate_mask & not_union:
                continue
            # Not the memoising basis_sub_ids: each pair is visited once
            # here and _probe_cache already memoises the whole block.
            subs = self._compute_basis_sub_ids(candidate_mask, block_id)
            if subs is None:
                continue
            probes.append(
                (cand_id, tuple(s for s in subs if component_masks[s]))
            )
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
        decomposition witnessing their satisfaction is known.
        """
        candidate_mask = self.candidate_mask(frozenset(candidate))
        if candidate_mask is None:
            return False
        block_id = self._block_id.get(block)
        if block_id is None:
            return self._is_basis_unregistered(candidate_mask, block, satisfied)
        sub_ids = self.basis_sub_ids(candidate_mask, block_id)
        if sub_ids is None:
            return False
        # Condition 3: every sub-block is satisfied.
        block_list = self._block_list
        return all(satisfied.get(block_list[i], False) for i in sub_ids)

    def _is_basis_unregistered(
        self, candidate_mask: int, block: Block, satisfied: Dict[Block, bool]
    ) -> bool:
        """Basis test against an ad-hoc block that is not in the index."""
        head_mask = self._indexer.to_mask_clipped(block.head)
        component_mask = self._indexer.to_mask_clipped(block.component)
        union_mask = head_mask | component_mask
        if candidate_mask == head_mask or candidate_mask & ~union_mask:
            return False
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
        if component_mask & ~covered:
            return False
        touching = 0
        for edge_mask in self.hypergraph.bitsets.edge_masks:
            if edge_mask & component_mask:
                touching |= edge_mask
        if touching & ~covered:
            return False
        block_list = self._block_list
        return all(satisfied.get(block_list[i], False) for i in subs)
