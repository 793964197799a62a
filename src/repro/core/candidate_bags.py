"""Candidate bag generation: ``Soft_{H,k}`` and the iterated ``Soft^i_{H,k}``.

Definition 3 of the paper: ``Soft_{H,k}`` contains every vertex set of the
form ``B = (⋃λ1) ∩ (⋃C)`` where ``λ1`` and ``λ2`` are sets of at most ``k``
edges of ``H`` and ``C`` is a [λ2]-component of ``H``.  (With ``λ2 = ∅`` the
only component is ``E(H)`` itself, so every union of ≤ k edges is a candidate
bag.)

Definition 6 iterates the construction: ``E^(0) = E(H)``,
``E^(i) = E^(i-1) ⋂× Soft^{i-1}_{H,k}`` (pairwise intersections), and
``Soft^i_{H,k}`` allows ``λ1`` to draw from ``E^(i)`` while ``λ2`` still
ranges over the original edges.

All enumeration runs on int masks (:mod:`repro.hypergraph.bitset`): unions
and intersections are single int operations, duplicates are collapsed in int
sets, λ2 separators are deduplicated by mask, and a λ2 edge that is already
contained in the union accumulated so far is pruned (it cannot change the
separator, so every union reachable through it is reachable without it at a
smaller size).  The public API keeps accepting and returning frozensets; the
frozenset reference implementation lives in :mod:`repro.core.reference`.
"""

from __future__ import annotations

from typing import Collection, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.hypergraph.bitset import pairwise_and_masks
from repro.hypergraph.hypergraph import Edge, Hypergraph, Vertex
from repro.hypergraph.components import component_vertices, edge_components
from repro.runtime.budget import Budget

Bag = FrozenSet[Vertex]


def _component_union_masks(
    hypergraph: Hypergraph, k: int, budget: Optional[Budget] = None
) -> Set[int]:
    """Masks of all ``⋃C`` where ``C`` is a [λ2]-component for some ``|λ2| ≤ k``.

    Includes ``λ2 = ∅`` (whose components are the connected components of the
    hypergraph).  Duplicate separators arising from different ``λ2`` are
    collapsed before any component is computed.

    An exhausted ``budget`` stops the enumeration early; the partial result
    is a sound under-approximation (every returned mask is a real component
    union).
    """
    bitsets = hypergraph.bitsets
    edge_masks = bitsets.edge_masks
    limit = min(k, len(edge_masks))
    result: Set[int] = set()
    separators_seen: Set[int] = {0}
    result.update(bitsets.component_unions(0))

    def extend(start: int, union: int, size: int) -> bool:
        for i in range(start, len(edge_masks)):
            if budget is not None and not budget.try_tick():
                return False
            mask = edge_masks[i]
            extended = union | mask
            if extended == union:
                # Edge i is inside the current union: any λ2 containing it
                # yields the same separator as the λ2 without it, which is
                # enumerated on another branch with one edge to spare.
                continue
            if extended not in separators_seen:
                separators_seen.add(extended)
                result.update(bitsets.component_unions(extended))
            if size + 1 < limit and not extend(i + 1, extended, size + 1):
                return False
        return True

    if limit >= 1:
        extend(0, 0, 0)
    return result


def _cover_union_masks(
    vertex_set_masks: Iterable[int], k: int, budget: Optional[Budget] = None
) -> Set[int]:
    """All distinct unions of between 1 and ``k`` of the given masks.

    An exhausted ``budget`` stops the enumeration early with a sound
    partial result (a subset of the full union set).
    """
    distinct = sorted(set(vertex_set_masks))
    result: Set[int] = set()

    def extend(start: int, union: int, size: int) -> bool:
        for i in range(start, len(distinct)):
            if budget is not None and not budget.try_tick():
                return False
            extended = union | distinct[i]
            if size and extended == union:
                # distinct[i] ⊆ union: the same union is produced without it.
                continue
            result.add(extended)
            if size + 1 < k and not extend(i + 1, extended, size + 1):
                return False
        return True

    if k >= 1:
        extend(0, 0, 0)
    return result


def soft_candidate_bags(
    hypergraph: Hypergraph, k: int, budget: Optional[Budget] = None
) -> Set[Bag]:
    """The set ``Soft_{H,k}`` of Definition 3 (non-empty bags only)."""
    return iterated_soft_candidate_bags(hypergraph, k, iterations=0, budget=budget)


def soft_bag(
    hypergraph: Hypergraph,
    lambda1: Iterable[Edge],
    lambda2: Iterable[Edge],
    component_index: int = 0,
) -> Bag:
    """Construct a single candidate bag from explicit witnesses.

    ``B = (⋃λ1) ∩ (⋃C)`` where ``C`` is the ``component_index``-th
    [λ2]-component of the hypergraph.  Used in tests to verify membership
    claims from the paper's examples without enumerating the whole set.
    """
    union_lambda1 = hypergraph.vertices_of(lambda1)
    separator = hypergraph.vertices_of(lambda2)
    components = edge_components(hypergraph, separator)
    if not components:
        raise ValueError("λ2 leaves no component")
    component = components[component_index]
    return frozenset(union_lambda1 & component_vertices(component))


class SoftBagGenerator:
    """Generator for the iterated candidate-bag sets ``Soft^i_{H,k}``.

    The generator keeps the intermediate subedge sets ``E^(i)`` so that both
    the candidate bags and the subedges (needed e.g. to check the claims of
    Example 2) can be inspected.  Once ``E^(i+1) = E^(i)`` every later level
    is that fixpoint (Lemma 6) and is not recomputed, so ``candidate_bags(L)``
    for any ``L`` past the fixpoint is ``Soft^∞_{H,k}``.

    Internally every level is a set of int masks; conversions to frozensets
    only happen in the public accessors.

    A ``budget`` (:class:`repro.runtime.Budget`) is the one bound on the
    enumeration: when it exhausts (``budget.exhausted``), the generator
    stops enumerating and every returned bag set is a subset of the full one —
    any decomposition found over it is still a valid soft decomposition,
    only a "no" answer becomes inconclusive.
    """

    def __init__(
        self,
        hypergraph: Hypergraph,
        k: int,
        budget: Optional[Budget] = None,
    ):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.hypergraph = hypergraph
        self.k = k
        self.budget = budget
        self._indexer = hypergraph.bitsets.indexer
        self._component_masks: Tuple[int, ...] = tuple(
            sorted(_component_union_masks(hypergraph, k, budget))
        )
        # E^(0) is the original edge set (as vertex masks).
        self._subedge_levels: List[Set[int]] = [set(hypergraph.bitsets.edge_masks)]
        self._soft_levels: List[Set[int]] = [
            self._soft_from_subedges(self._subedge_levels[0])
        ]
        self._fixpoint = False

    # -- internals -------------------------------------------------------------

    def _pre_charge(self, left: Collection[int], right: Collection[int]) -> bool:
        """Charge a ``pairwise_and_masks(left, right)`` batch before running it.

        The product is one numpy-ish bulk step; it cannot tick per AND, so
        its ``len(left) * len(right)`` pairs are charged up front and the
        batch is skipped entirely when the budget cannot afford it.  The
        amortization window of the generator is therefore one batch.
        """
        return self.budget is None or self.budget.try_tick(
            max(1, len(left) * len(right))
        )

    def _soft_from_subedges(self, subedge_masks: Set[int]) -> Set[int]:
        """``{ (⋃λ1) ∩ (⋃C) }`` for λ1 of ≤ k subedges and C over components."""
        unions = _cover_union_masks(subedge_masks, self.k, self.budget)
        if not self._pre_charge(unions, self._component_masks):
            # Intersecting a subset of the unions would yield a sound
            # partial set too, but an exhausted budget should stop cheaply.
            return set()
        return pairwise_and_masks(list(unions), self._component_masks)

    def _next_subedges(self, level: int) -> Set[int]:
        """``E^(i+1) = E^(i) ⋂× Soft^i_{H,k}`` (non-empty intersections)."""
        current = self._subedge_levels[level]
        soft = self._soft_levels[level]
        if not self._pre_charge(current, soft):
            return set(current)
        result = pairwise_and_masks(list(current), list(soft))
        result.update(current)
        return result

    def _ensure_level(self, level: int) -> None:
        while len(self._soft_levels) <= level:
            subedges, soft = self._subedge_levels[-1], self._soft_levels[-1]
            if not self._fixpoint:
                # Once E^(i+1) = E^(i), every later level is the same fixpoint.
                next_subedges = self._next_subedges(len(self._subedge_levels) - 1)
                self._fixpoint = next_subedges == subedges
                if not self._fixpoint:
                    subedges = next_subedges
                    soft = self._soft_from_subedges(next_subedges)
            self._subedge_levels.append(subedges)
            self._soft_levels.append(soft)

    def _to_bags(self, masks: Iterable[int]) -> Set[Bag]:
        to_frozenset = self._indexer.to_frozenset
        return {to_frozenset(mask) for mask in masks}

    # -- public API -------------------------------------------------------------

    def subedges(self, level: int = 0) -> Set[Bag]:
        """The subedge set ``E^(level)`` (as vertex sets)."""
        self._ensure_level(level)
        return self._to_bags(self._subedge_levels[level])

    def candidate_bags(self, level: int = 0) -> Set[Bag]:
        """The candidate-bag set ``Soft^level_{H,k}``."""
        self._ensure_level(level)
        return self._to_bags(self._soft_levels[level])


def iterated_soft_candidate_bags(
    hypergraph: Hypergraph,
    k: int,
    iterations: int = 0,
    budget: Optional[Budget] = None,
) -> Set[Bag]:
    """``Soft^iterations_{H,k}`` — convenience wrapper over :class:`SoftBagGenerator`."""
    return SoftBagGenerator(hypergraph, k, budget=budget).candidate_bags(iterations)


def filter_bags_by_cover(
    hypergraph: Hypergraph, bags: Iterable[Bag], k: int, connected: bool = False
) -> Set[Bag]:
    """Keep only bags that have an edge cover of size ≤ k (optionally connected).

    Every bag of ``Soft_{H,k}`` has a cover of size ≤ k by construction; the
    connected filter implements the bag-level part of the ConCov constraint
    and is what the experiments use to report ``|ConCov-Soft_{H,k}|``.
    """
    from repro.core.covers import has_connected_cover, has_cover

    covered = has_connected_cover if connected else has_cover
    return {bag for bag in bags if covered(hypergraph, bag, k)}
