"""Frozenset reference implementations of the combinatorial hot paths.

These are the original (pre-bitset-kernel) implementations of the
[S]-component computation, candidate-bag generation (``Soft^i_{H,k}``),
minimum edge covers, the ConCov connected-cover search and the Algorithm 1
fixpoint, kept verbatim as an executable specification.  The production code in
:mod:`repro.hypergraph.components`, :mod:`repro.core.candidate_bags`,
:mod:`repro.core.covers` and :mod:`repro.core.ctd` runs the same algorithms
on int masks (see :mod:`repro.hypergraph.bitset`); the equivalence property
tests assert that both paths produce byte-identical components, bags, cover
sizes and CandidateTD decisions, and the kernel benchmark times this module
as the baseline.

Nothing here is used on a hot path — do not "optimise" this module; its
value is being the simple, obviously-correct version.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.hypergraph.hypergraph import Edge, Hypergraph, Vertex

Bag = FrozenSet[Vertex]


def _sorted_bags(bags: Iterable[Bag]) -> List[Bag]:
    return sorted(
        {frozenset(bag) for bag in bags if bag},
        key=lambda bag: (len(bag), sorted(map(str, bag))),
    )


# -- components (seed version of repro.hypergraph.components) -----------------


class _UnionFind:
    """Union-find over arbitrary hashable items."""

    def __init__(self, items: Iterable):
        self._parent = {item: item for item in items}

    def find(self, item):
        parent = self._parent
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb

    def groups(self) -> Dict:
        result: Dict = {}
        for item in self._parent:
            result.setdefault(self.find(item), []).append(item)
        return result


def reference_vertex_components(
    hypergraph: Hypergraph, separator: Iterable[Vertex] = ()
) -> List[FrozenSet[Vertex]]:
    """Seed ``vertex_components``: union-find over the non-separator vertices."""
    sep = frozenset(separator)
    outside = [v for v in hypergraph.vertices if v not in sep]
    if not outside:
        return []
    uf = _UnionFind(outside)
    for edge in hypergraph.edges:
        free = [v for v in edge.vertices if v not in sep]
        for i in range(1, len(free)):
            uf.union(free[0], free[i])
    comps = [frozenset(group) for group in uf.groups().values()]
    return sorted(comps, key=lambda c: sorted(map(str, c)))


def reference_edge_components(
    hypergraph: Hypergraph, separator: Iterable[Vertex] = ()
) -> List[Tuple[Edge, ...]]:
    """Seed ``edge_components``: bucket edges by their vertex component."""
    sep = frozenset(separator)
    vcomps = reference_vertex_components(hypergraph, sep)
    index: Dict[Vertex, int] = {}
    for i, comp in enumerate(vcomps):
        for v in comp:
            index[v] = i
    buckets: List[List[Edge]] = [[] for _ in vcomps]
    for edge in hypergraph.edges:
        free = next((v for v in edge.vertices if v not in sep), None)
        if free is not None:
            buckets[index[free]].append(edge)
    return [tuple(bucket) for bucket in buckets if bucket]


def _component_vertices(component: Iterable[Edge]) -> FrozenSet[Vertex]:
    result = set()
    for edge in component:
        result.update(edge.vertices)
    return frozenset(result)


# -- candidate bags (seed version of repro.core.candidate_bags) ---------------


def reference_component_vertex_sets(hypergraph: Hypergraph, k: int) -> Set[Bag]:
    """Seed ``_component_union_masks``: all ``⋃C`` for [λ2]-components, |λ2| ≤ k."""
    edges = list(hypergraph.edges)
    result: Set[Bag] = set()
    separators_seen: Set[Bag] = set()
    for size in range(0, min(k, len(edges)) + 1):
        for lambda2 in combinations(edges, size):
            separator = hypergraph.vertices_of(lambda2)
            if separator in separators_seen:
                continue
            separators_seen.add(separator)
            for component in reference_edge_components(hypergraph, separator):
                result.add(_component_vertices(component))
    return result


def reference_cover_unions(edge_sets: Sequence[FrozenSet[Vertex]], k: int) -> Set[Bag]:
    """Seed ``_cover_union_masks``: all unions of 1..k of the given vertex sets."""
    distinct = sorted(set(edge_sets), key=lambda s: sorted(map(str, s)))
    result: Set[Bag] = set()
    for size in range(1, min(k, len(distinct)) + 1):
        for subset in combinations(distinct, size):
            union: Set[Vertex] = set()
            for vertex_set in subset:
                union.update(vertex_set)
            result.add(frozenset(union))
    return result


class ReferenceSoftBagGenerator:
    """Seed :class:`SoftBagGenerator`: iterated ``Soft^i_{H,k}`` on frozensets."""

    def __init__(
        self, hypergraph: Hypergraph, k: int, max_subedges: Optional[int] = None
    ):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.hypergraph = hypergraph
        self.k = k
        self.max_subedges = max_subedges
        self._component_sets = reference_component_vertex_sets(hypergraph, k)
        self._subedge_levels: List[Set[Bag]] = [
            {e.vertices for e in hypergraph.edges}
        ]
        self._soft_levels: List[Set[Bag]] = [
            self._soft_from_subedges(self._subedge_levels[0])
        ]

    def _soft_from_subedges(self, subedges: Set[Bag]) -> Set[Bag]:
        unions = reference_cover_unions(
            sorted(subedges, key=lambda s: sorted(map(str, s))), self.k
        )
        bags: Set[Bag] = set()
        for union in unions:
            for component_set in self._component_sets:
                bag = union & component_set
                if bag:
                    bags.add(bag)
        return bags

    def _next_subedges(self, level: int) -> Set[Bag]:
        current = self._subedge_levels[level]
        soft = self._soft_levels[level]
        result: Set[Bag] = set(current)
        for subedge in current:
            for bag in soft:
                intersection = subedge & bag
                if intersection:
                    result.add(intersection)
                    if (
                        self.max_subedges is not None
                        and len(result) >= self.max_subedges
                    ):
                        return result
        return result

    def _ensure_level(self, level: int) -> None:
        while len(self._soft_levels) <= level:
            i = len(self._subedge_levels) - 1
            next_subedges = self._next_subedges(i)
            if next_subedges == self._subedge_levels[i]:
                self._subedge_levels.append(next_subedges)
                self._soft_levels.append(self._soft_levels[i])
                continue
            self._subedge_levels.append(next_subedges)
            self._soft_levels.append(self._soft_from_subedges(next_subedges))

    def subedges(self, level: int = 0) -> Set[Bag]:
        if level > 0:
            self._ensure_level(level)
        return set(self._subedge_levels[min(level, len(self._subedge_levels) - 1)])

    def candidate_bags(self, level: int = 0) -> Set[Bag]:
        self._ensure_level(level)
        return set(self._soft_levels[level])

    def fixpoint_candidate_bags(self, max_level: int = 20) -> Set[Bag]:
        previous: Optional[Set[Bag]] = None
        for level in range(max_level + 1):
            current = self.candidate_bags(level)
            if previous is not None and current == previous:
                return current
            previous = current
        return previous if previous is not None else set()


def reference_soft_candidate_bags(hypergraph: Hypergraph, k: int) -> Set[Bag]:
    """Seed ``soft_candidate_bags``: ``Soft_{H,k}`` of Definition 3."""
    return ReferenceSoftBagGenerator(hypergraph, k).candidate_bags(0)


# -- covers (seed version of repro.core.covers) -------------------------------


def reference_greedy_edge_cover(
    hypergraph: Hypergraph, bag: Iterable[Vertex]
) -> Optional[List[Edge]]:
    """Seed ``greedy_edge_cover``."""
    remaining = set(bag)
    cover: List[Edge] = []
    while remaining:
        best = None
        best_gain = 0
        for edge in hypergraph.edges:
            gain = len(edge.vertices & remaining)
            if gain > best_gain:
                best, best_gain = edge, gain
        if best is None:
            return None
        cover.append(best)
        remaining -= best.vertices
    return cover


def reference_minimum_edge_cover(
    hypergraph: Hypergraph, bag: Iterable[Vertex], upper_bound: Optional[int] = None
) -> Optional[List[Edge]]:
    """Seed ``minimum_edge_cover``: branch and bound on frozensets."""
    bag_set = frozenset(bag)
    if not bag_set:
        return []
    edges = [e for e in hypergraph.edges if e.vertices & bag_set]
    edges.sort(key=lambda e: (-len(e.vertices & bag_set), e.name))
    coverable = set()
    for edge in edges:
        coverable.update(edge.vertices & bag_set)
    if coverable != bag_set:
        return None
    greedy = reference_greedy_edge_cover(hypergraph, bag_set)
    best: Optional[List[Edge]] = greedy
    limit = len(greedy) if greedy is not None else len(edges)
    if upper_bound is not None:
        limit = min(limit, upper_bound)
        if best is not None and len(best) > upper_bound:
            best = None

    def search(remaining: FrozenSet[Vertex], chosen: List[Edge]) -> None:
        nonlocal best, limit
        if not remaining:
            if best is None or len(chosen) < len(best):
                best = list(chosen)
                limit = len(best)
            return
        if len(chosen) >= limit:
            return
        pivot = min(
            remaining,
            key=lambda v: sum(1 for e in edges if v in e.vertices),
        )
        for edge in edges:
            if pivot in edge.vertices:
                chosen.append(edge)
                search(remaining - edge.vertices, chosen)
                chosen.pop()

    search(bag_set, [])
    if best is not None and upper_bound is not None and len(best) > upper_bound:
        return None
    return best


def reference_has_connected_cover(
    hypergraph: Hypergraph, bag: Iterable[Vertex], max_size: int
) -> bool:
    """Seed ``has_connected_cover``: minimal covers, then a bridging search.

    Each minimal cover of size ≤ ``max_size`` that is not connected gets the
    remaining budget to reconnect it by adding edges that meet it.
    """
    from repro.core.covers import connected_edge_set, enumerate_covers

    bag_set = frozenset(bag)
    if not bag_set:
        return True
    all_edges = list(hypergraph.edges)
    for cover in enumerate_covers(hypergraph, bag_set, max_size):
        if connected_edge_set(cover):
            return True
        budget = max_size - len(cover)
        if budget > 0 and _reference_can_connect(list(cover), all_edges, budget):
            return True
    return False


def _reference_can_connect(cover: List[Edge], all_edges: List[Edge], budget: int) -> bool:
    """Can the cover be made connected by adding at most ``budget`` edges?"""
    from repro.core.covers import connected_edge_set

    if connected_edge_set(cover):
        return True
    if budget == 0:
        return False
    chosen = set(e.name for e in cover)
    for edge in all_edges:
        if edge.name in chosen:
            continue
        if any(edge.vertices & c.vertices for c in cover):
            if _reference_can_connect(cover + [edge], all_edges, budget - 1):
                return True
    return False


# -- Algorithm 1 (seed versions of repro.core.blocks / repro.core.ctd) --------


class _ReferenceBlock:
    __slots__ = ("head", "component")

    def __init__(self, head: Bag, component: Bag):
        self.head = head
        self.component = component

    @property
    def union(self) -> Bag:
        return self.head | self.component

    def leq(self, other: "_ReferenceBlock") -> bool:
        return self.union <= other.union and self.component <= other.component

    def __eq__(self, other):
        if not isinstance(other, _ReferenceBlock):
            return NotImplemented
        return self.head == other.head and self.component == other.component

    def __hash__(self):
        return hash((self.head, self.component))


def _reference_blocks(
    hypergraph: Hypergraph, bags: List[Bag]
) -> Tuple[Dict[Bag, List["_ReferenceBlock"]], List["_ReferenceBlock"], "_ReferenceBlock"]:
    """All blocks headed by the bags (plus the root block), seed-style.

    Returns ``(blocks_by_head, all_blocks, root_block)`` — the common
    preamble of the seed Algorithm 1 and Algorithm 2 fixpoints.
    """
    blocks_by_head: Dict[Bag, List[_ReferenceBlock]] = {}
    all_blocks: List[_ReferenceBlock] = []
    empty: Bag = frozenset()
    for head in bags + [empty]:
        blocks = [_ReferenceBlock(head, frozenset())]
        for component in reference_vertex_components(hypergraph, head):
            blocks.append(_ReferenceBlock(head, component))
        blocks_by_head[head] = blocks
        all_blocks.extend(blocks)
    root_block = _ReferenceBlock(empty, frozenset(hypergraph.vertices))
    if root_block not in blocks_by_head[empty]:
        blocks_by_head[empty].append(root_block)
        all_blocks.append(root_block)
    return blocks_by_head, all_blocks, root_block


def reference_candidate_td_decide(
    hypergraph: Hypergraph, candidate_bags: Iterable[Bag]
) -> bool:
    """Seed Algorithm 1 fixpoint: round-robin over all (block, candidate) pairs.

    Returns the CandidateTD decision (the root block is satisfied).
    """
    satisfied, root = reference_satisfied_blocks(hypergraph, candidate_bags)
    return root in satisfied


def reference_satisfied_blocks(
    hypergraph: Hypergraph, candidate_bags: Iterable[Bag]
) -> Tuple[Set[Tuple[Bag, Bag]], Tuple[Bag, Bag]]:
    """The seed Algorithm 1 fixpoint's satisfied blocks and the root block.

    Blocks are ``(head, component)`` pairs; the decision is whether the
    root is among the satisfied blocks.
    """
    bags = _sorted_bags(candidate_bags)
    blocks_by_head, all_blocks, root_block = _reference_blocks(hypergraph, bags)

    def is_basis(candidate: Bag, block: _ReferenceBlock, satisfied) -> bool:
        if candidate == block.head:
            return False
        if not candidate <= block.union:
            return False
        subs = [b for b in blocks_by_head.get(candidate, []) if b.leq(block)]
        covered = set(candidate)
        for sub in subs:
            covered.update(sub.component)
        if not block.component <= covered:
            return False
        for edge in hypergraph.edges:
            if edge.vertices & block.component and not edge.vertices <= covered:
                return False
        return all(satisfied.get(sub, False) for sub in subs)

    ordered = sorted(
        all_blocks,
        key=lambda b: (len(b.union), len(b.component), sorted(map(str, b.head))),
    )
    basis: Dict[_ReferenceBlock, Optional[Bag]] = {}
    satisfied: Dict[_ReferenceBlock, bool] = {}
    for block in ordered:
        trivially = not block.component
        basis[block] = frozenset() if trivially else None
        satisfied[block] = trivially
    changed = True
    while changed:
        changed = False
        for block in ordered:
            if satisfied[block]:
                continue
            for candidate in bags:
                if is_basis(candidate, block, satisfied):
                    basis[block] = candidate
                    satisfied[block] = True
                    changed = True
                    break
    # The vertex-less hypergraph's root block (∅, ∅) is trivially satisfied
    # by the (empty, falsy) basis — the accept test is satisfaction alone.
    return (
        {(block.head, block.component) for block, ok in satisfied.items() if ok},
        (root_block.head, root_block.component),
    )


# -- Algorithm 2 (seed version of repro.core.constrained) ----------------------


def reference_constrained_ctd(
    hypergraph: Hypergraph,
    candidate_bags: Iterable[Bag],
    constraint=None,
    preference=None,
):
    """Seed Algorithm 2: round-robin DP over all (block, candidate) pairs.

    For every block the DP keeps the basis whose induced partial
    decomposition is constraint-compliant and preference-minimal, rebuilding
    the full :class:`TreeDecomposition` and re-running
    ``constraint.holds_recursively`` for every probe in every round — the
    behaviour the top-down solver in :mod:`repro.core.constrained` is
    benchmarked and property-tested against.
    Returns the optimal compliant CTD or ``None``.
    """
    from repro.core.constraints import NoConstraint
    from repro.core.preferences import NoPreference
    from repro.decompositions.td import TreeDecomposition
    from repro.decompositions.tree import RootedTree

    constraint = constraint if constraint is not None else NoConstraint()
    preference = preference if preference is not None else NoPreference()
    bags = _sorted_bags(
        constraint.filter_bags({frozenset(bag) for bag in candidate_bags if bag})
    )
    blocks_by_head, all_blocks, root_block = _reference_blocks(hypergraph, bags)

    basis: Dict[_ReferenceBlock, Optional[Bag]] = {}
    satisfied: Dict[_ReferenceBlock, bool] = {}

    def sub_blocks(head: Bag, block: _ReferenceBlock) -> List[_ReferenceBlock]:
        return [b for b in blocks_by_head.get(head, []) if b.leq(block)]

    def is_basis(candidate: Bag, block: _ReferenceBlock) -> bool:
        if candidate == block.head:
            return False
        if not candidate <= block.union:
            return False
        subs = sub_blocks(candidate, block)
        covered = set(candidate)
        for sub in subs:
            covered.update(sub.component)
        if not block.component <= covered:
            return False
        for edge in hypergraph.edges:
            if edge.vertices & block.component and not edge.vertices <= covered:
                return False
        return all(satisfied.get(sub, False) for sub in subs)

    def attach(tree: RootedTree, parent, block: _ReferenceBlock) -> None:
        if not block.component:
            return
        block_basis = basis[block]
        assert block_basis is not None
        node = tree.new_node(parent, bag=block_basis)
        for sub in sub_blocks(block_basis, block):
            if sub.component:
                attach(tree, node, sub)

    def partial_decomposition(
        block: _ReferenceBlock, candidate: Bag
    ) -> TreeDecomposition:
        tree = RootedTree()
        node = tree.new_node(None, bag=candidate)
        for sub in sub_blocks(candidate, block):
            if sub.component:
                attach(tree, node, sub)
        return TreeDecomposition(hypergraph, tree)

    ordered = sorted(
        all_blocks,
        key=lambda b: (len(b.union), len(b.component), sorted(map(str, b.head))),
    )
    for block in ordered:
        trivially = not block.component
        basis[block] = frozenset() if trivially else None
        satisfied[block] = trivially
    max_rounds = len(ordered) * max(1, len(bags)) + 10
    for _ in range(max_rounds):
        changed = False
        for block in ordered:
            if not block.component:
                continue
            for candidate in bags:
                if not is_basis(candidate, block):
                    continue
                new_decomposition = partial_decomposition(block, candidate)
                if not constraint.holds_recursively(new_decomposition):
                    continue
                current_basis = basis[block]
                if current_basis is None or preference.is_strictly_better(
                    new_decomposition, partial_decomposition(block, current_basis)
                ):
                    basis[block] = candidate
                    satisfied[block] = True
                    changed = True
        if not changed:
            break
    if not satisfied.get(root_block, False):
        return None
    if not root_block.component:
        # Vertex-less hypergraph: the trivial single-empty-bag CTD.
        tree = RootedTree()
        tree.new_node(None, bag=frozenset())
        decomposition = TreeDecomposition(hypergraph, tree)
    else:
        root_basis = basis[root_block]
        assert root_basis is not None
        decomposition = partial_decomposition(root_block, root_basis)
    if not constraint.holds_recursively(decomposition):
        return None
    return decomposition


# -- exact ranked enumeration (spec for repro.core.enumerate) -------------------


def reference_enumerate_ctds(
    hypergraph: Hypergraph,
    candidate_bags: Iterable[Bag],
    constraint=None,
    preference=None,
    limit: int = 10,
) -> List:
    """Brute-force exact ranked enumeration: exhaustive generation + sort.

    For every block (bottom-up) this builds the *complete* list of partial
    decompositions — every feasible basis candidate × every combination of
    the sub-blocks' options — rebuilding a full :class:`TreeDecomposition`
    and re-running ``constraint.holds_recursively`` for each one, then ranks
    the root block's options by ``(preference key, canonical fragment sort
    key)`` and returns the first ``limit`` distinct decompositions.  No
    beam, no combination caps, no laziness: exponential and obviously
    correct, which is exactly what the lazy any-k enumerator in
    :mod:`repro.core.enumerate` is property-tested against.
    """
    from repro.core.constraints import NoConstraint
    from repro.core.fragments import (
        fragment_sort_key,
        fragment_to_decomposition,
        make_fragment,
    )
    from repro.core.preferences import NoPreference
    from repro.decompositions.td import TreeDecomposition
    from repro.decompositions.tree import RootedTree

    constraint = constraint if constraint is not None else NoConstraint()
    preference = preference if preference is not None else NoPreference()
    if limit <= 0:
        return []
    bags = _sorted_bags(
        constraint.filter_bags({frozenset(bag) for bag in candidate_bags if bag})
    )
    blocks_by_head, all_blocks, root_block = _reference_blocks(hypergraph, bags)

    def ranking_key(fragment):
        decomposition = fragment_to_decomposition(hypergraph, fragment)
        return (preference.key(decomposition), fragment_sort_key(fragment))

    ordered = sorted(
        all_blocks,
        key=lambda b: (len(b.union), len(b.component), sorted(map(str, b.head))),
    )
    options: Dict[_ReferenceBlock, List] = {}
    for block in ordered:
        if not block.component:
            options[block] = []
            continue
        block_options = set()
        for candidate in bags:
            if candidate == block.head:
                continue
            if not candidate <= block.union:
                continue
            subs = [b for b in blocks_by_head.get(candidate, []) if b.leq(block)]
            covered = set(candidate)
            for sub in subs:
                covered.update(sub.component)
            if not block.component <= covered:
                continue
            if any(
                edge.vertices & block.component and not edge.vertices <= covered
                for edge in hypergraph.edges
            ):
                continue
            child_lists = [options[sub] for sub in subs if sub.component]
            if any(not child_list for child_list in child_lists):
                continue
            for combination in product(*child_lists):
                fragment = make_fragment(candidate, combination)
                decomposition = fragment_to_decomposition(hypergraph, fragment)
                if not constraint.holds_recursively(decomposition):
                    continue
                block_options.add(fragment)
        options[block] = sorted(block_options, key=ranking_key)

    if not root_block.component:
        # Vertex-less hypergraph: the single-empty-bag CTD is the only one.
        tree = RootedTree()
        tree.new_node(None, bag=frozenset())
        decomposition = TreeDecomposition(hypergraph, tree)
        if not constraint.holds_recursively(decomposition):
            return []
        return [decomposition]
    decompositions = []
    seen = set()
    for fragment in options[root_block]:
        decomposition = fragment_to_decomposition(hypergraph, fragment)
        canonical = decomposition.canonical_form()
        if canonical in seen:
            continue
        seen.add(canonical)
        decompositions.append(decomposition)
        if len(decompositions) >= limit:
            break
    return decompositions
