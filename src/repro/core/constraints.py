"""Subtree constraints on (partial) tree decompositions (Section 6).

A *subtree constraint* is a Boolean property of partial tree decompositions.
A full tree decomposition satisfies the constraint if the property holds for
the partial decomposition induced by every subtree.  The three constraints
proposed in the paper are implemented here:

* :class:`ConnectedCoverConstraint` (``ConCov``) — every bag has an edge
  cover of size ≤ k whose edges form a connected subhypergraph (rules out
  Cartesian products when the decomposition drives query evaluation);
* :class:`ShallowCyclicityConstraint` (``ShallowCyc_d``) — every bag at depth
  greater than ``d`` is covered by a single edge (a cyclic "core" with
  acyclic parts attached);
* :class:`PartitionClusteringConstraint` (``PartClust``) — in a distributed
  setting with partitioned relations, each partition's nodes must form a
  connected subtree disjoint from the other partitions' subtrees.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.hypergraph.hypergraph import Hypergraph, Vertex
from repro.decompositions.td import TreeDecomposition
from repro.decompositions.tree import TreeNode
from repro.core.covers import has_connected_cover, has_cover

Bag = FrozenSet[Vertex]


class SubtreeConstraint:
    """Base class of subtree constraints.

    ``holds`` receives a partial tree decomposition (a TD of an induced
    subhypergraph, with bags drawn from the original hypergraph's vertices)
    and must be a pure function of it.  ``holds_recursively`` additionally
    checks every subtree, which is what "a TD satisfies 𝒞" means.
    """

    #: Trivial constraints hold for every decomposition; the solvers skip
    #: materialising partial decompositions for them entirely.
    trivial = False

    def holds(self, partial_td: TreeDecomposition) -> bool:
        raise NotImplementedError

    def holds_recursively(self, td: TreeDecomposition) -> bool:
        for node in td.tree.nodes():
            sub = _subtree_decomposition(td, node)
            if not self.holds(sub):
                return False
        return True

    def filter_bags(self, bags: Iterable[Bag]) -> Set[Bag]:
        """Bags that could possibly appear in a satisfying decomposition.

        The default keeps everything; bag-level constraints (ConCov) override
        this to prune the candidate set before the solver runs.
        """
        return set(bags)

    def __and__(self, other: "SubtreeConstraint") -> "AndConstraint":
        return AndConstraint([self, other])


def _subtree_decomposition(td: TreeDecomposition, node: TreeNode) -> TreeDecomposition:
    """The partial tree decomposition induced by the subtree rooted at ``node``."""
    from repro.decompositions.tree import RootedTree

    tree = RootedTree()

    def copy(source: TreeNode, parent: Optional[TreeNode]) -> None:
        new_node = tree.new_node(parent, **dict(source.data))
        for child in source.children:
            copy(child, new_node)

    copy(node, None)
    return TreeDecomposition(td.hypergraph, tree)


class NoConstraint(SubtreeConstraint):
    """The trivial constraint satisfied by every decomposition."""

    trivial = True

    def holds(self, partial_td: TreeDecomposition) -> bool:
        return True


class AndConstraint(SubtreeConstraint):
    """Conjunction of several subtree constraints."""

    def __init__(self, constraints: Sequence[SubtreeConstraint]):
        self.constraints = list(constraints)
        self.trivial = all(c.trivial for c in self.constraints)

    def holds(self, partial_td: TreeDecomposition) -> bool:
        return all(c.holds(partial_td) for c in self.constraints)

    def filter_bags(self, bags: Iterable[Bag]) -> Set[Bag]:
        result = set(bags)
        for constraint in self.constraints:
            result = constraint.filter_bags(result)
        return result


class ConnectedCoverConstraint(SubtreeConstraint):
    """``ConCov``: every bag has a connected edge cover of size ≤ k."""

    def __init__(self, hypergraph: Hypergraph, k: int):
        self.hypergraph = hypergraph
        self.k = k
        self._cache: Dict[Bag, bool] = {}

    def _bag_ok(self, bag: Bag) -> bool:
        verdict = self._cache.get(bag)
        if verdict is None:
            verdict = self._cache[bag] = has_connected_cover(self.hypergraph, bag, self.k)
        return verdict

    def holds(self, partial_td: TreeDecomposition) -> bool:
        return all(self._bag_ok(bag) for bag in partial_td.bags())

    def holds_recursively(self, td: TreeDecomposition) -> bool:
        # Bag-local: every subtree complies iff every bag does.
        return self.holds(td)

    def filter_bags(self, bags: Iterable[Bag]) -> Set[Bag]:
        return {bag for bag in bags if self._bag_ok(bag)}


class ShallowCyclicityConstraint(SubtreeConstraint):
    """``ShallowCyc_d``: cyclicity depth of the decomposition is at most ``d``."""

    def __init__(self, hypergraph: Hypergraph, depth: int):
        self.hypergraph = hypergraph
        self.depth = depth
        self._single_cover_cache: Dict[Bag, bool] = {}

    def single_edge_coverable(self, bag: Bag) -> bool:
        """Whether some single edge covers the bag (memoised per bag)."""
        if bag not in self._single_cover_cache:
            self._single_cover_cache[bag] = any(
                bag <= edge.vertices for edge in self.hypergraph.edges
            )
        return self._single_cover_cache[bag]

    def cyclicity_depth(self, partial_td: TreeDecomposition) -> int:
        """The least ``d`` such that all bags at depth > d are single-edge covered."""
        depth = 0
        for node in partial_td.tree.nodes():
            if not self.single_edge_coverable(partial_td.bag(node)):
                depth = max(depth, partial_td.tree.depth(node))
        return depth

    def holds(self, partial_td: TreeDecomposition) -> bool:
        return self.cyclicity_depth(partial_td) <= self.depth


class PartitionClusteringConstraint(SubtreeConstraint):
    """``PartClust``: partitions of the relations induce disjoint subtrees.

    ``partition_of`` maps every edge name of the hypergraph to a partition
    label.  The constraint holds for a (partial) decomposition if there is a
    node labelling ``f`` such that every bag is covered (with ≤ k edges) by
    edges of its node's partition and, for every partition, the nodes with
    that label form a connected subtree disjoint from the others.
    """

    def __init__(self, hypergraph: Hypergraph, partition_of: Mapping[str, str], k: int):
        self.hypergraph = hypergraph
        self.partition_of = dict(partition_of)
        self.k = k
        self.partitions = sorted(set(self.partition_of.values()))
        self._options_cache: Dict[Bag, FrozenSet[str]] = {}
        self._restricted: Optional[List[Tuple[str, Hypergraph]]] = None

    def _partition_hypergraphs(self) -> List[Tuple[str, Hypergraph]]:
        """Per partition with edges in the hypergraph, its edges alone
        (built once, so their bitset and cover tables are too)."""
        if self._restricted is None:
            self._restricted = []
            for partition in self.partitions:
                names = [
                    name
                    for name, label in self.partition_of.items()
                    if label == partition and name in self.hypergraph.edge_names
                ]
                if names:
                    restricted = self.hypergraph.restrict_edges(names)
                    self._restricted.append((partition, restricted))
        return self._restricted

    def _partition_options(self, bag: Bag) -> FrozenSet[str]:
        """Partitions whose edges alone can cover the bag with ≤ k edges."""
        if bag in self._options_cache:
            return self._options_cache[bag]
        if not bag:
            self._options_cache[bag] = frozenset(self.partitions)
            return self._options_cache[bag]
        options = set()
        for partition, restricted in self._partition_hypergraphs():
            if has_cover(restricted, bag, self.k):
                options.add(partition)
        self._options_cache[bag] = frozenset(options)
        return self._options_cache[bag]

    def holds(self, partial_td: TreeDecomposition) -> bool:
        nodes = partial_td.tree.nodes()
        options: List[FrozenSet[str]] = []
        for node in nodes:
            opts = self._partition_options(partial_td.bag(node))
            if not opts:
                return False
            options.append(opts)
        # Small trees: search for an assignment whose partition classes are
        # connected subtrees.  Backtracking over the pre-order node list.
        parent_index = {}
        index_of = {node.node_id: i for i, node in enumerate(nodes)}
        for i, node in enumerate(nodes):
            parent_index[i] = (
                index_of[node.parent.node_id] if node.parent is not None else None
            )
        assignment: List[Optional[str]] = [None] * len(nodes)

        def classes_connected() -> bool:
            for partition in set(assignment):
                members = [i for i, p in enumerate(assignment) if p == partition]
                roots = [
                    i
                    for i in members
                    if parent_index[i] is None or assignment[parent_index[i]] != partition
                ]
                if len(roots) > 1:
                    return False
            return True

        def backtrack(position: int) -> bool:
            if position == len(nodes):
                return classes_connected()
            for partition in options[position]:
                assignment[position] = partition
                parent = parent_index[position]
                # Prune: if this node starts a new occurrence of a partition
                # that already has a class root elsewhere, the classes cannot
                # all be connected subtrees.
                if parent is None or assignment[parent] != partition:
                    other_roots = sum(
                        1
                        for i in range(position)
                        if assignment[i] == partition
                        and (
                            parent_index[i] is None
                            or assignment[parent_index[i]] != partition
                        )
                    )
                    if other_roots >= 1:
                        assignment[position] = None
                        continue
                if backtrack(position + 1):
                    return True
                assignment[position] = None
            return False

        return backtrack(0)

    def filter_bags(self, bags: Iterable[Bag]) -> Set[Bag]:
        return {bag for bag in bags if self._partition_options(bag)}
