"""Subtree constraints on (partial) tree decompositions (Section 6).

A *subtree constraint* is a Boolean property of partial tree decompositions.
A full tree decomposition satisfies the constraint if the property holds for
the partial decomposition induced by every subtree.  Two of the paper's
constraints are implemented here, each reachable as a
:class:`~repro.core.solve.SolveRequest` name through
:func:`repro.core.solve.constraint_object`:

* :class:`ConnectedCoverConstraint` (``ConCov``, ``"concov"``) — every bag
  has an edge cover of size ≤ k whose edges form a connected
  subhypergraph (rules out Cartesian products when the decomposition
  drives query evaluation);
* :class:`ShallowCyclicityConstraint` (``ShallowCyc_d``,
  ``"shallowcyc:<d>"``) — every bag at depth greater than ``d`` is covered
  by a single edge (a cyclic "core" with acyclic parts attached).

The paper's third example, ``PartClust`` (Example 4), is not implemented:
a request would have to carry a partition of the relations, and no
request field does.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Set

from repro.hypergraph.hypergraph import Hypergraph, Vertex
from repro.decompositions.td import TreeDecomposition
from repro.decompositions.tree import TreeNode
from repro.core.covers import has_connected_cover

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

    #: Bag-local constraints hold iff every bag passes :meth:`filter_bags`,
    #: so one ``holds`` decides every subtree, and a fragment the solvers
    #: build over filtered bags holds without being materialised.
    bag_local = False

    def holds(self, partial_td: TreeDecomposition) -> bool:
        raise NotImplementedError

    def holds_recursively(self, td: TreeDecomposition) -> bool:
        if self.bag_local:
            return self.holds(td)
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


class ConnectedCoverConstraint(SubtreeConstraint):
    """``ConCov``: every bag has a connected edge cover of size ≤ k."""

    bag_local = True

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
