"""Tree decompositions of hypergraphs.

A tree decomposition of a hypergraph ``H`` is a rooted tree whose nodes carry
*bags* (vertex sets) such that (1) every hyperedge is covered by some bag and
(2) for every vertex, the nodes whose bag contains it form a connected
subtree (the connectedness condition).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.hypergraph.hypergraph import Hypergraph, Vertex
from repro.hypergraph.components import vertex_components
from repro.decompositions.tree import RootedTree, TreeNode


class TreeDecomposition:
    """A (rooted) tree decomposition ``(T, B)`` of a hypergraph.

    The bag of node ``u`` is stored in ``u.data["bag"]`` as a frozenset of
    vertices.  The class offers validity checking, width, and the structural
    predicates used by the paper (CompNF, candidate-bag membership).
    """

    def __init__(self, hypergraph: Hypergraph, tree: RootedTree):
        self.hypergraph = hypergraph
        self.tree = tree

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_bags(
        cls,
        hypergraph: Hypergraph,
        bags: Sequence[Iterable[Vertex]],
        parent_of: Sequence[Optional[int]],
    ) -> "TreeDecomposition":
        """Build a TD from a list of bags and a parent index per bag.

        ``parent_of[i]`` is the index of the parent of bag ``i`` or ``None``
        for the (single) root.  Parents must appear before children.
        """
        tree = RootedTree()
        nodes: List[TreeNode] = []
        for i, bag in enumerate(bags):
            parent_index = parent_of[i]
            parent = nodes[parent_index] if parent_index is not None else None
            nodes.append(tree.new_node(parent, bag=frozenset(bag)))
        return cls(hypergraph, tree)

    @classmethod
    def single_bag(cls, hypergraph: Hypergraph) -> "TreeDecomposition":
        """The trivial TD with one bag containing all vertices."""
        tree = RootedTree()
        tree.new_node(None, bag=frozenset(hypergraph.vertices))
        return cls(hypergraph, tree)

    # -- accessors ------------------------------------------------------------

    def bag(self, node: TreeNode) -> FrozenSet[Vertex]:
        return node.data["bag"]

    def bags(self) -> List[FrozenSet[Vertex]]:
        return [self.bag(node) for node in self.tree.nodes()]

    def nodes(self) -> List[TreeNode]:
        return self.tree.nodes()

    def subtree_vertices(self, node: TreeNode) -> FrozenSet[Vertex]:
        """``B(T_u)``: the union of bags in the subtree rooted at ``node``."""
        result = set()
        for descendant in self.tree.preorder(node):
            result.update(self.bag(descendant))
        return frozenset(result)

    def width(self) -> int:
        """``max |B(u)| - 1`` (the treewidth-style width of the TD)."""
        return max(len(bag) for bag in self.bags()) - 1

    # -- validity --------------------------------------------------------------

    def covers_all_edges(self) -> bool:
        bags = self.bags()
        return all(
            any(edge.vertices <= bag for bag in bags) for edge in self.hypergraph.edges
        )

    def satisfies_connectedness(self) -> bool:
        """Every vertex induces a non-empty connected subtree of bag nodes."""
        nodes = self.tree.nodes()
        occurrences: Dict[Vertex, List[TreeNode]] = {}
        for node in nodes:
            for v in self.bag(node):
                occurrences.setdefault(v, []).append(node)
        for vertex in self.hypergraph.vertices:
            holders = occurrences.get(vertex, [])
            if not holders:
                return False
            holder_ids = {node.node_id for node in holders}
            # The nodes containing `vertex` are connected iff every holder
            # except the shallowest has its parent also holding the vertex.
            top = min(holders, key=self.tree.depth)
            for node in holders:
                if node is top:
                    continue
                if node.parent is None or node.parent.node_id not in holder_ids:
                    return False
        return True

    def is_valid(self) -> bool:
        return self.covers_all_edges() and self.satisfies_connectedness()

    # -- structural predicates ---------------------------------------------------

    def is_component_normal_form(self) -> bool:
        """Check the CompNF condition of Definition 2.

        For each node ``u`` and child ``c`` there must be exactly one
        [B(u)]-component ``C_c`` with ``B(T_c) = ⋃C_c ∪ (B(u) ∩ B(c))``.
        """
        for node in self.tree.nodes():
            bag_u = self.bag(node)
            components = vertex_components(self.hypergraph, bag_u)
            for child in node.children:
                subtree = self.subtree_vertices(child)
                interface = bag_u & self.bag(child)
                matches = [
                    comp
                    for comp in components
                    if subtree == comp | interface
                ]
                if len(matches) != 1:
                    return False
        return True

    def uses_bags_from(self, candidate_bags: Iterable[FrozenSet[Vertex]]) -> bool:
        """``True`` iff every bag of the TD belongs to ``candidate_bags``."""
        allowed = {frozenset(bag) for bag in candidate_bags}
        return all(bag in allowed for bag in self.bags())

    # -- contraction ------------------------------------------------------------

    def contracted(self) -> "TreeDecomposition":
        """This decomposition with every subsumed node merged away.

        A node whose bag is contained in a neighbour's bag adds nothing: the
        tree edge between them is contracted and the neighbour (keeping its
        own payload) inherits the node's other neighbours.  Contracting an
        edge onto the larger bag keeps both TD conditions, so the result is
        a valid TD using only bags of ``self`` in which no bag is contained
        in a neighbouring one, and every bag of ``self`` lies in one of its
        bags.  Deterministic: candidates are visited in pre-order, merging
        into the qualifying neighbour of lowest node id, until nothing
        merges; the rebuilt tree is rooted at the first surviving pre-order
        node, children in ascending old id, new ids in pre-order.
        """
        nodes = self.tree.nodes()
        bags = {node.node_id: self.bag(node) for node in nodes}
        adjacent = {
            node.node_id: {child.node_id for child in node.children}
            | ({node.parent.node_id} if node.parent is not None else set())
            for node in nodes
        }
        merged = True
        while merged:
            merged = False
            for node in nodes:
                u = node.node_id
                host = next(
                    (v for v in sorted(adjacent.get(u, ())) if bags[u] <= bags[v]),
                    None,
                )
                if host is None:
                    continue
                for w in adjacent.pop(u):
                    adjacent[w].discard(u)
                    if w != host:
                        adjacent[w].add(host)
                        adjacent[host].add(w)
                merged = True
        by_id = {node.node_id: node for node in nodes}
        tree = RootedTree()
        root = next(node.node_id for node in nodes if node.node_id in adjacent)
        # (old id, old id of the neighbour it was reached from, new parent)
        stack: List[Tuple[int, Optional[int], Optional[TreeNode]]] = [
            (root, None, None)
        ]
        while stack:
            u, origin, parent = stack.pop()
            copy = tree.new_node(parent, **by_id[u].data)
            stack.extend(
                (v, u, copy) for v in sorted(adjacent[u], reverse=True) if v != origin
            )
        return type(self)(self.hypergraph, tree)

    # -- misc -----------------------------------------------------------------

    def bag_multiset(self) -> Tuple[FrozenSet[Vertex], ...]:
        """The bags sorted canonically; useful for deduplicating decompositions."""
        return tuple(sorted(self.bags(), key=lambda bag: sorted(map(str, bag))))

    def canonical_form(self) -> Tuple:
        """A hashable canonical encoding of the decomposition tree.

        Two decompositions get the same canonical form iff they are equal as
        unordered rooted trees of bags.  Used to deduplicate enumerated CTDs.
        """

        def encode(node: TreeNode) -> Tuple:
            children = tuple(sorted(encode(child) for child in node.children))
            bag = tuple(sorted(map(str, self.bag(node))))
            return (bag, children)

        return encode(self.tree.root)

    def __repr__(self) -> str:
        return (
            f"TreeDecomposition(nodes={self.tree.num_nodes()}, "
            f"width={self.width()})"
        )
