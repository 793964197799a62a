"""α-acyclicity, GYO reduction and join trees.

α-acyclic hypergraphs are exactly the hypergraphs of hypertree width 1 and
the queries for which Yannakakis' algorithm applies directly.  The GYO
(Graham / Yu–Özsoyoğlu) reduction repeatedly removes *ears*; the hypergraph
is α-acyclic iff the reduction ends with a single empty edge set.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.hypergraph.hypergraph import Hypergraph, Vertex
from repro.decompositions.td import TreeDecomposition
from repro.decompositions.tree import RootedTree, TreeNode


def gyo_reduction(hypergraph: Hypergraph) -> List[FrozenSet[Vertex]]:
    """Run the GYO reduction and return the remaining edge vertex sets.

    An empty result means the hypergraph is α-acyclic.  Edges that become
    empty or duplicates during the reduction are dropped.
    """
    edges = list(dict.fromkeys(edge.vertices for edge in hypergraph.edges))
    changed = True
    while changed:
        changed = False
        # Remove vertices that occur in exactly one edge.
        occurrence: Dict[Vertex, int] = {}
        for edge in edges:
            for v in edge:
                occurrence[v] = occurrence.get(v, 0) + 1
        reduced = []
        for edge in edges:
            new_edge = frozenset(v for v in edge if occurrence[v] > 1)
            if new_edge != edge:
                changed = True
            reduced.append(new_edge)
        edges = [e for e in reduced if e]
        # Remove edges contained in another edge (ears).  Equal edges must
        # not eliminate each other (both being "contained" in the other), so
        # among duplicates only the first occurrence survives.
        kept: List[FrozenSet[Vertex]] = []
        for i, edge in enumerate(edges):
            contained = any(
                edge < other or (edge == other and j < i)
                for j, other in enumerate(edges)
                if i != j
            )
            if contained:
                changed = True
            else:
                kept.append(edge)
        # Deduplicate while preserving order.
        seen = set()
        edges = []
        for edge in kept:
            if edge not in seen:
                seen.add(edge)
                edges.append(edge)
    return edges


def is_alpha_acyclic(hypergraph: Hypergraph) -> bool:
    """``True`` iff the hypergraph is α-acyclic (GYO reduces to nothing)."""
    return not gyo_reduction(hypergraph)


def join_tree(hypergraph: Hypergraph) -> Optional[TreeDecomposition]:
    """A join tree of an α-acyclic hypergraph, or ``None`` if it is cyclic.

    The join tree is returned as a tree decomposition whose bags are exactly
    the hyperedges (every bag single-edge covered), which is what the
    Yannakakis executor consumes.
    """
    if not is_alpha_acyclic(hypergraph):
        return None
    # Maximum-weight spanning tree on the edge intersection graph gives a
    # join tree for acyclic hypergraphs (standard construction).
    edges = list(hypergraph.edges)
    if not edges:
        return None
    in_tree = {0}
    parents: Dict[int, Optional[int]] = {0: None}
    while len(in_tree) < len(edges):
        best: Optional[Tuple[int, int, int]] = None
        for i in in_tree:
            for j, other in enumerate(edges):
                if j in in_tree:
                    continue
                weight = len(edges[i].vertices & other.vertices)
                if best is None or weight > best[0]:
                    best = (weight, i, j)
        assert best is not None
        _, i, j = best
        in_tree.add(j)
        parents[j] = i
    tree = RootedTree()
    nodes: Dict[int, TreeNode] = {}
    # Build parents before children (BFS over the parent map).
    remaining = set(parents)
    while remaining:
        for idx in sorted(remaining):
            parent_idx = parents[idx]
            if parent_idx is None:
                nodes[idx] = tree.new_node(None, bag=edges[idx].vertices, edge=edges[idx])
                remaining.discard(idx)
            elif parent_idx in nodes:
                nodes[idx] = tree.new_node(
                    nodes[parent_idx], bag=edges[idx].vertices, edge=edges[idx]
                )
                remaining.discard(idx)
    return TreeDecomposition(hypergraph, tree)
