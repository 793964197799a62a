"""Independent certification of candidate tree decompositions.

A decomposition that crosses a trust boundary — produced by a worker
process, read back from a batch ledger, returned by a budget-degraded
anytime solve — must not be believed on the solver's say-so.
:func:`certify_ctd` is an independent checker, deliberately *not* built on
:meth:`TreeDecomposition.is_valid`: it re-derives every property over the
hypergraph's bitset kernel in its own loops, in time linear in the size of
the result (``O(#nodes · #edges)`` mask operations), so a bug in the
solver stack and a bug in the checker would have to coincide for a wrong
decomposition to be accepted.

Checked properties:

1. **shape** — every node carries a bag of known vertices;
2. **edge cover** — every hyperedge is contained in some bag;
3. **connectedness** (running intersection) — for every vertex, the nodes
   whose bags contain it form one non-empty connected subtree;
4. **constraint satisfaction** — ``constraint.holds_recursively`` when a
   constraint is claimed.  ConCov is bag-local, so for it this is one
   connected-cover test per bag on the hypergraph's cover kernel
   (:meth:`~repro.hypergraph.bitset.HypergraphBitsets.has_connected_cover`),
   not a subtree copy per node;
5. **claimed width** — every bag has an edge cover of size at most
   ``width_claim``, decided by
   :meth:`~repro.hypergraph.bitset.HypergraphBitsets.has_cover` on the bag
   masks step 1 built (a bag naming an unknown vertex has no cover).  For
   soft decompositions this is the Theorem 2 necessary condition (every
   bag of a width-``k`` soft decomposition is covered by ≤ k edges); full
   ``Soft_{H,k}`` membership would require regenerating the candidate-bag
   set and is a solve, not a check.

The module also owns the process-boundary wire format for decompositions
(:func:`decomposition_to_payload` / :func:`decomposition_from_payload`):
plain JSON-able dicts of bags in pre-order plus parent indices, so a
worker's result can be shipped through a pipe or a JSONL ledger and
reconstructed — then certified — on the trusted side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.hypergraph.hypergraph import Hypergraph
from repro.decompositions.td import TreeDecomposition
from repro.core.constraints import SubtreeConstraint

__all__ = [
    "Certification",
    "certify_ctd",
    "decomposition_to_payload",
    "decomposition_from_payload",
]


@dataclass(frozen=True)
class Certification:
    """The checker's verdict: ``ok`` plus every violation found.

    All checks run even after the first failure, so a quarantined result's
    ledger record names everything wrong with it, not just the first thing.
    """

    ok: bool
    violations: Tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "certified"
        return "; ".join(self.violations)


def certify_ctd(
    hypergraph: Hypergraph,
    ctd: TreeDecomposition,
    constraint: Optional[SubtreeConstraint] = None,
    width_claim: Optional[int] = None,
) -> Certification:
    """Independently check that ``ctd`` is a valid decomposition of ``hypergraph``.

    Returns a :class:`Certification`; never raises on a malformed
    decomposition — malformation is exactly what it exists to report.
    """
    violations: List[str] = []
    indexer = hypergraph.bitsets.indexer

    # 1. Shape: a rooted tree whose every node carries a bag of known
    # vertices.  A mask is only built from vertices the indexer knows, so
    # everything downstream works on trusted masks.
    if not ctd.tree.has_root():
        return Certification(False, ("decomposition tree has no root",))
    nodes = ctd.tree.nodes()
    bag_masks: Dict[int, int] = {}
    # Nodes whose bag names a vertex the hypergraph lacks: no cover exists.
    foreign: Set[int] = set()
    for node in nodes:
        bag = node.data.get("bag")
        if bag is None:
            violations.append(f"node {node.node_id} has no bag")
            bag_masks[node.node_id] = 0
            continue
        mask = 0
        for vertex in bag:
            if vertex not in indexer:
                violations.append(
                    f"node {node.node_id} bag contains unknown vertex {vertex!r}"
                )
                foreign.add(node.node_id)
            else:
                mask |= 1 << indexer.bit(vertex)
        bag_masks[node.node_id] = mask

    # 2. Edge cover: every hyperedge fits inside some bag.
    masks = list(bag_masks.values())
    for edge, edge_mask in zip(hypergraph.edges, hypergraph.bitsets.edge_masks):
        if not any(edge_mask & ~mask == 0 for mask in masks):
            violations.append(f"edge {edge.name} is covered by no bag")

    # 3. Connectedness: the holders of each vertex form one non-empty
    # connected subtree.  With a rooted tree that is equivalent to: every
    # holder except the unique shallowest one has a holding parent.
    # Pre-order lists parents before children, so one pass computes depths.
    depth: Dict[int, int] = {}
    for node in nodes:
        depth[node.node_id] = (
            depth[node.parent.node_id] + 1 if node.parent is not None else 0
        )
    for bit, vertex in enumerate(indexer):
        vertex_bit = 1 << bit
        holders = [node for node in nodes if bag_masks[node.node_id] & vertex_bit]
        if not holders:
            violations.append(f"vertex {vertex!r} appears in no bag")
            continue
        top = min(holders, key=lambda node: depth[node.node_id])
        for node in holders:
            if node is top:
                continue
            parent = node.parent
            if parent is None or not bag_masks.get(parent.node_id, 0) & vertex_bit:
                violations.append(
                    f"vertex {vertex!r} induces a disconnected subtree "
                    f"(node {node.node_id} holds it, its parent does not)"
                )
                break

    # 4. Constraint satisfaction, when one is claimed.  A constraint that
    # blows up on a malformed decomposition counts as a violation, not as
    # a checker crash.
    if constraint is not None and not constraint.trivial:
        try:
            if not constraint.holds_recursively(ctd):
                violations.append("claimed constraint does not hold")
        except Exception as exc:
            violations.append(f"constraint check failed: {exc}")

    # 5. Claimed width: every bag has an edge cover of size <= width_claim
    # (Theorem 2's necessary condition for soft width-k).
    if width_claim is not None:
        has_cover = hypergraph.bitsets.has_cover
        for node in nodes:
            bag = node.data.get("bag")
            if not bag:
                continue
            if node.node_id in foreign or not has_cover(
                bag_masks[node.node_id], width_claim
            ):
                violations.append(
                    f"bag {sorted(map(str, bag))} has no edge cover of size "
                    f"<= {width_claim}"
                )

    return Certification(not violations, tuple(violations))


# -- process-boundary wire format -------------------------------------------


def decomposition_to_payload(ctd: TreeDecomposition) -> Dict[str, object]:
    """Serialise a decomposition as a JSON-able dict.

    Bags are listed in pre-order with string-sorted vertices and
    ``parents[i]`` is the pre-order index of bag ``i``'s parent (``None``
    for the root), so the payload is deterministic for a given tree and
    feeds straight into :meth:`TreeDecomposition.from_bags`.
    """
    nodes = ctd.tree.nodes()
    index = {node.node_id: i for i, node in enumerate(nodes)}
    return {
        "bags": [sorted(ctd.bag(node), key=str) for node in nodes],
        "parents": [
            index[node.parent.node_id] if node.parent is not None else None
            for node in nodes
        ],
    }


def decomposition_from_payload(
    hypergraph: Hypergraph, payload: object
) -> TreeDecomposition:
    """Reconstruct a decomposition from its wire payload.

    Raises :class:`ValueError` on any malformed payload — wrong types,
    mismatched lengths, a parent index pointing forward or out of range —
    because a garbage payload from an untrusted worker must become a
    structured ``invalid_result``, never an arbitrary crash.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"decomposition payload is not a dict: {type(payload).__name__}")
    bags = payload.get("bags")
    parents = payload.get("parents")
    if not isinstance(bags, list) or not isinstance(parents, list):
        raise ValueError("decomposition payload misses 'bags'/'parents' lists")
    if len(bags) != len(parents) or not bags:
        raise ValueError(
            f"decomposition payload has {len(bags)} bags but {len(parents)} parents"
        )
    for i, (bag, parent) in enumerate(zip(bags, parents)):
        if not isinstance(bag, (list, tuple, set, frozenset)):
            raise ValueError(f"bag {i} is not a vertex list")
        if i == 0:
            if parent is not None:
                raise ValueError("first bag must be the root (parent None)")
        elif not isinstance(parent, int) or not 0 <= parent < i:
            raise ValueError(f"bag {i} has invalid parent {parent!r}")
    return TreeDecomposition.from_bags(hypergraph, bags, parents)
