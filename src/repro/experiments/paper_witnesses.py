"""Explicit witness decompositions transcribed from the paper's figures.

These are the concrete decompositions the paper exhibits:

* Figure 1b — a width-2 soft hypertree decomposition of ``H2``;
* Figure 9 — a width-3 soft hypertree decomposition of ``H3``.

Having them as code lets the tests verify the paper's width claims without
running the (for ``H3`` expensive) full candidate-bag search: validity of the
tree decomposition, bag cover numbers, and membership of selected bags in
``Soft_{H,k}`` via the λ-witnesses spelled out in the paper's text.
"""

from __future__ import annotations

from typing import List

from repro.hypergraph.hypergraph import Hypergraph
from repro.decompositions.td import TreeDecomposition

_G = ["g11", "g12", "g21", "g22"]
_H = ["h11", "h12", "h21", "h22"]


def h2_soft_decomposition(hypergraph: Hypergraph) -> TreeDecomposition:
    """The width-2 soft hypertree decomposition of ``H2`` from Figure 1b."""
    bags = [
        {"2", "6", "7", "a", "b"},
        {"2", "5", "6", "a", "b"},
        {"2", "3", "4", "5", "a", "b"},
        {"1", "2", "7", "8", "a", "b"},
    ]
    parent_of = [None, 0, 1, 0]
    return TreeDecomposition.from_bags(hypergraph, bags, parent_of)


def h3_soft_decomposition(hypergraph: Hypergraph) -> TreeDecomposition:
    """The width-3 soft hypertree decomposition of ``H3`` from Figure 9.

    Every bag is ``G ∪ H`` plus a few of the cycle vertices; primed vertices
    use the ``p`` suffix of :func:`repro.hypergraph.library.hypergraph_h3`.
    """
    gh = _G + _H
    bags = [
        set(gh + ["3", "0p", "0"]),
        set(gh + ["3", "0", "1"]),
        set(gh + ["3", "1", "2"]),
        set(gh + ["4", "2"]),
        set(gh + ["3p", "0p", "1p"]),
        set(gh + ["3p", "1p", "2p"]),
        set(gh + ["3p", "2p", "4p"]),
    ]
    parent_of = [None, 0, 1, 2, 0, 4, 5]
    return TreeDecomposition.from_bags(hypergraph, bags, parent_of)


def h2_bag_witnesses() -> List[dict]:
    """The λ-witnesses of Example 1 for the non-trivial bags of Figure 1b.

    Each entry gives a bag of the decomposition together with ``λ1``/``λ2``
    (edge names of :func:`repro.hypergraph.library.hypergraph_h2`) such that
    the bag equals ``(⋃λ1) ∩ (⋃C)`` for the single [λ2]-component ``C``.
    """
    return [
        {
            "bag": frozenset({"2", "6", "7", "a", "b"}),
            "lambda1": ("e23b", "e67a"),
            "lambda2": ("e34", "e23b"),
        },
        {
            "bag": frozenset({"2", "5", "6", "a", "b"}),
            "lambda1": ("e12a", "e56b"),
            "lambda2": ("e18", "e12a"),
        },
    ]


def h3_bag_witnesses() -> List[dict]:
    """The λ-witnesses spelled out in Appendix A.2 for two bags of Figure 9."""
    gh = frozenset(_G + _H)
    return [
        {
            # Root bag G ∪ H ∪ {3, 0', 0}: cover by the two horizontal edges
            # plus {0,0'}; separate 4' with the same two edges plus {4',2'}.
            "bag": gh | {"3", "0p", "0"},
            "lambda1": ("hor1", "hor2", "e00p"),
            "lambda2": ("hor1", "hor2", "e2p4p"),
        },
        {
            # Bag G ∪ H ∪ {2, 4}: cover by the two vertical edges plus {2,4};
            # λ2 = the two horizontal edges plus {0',1'} splits H3 into two
            # components, and the one containing 0 yields the bag.
            "bag": gh | {"2", "4"},
            "lambda1": ("vert1", "vert2", "e24"),
            "lambda2": ("hor1", "hor2", "e0p1p"),
        },
    ]
