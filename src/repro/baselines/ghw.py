"""Generalised hypertree width for small hypergraphs.

Deciding ``ghw(H) ≤ k`` is NP-complete even for ``k = 2``, so there is no
polynomial algorithm to implement.  For the small hypergraphs used in the
paper's examples and the benchmark queries, we exploit Theorem 7 of the
paper: ``ghw(H) = shw_∞(H)``.  Lemma 6 bounds the number of iterations
before ``Soft^i_{H,k}`` reaches its fixpoint, so ghw is the soft width at
that iteration count (:func:`ghw_iterations`), asked through the one solve
door (:mod:`repro.core.soft`).  The answer is exact; the candidate-bag
generator stops iterating at the fixpoint by itself.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.hypergraph.hypergraph import Hypergraph
from repro.decompositions.td import TreeDecomposition
from repro.core.soft import shw_leq, soft_hypertree_width


def ghw_iterations(hypergraph: Hypergraph) -> int:
    """The Lemma 6 iteration count ``3·max(|V|, |E|)`` at which ``shw_i = ghw``."""
    return 3 * max(hypergraph.num_vertices(), hypergraph.num_edges())


def ghw_leq(hypergraph: Hypergraph, k: int) -> Optional[TreeDecomposition]:
    """A width-``k`` GHD-style decomposition (as a CTD), or ``None``."""
    return shw_leq(hypergraph, k, iterations=ghw_iterations(hypergraph))


def generalized_hypertree_width(
    hypergraph: Hypergraph, max_k: Optional[int] = None
) -> Tuple[int, TreeDecomposition]:
    """``ghw(H)`` (for small hypergraphs) with a witnessing decomposition."""
    return soft_hypertree_width(
        hypergraph, max_k, iterations=ghw_iterations(hypergraph)
    )
