"""Generalised hypertree width for small hypergraphs.

Deciding ``ghw(H) ≤ k`` is NP-complete even for ``k = 2``, so there is no
polynomial algorithm to implement.  For the small hypergraphs used in the
paper's examples and the benchmark queries, we exploit Theorem 7 of the
paper: ``ghw(H) = shw_∞(H)``.  We iterate the candidate-bag construction to
its fixpoint (Lemma 6 bounds the number of iterations) and run the
CandidateTD solver.  A ``max_subedges`` cap keeps the computation bounded on
larger inputs; when the cap is hit, the result is an upper bound on ``ghw``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.hypergraph.hypergraph import Hypergraph
from repro.decompositions.td import TreeDecomposition
from repro.core.candidate_bags import SoftBagGenerator
from repro.core.ctd import candidate_td
from repro.baselines.acyclic import is_alpha_acyclic


def ghw_leq(
    hypergraph: Hypergraph,
    k: int,
    max_iterations: Optional[int] = None,
    max_subedges: Optional[int] = 20000,
) -> Optional[TreeDecomposition]:
    """A width-``k`` GHD-style decomposition (as a CTD), or ``None``.

    Exact for hypergraphs small enough that the subedge fixpoint is reached
    within the caps; otherwise the check is sound but not complete (``None``
    does not prove ``ghw > k``).
    """
    if k < 1:
        return None
    if k == 1:
        if not is_alpha_acyclic(hypergraph):
            return None
    generator = SoftBagGenerator(hypergraph, k, max_subedges=max_subedges)
    limit = max_iterations
    if limit is None:
        limit = 3 * max(hypergraph.num_vertices(), hypergraph.num_edges())
    bags = generator.fixpoint_candidate_bags(max_level=limit)
    return candidate_td(hypergraph, bags)


def generalized_hypertree_width(
    hypergraph: Hypergraph,
    max_k: Optional[int] = None,
    max_subedges: Optional[int] = 20000,
) -> Tuple[int, TreeDecomposition]:
    """``ghw(H)`` (for small hypergraphs) with a witnessing decomposition."""
    limit = max_k if max_k is not None else max(1, hypergraph.num_edges())
    for k in range(1, limit + 1):
        decomposition = ghw_leq(hypergraph, k, max_subedges=max_subedges)
        if decomposition is not None:
            return k, decomposition
    raise ValueError(f"generalised hypertree width exceeds {limit}")
