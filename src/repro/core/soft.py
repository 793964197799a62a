"""Soft hypertree width (Definition 4) and its iterated hierarchy (Definition 6).

``shw(H)`` is the least ``k`` such that a candidate tree decomposition exists
for ``Soft_{H,k}``; ``shw_i(H)`` uses the iterated candidate bags
``Soft^i_{H,k}``.  Deciding ``shw_i(H) ≤ k`` for fixed ``i`` and ``k`` is
polynomial (Theorems 1 and 5); the functions here combine candidate bag
generation with the CandidateTD solvers and, optionally, with constraints and
preferences (Section 6).

Every route runs the one block dynamic program of Algorithm 2
(:mod:`repro.core.constrained`) on the bitset kernel, resolving blocks
top-down from the root; without a constraint or preference it is
Algorithm 1, which stops at each block's first basis.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.hypergraph.hypergraph import Hypergraph
from repro.decompositions.td import TreeDecomposition
from repro.decompositions.ghd import GeneralizedHypertreeDecomposition
from repro.core.candidate_bags import SoftBagGenerator, soft_candidate_bags
from repro.core.constrained import constrained_candidate_td
from repro.core.constraints import SubtreeConstraint
from repro.core.preferences import Preference
from repro.runtime.budget import Budget


def shw_leq(
    hypergraph: Hypergraph,
    k: int,
    constraint: Optional[SubtreeConstraint] = None,
    preference: Optional[Preference] = None,
    budget: Optional[Budget] = None,
) -> Optional[TreeDecomposition]:
    """Decide ``shw(H) ≤ k`` (or the constrained variant ``𝒞-shw(H) ≤ k``).

    Returns a witnessing soft hypertree decomposition (a CompNF CTD over
    ``Soft_{H,k}``) or ``None``; with a preference, a ≤-minimal one.
    """
    return shw_i_leq(
        hypergraph,
        k,
        iterations=0,
        constraint=constraint,
        preference=preference,
        budget=budget,
    )


def shw_i_leq(
    hypergraph: Hypergraph,
    k: int,
    iterations: int,
    constraint: Optional[SubtreeConstraint] = None,
    preference: Optional[Preference] = None,
    max_subedges: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> Optional[TreeDecomposition]:
    """Decide ``shw_i(H) ≤ k`` and return a witnessing decomposition or ``None``.

    ``max_subedges`` caps the iterated subedge sets (see
    :class:`repro.core.candidate_bags.SoftBagGenerator`); when the cap kicks
    in the answer remains sound for "yes" instances (any returned
    decomposition is a valid width-k soft decomposition of order ``i``) but a
    ``None`` result no longer proves ``shw_i(H) > k``.

    A ``budget`` governs candidate-bag generation and the block DP
    with the same one-sided soundness: a decomposition returned by an
    exhausted run is still a valid witness, a ``None`` is inconclusive
    (``budget.status`` distinguishes the cases).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    generator = SoftBagGenerator(hypergraph, k, max_subedges=max_subedges, budget=budget)
    bags = generator.candidate_bags(iterations)
    return constrained_candidate_td(
        hypergraph, bags, constraint, preference, budget=budget
    )


def soft_hypertree_width(
    hypergraph: Hypergraph,
    max_k: Optional[int] = None,
    iterations: int = 0,
    constraint: Optional[SubtreeConstraint] = None,
    preference: Optional[Preference] = None,
    budget: Optional[Budget] = None,
) -> Tuple[int, TreeDecomposition]:
    """``shw_i(H)`` (default ``i = 0``) together with a witnessing decomposition.

    Searches ``k = 1, 2, ...`` up to ``max_k`` (default: the number of edges,
    for which the single-bag decomposition always works on connected
    hypergraphs).  Raises ``ValueError`` if no decomposition is found within
    the bound — with a constraint this can genuinely happen.  One ``budget``
    spans the whole search; an exhausted budget ends it early with the same
    ``ValueError`` (no width proven), which the caller can tell apart via
    ``budget.status``.
    """
    limit = max_k if max_k is not None else max(1, hypergraph.num_edges())
    for k in range(1, limit + 1):
        if budget is not None and budget.exhausted:
            break
        decomposition = shw_i_leq(
            hypergraph,
            k,
            iterations,
            constraint=constraint,
            preference=preference,
            budget=budget,
        )
        if decomposition is not None:
            return k, decomposition
    raise ValueError(f"no soft decomposition of width <= {limit} found")


def soft_decomposition_to_ghd(
    decomposition: TreeDecomposition,
) -> GeneralizedHypertreeDecomposition:
    """Attach minimum edge covers to a soft decomposition's bags.

    Every bag of a width-``k`` soft decomposition is covered by at most ``k``
    hyperedges (Theorem 2), so the resulting GHD has width at most ``k``.
    """
    from repro.core.covers import minimum_edge_cover

    hypergraph = decomposition.hypergraph

    def transform(node):
        bag = node.data["bag"]
        cover = minimum_edge_cover(hypergraph, bag)
        if cover is None:
            raise ValueError(f"bag {sorted(map(str, bag))} has no edge cover")
        return {"bag": bag, "cover": tuple(cover)}

    return GeneralizedHypertreeDecomposition(
        hypergraph, decomposition.tree.map_tree(transform)
    )


def certify_soft_decomposition(
    hypergraph: Hypergraph, decomposition: TreeDecomposition, k: int, iterations: int = 0
) -> bool:
    """Check that ``decomposition`` witnesses ``shw_i(H) ≤ k``.

    The decomposition must be a valid tree decomposition of ``H`` and all its
    bags must belong to ``Soft^i_{H,k}``.
    """
    if decomposition.hypergraph != hypergraph:
        return False
    if not decomposition.is_valid():
        return False
    generator = SoftBagGenerator(hypergraph, k)
    bags = generator.candidate_bags(iterations)
    return decomposition.uses_bags_from(bags)
