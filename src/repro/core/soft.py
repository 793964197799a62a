"""Soft hypertree width (Definition 4) and its iterated hierarchy (Definition 6).

``shw(H)`` is the least ``k`` such that a candidate tree decomposition exists
for ``Soft_{H,k}``; ``shw_i(H)`` uses the iterated candidate bags
``Soft^i_{H,k}``.  Deciding ``shw_i(H) ≤ k`` for fixed ``i`` and ``k`` is
polynomial (Theorems 1 and 5).

:func:`shw_leq` and :func:`soft_hypertree_width` are library shorthands for
one :func:`repro.core.solve.execute` call each, without a cache (so they
write nothing to disk).  The ``k`` search is the solve door's
``soft-width`` mode, and a constrained or preference-ranked question
(Section 6) is a :class:`~repro.core.solve.SolveRequest` naming its
constraint and preference (``"concov"``, ``"shallowcyc:<d>"``, ...).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.hypergraph.hypergraph import Hypergraph
from repro.decompositions.td import TreeDecomposition
from repro.decompositions.ghd import GeneralizedHypertreeDecomposition
from repro.core.candidate_bags import SoftBagGenerator
from repro.core.solve import SolveRequest, execute
from repro.runtime.budget import Budget


def shw_leq(
    hypergraph: Hypergraph, k: int, iterations: int = 0
) -> Optional[TreeDecomposition]:
    """Decide ``shw_i(H) ≤ k`` (``i = iterations``) and return a witness or ``None``.

    The witness is a CompNF CTD over ``Soft^i_{H,k}``.  Raises
    ``ValueError`` for ``k < 1``.
    """
    request = SolveRequest(
        hypergraph=hypergraph, mode="decide", width=k, iterations=iterations
    )
    return execute(request, cache=None).decomposition


def soft_hypertree_width(
    hypergraph: Hypergraph,
    max_k: Optional[int] = None,
    iterations: int = 0,
    budget: Optional[Budget] = None,
) -> Tuple[int, TreeDecomposition]:
    """``shw_i(H)`` (default ``i = 0``) together with a witnessing decomposition.

    Searches ``k = 1, 2, ...`` up to ``max_k`` (default: the number of edges,
    for which the single-bag decomposition always works on connected
    hypergraphs).  Raises ``ValueError`` if no decomposition is found within
    the bound.  One ``budget`` spans the whole search; an exhausted budget
    ends it early with the same ``ValueError`` (no width proven), which the
    caller can tell apart via ``budget.status``.
    """
    request = SolveRequest(
        hypergraph=hypergraph, mode="soft-width", width=max_k, iterations=iterations
    )
    result = execute(request, cache=None, budget=budget)
    if not result.decided:
        limit = max_k if max_k is not None else max(1, hypergraph.num_edges())
        raise ValueError(f"no soft decomposition of width <= {limit} found")
    return int(result.width), result.decompositions[0]  # type: ignore[arg-type]


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
