"""Fractional edge covers and fractional hypertree width bounds.

``ρ*(B)`` — the fractional edge cover number of a vertex set ``B`` — is the
optimum of the LP ``min Σ x_e`` subject to ``Σ_{e ∋ v} x_e ≥ 1`` for every
``v ∈ B`` and ``x ≥ 0``.  The fractional hypertree width of a decomposition
is the maximum ``ρ*`` over its bags; ``fhw(H)`` is the minimum over all
decompositions.  Computing ``fhw`` exactly is intractable; the paper only
needs the hierarchy ``fhw ≤ ghw ≤ shw ≤ hw``, which we can exhibit by
evaluating ``ρ*`` on the bags of the decompositions the other algorithms
produce.

The LP is solved with ``scipy.optimize.linprog`` when SciPy is importable.
Without SciPy the fallback returns the integral edge cover number ``ρ(B)``,
which is an upper bound on ``ρ*(B)``, not ``ρ*`` itself; the module works in
minimal environments, but its numbers there are upper bounds only.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional

from repro.hypergraph.hypergraph import Hypergraph, Vertex
from repro.decompositions.td import TreeDecomposition


def fractional_cover_number(
    hypergraph: Hypergraph, bag: Iterable[Vertex]
) -> float:
    """``ρ*(bag)``: the fractional edge cover number of the bag."""
    bag_set = frozenset(bag)
    if not bag_set:
        return 0.0
    relevant = [e for e in hypergraph.edges if e.vertices & bag_set]
    if not relevant:
        raise ValueError("bag contains vertices not covered by any edge")
    vertices = sorted(map(str, bag_set))
    vertex_index = {v: i for i, v in enumerate(vertices)}
    try:
        return _lp_cover(relevant, bag_set, vertex_index)
    except ImportError:
        return _integral_cover_number(hypergraph, bag_set)


def _lp_cover(relevant, bag_set, vertex_index) -> float:
    from scipy.optimize import linprog

    num_edges = len(relevant)
    num_vertices = len(vertex_index)
    # Minimise sum(x_e) s.t. for each vertex v in bag: sum_{e: v in e} x_e >= 1.
    c = [1.0] * num_edges
    a_ub = [[0.0] * num_edges for _ in range(num_vertices)]
    for j, edge in enumerate(relevant):
        for v in edge.vertices & bag_set:
            a_ub[vertex_index[str(v)]][j] = -1.0
    b_ub = [-1.0] * num_vertices
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(0, None)] * num_edges, method="highs")
    if not result.success:
        raise RuntimeError(f"LP for fractional cover failed: {result.message}")
    return float(result.fun)


def _integral_cover_number(hypergraph: Hypergraph, bag_set: FrozenSet[Vertex]) -> float:
    """Fallback: the integral edge cover number ``ρ(B)``, an upper bound on ρ*."""
    from repro.core.covers import minimum_edge_cover

    cover = minimum_edge_cover(hypergraph, bag_set)
    if cover is None:
        raise ValueError("bag has no edge cover")
    return float(len(cover))


def fhw_upper_bound(decomposition: TreeDecomposition) -> float:
    """The fractional width of a decomposition: ``max_u ρ*(B_u)``.

    This is an upper bound on ``fhw`` of the underlying hypergraph.
    """
    return max(
        fractional_cover_number(decomposition.hypergraph, bag)
        for bag in decomposition.bags()
    )
