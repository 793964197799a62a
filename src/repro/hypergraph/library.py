"""Named hypergraphs used in the paper.

The functions in this module construct, from scratch, the concrete
hypergraphs discussed in the paper:

* :func:`hypergraph_h2` — the hypergraph ``H2`` of Example 1 / Figure 1 with
  ``ghw = shw = 2`` and ``hw = 3``;
* :func:`hypergraph_h3` — the hypergraph ``H3`` of Appendix A.2 / Figure 8
  with ``ghw = shw = 3`` and ``hw = 4``;
* :func:`hypergraph_h3_prime` — the modified hypergraph ``H3'`` of Example 2 /
  Figure 2 (``H3`` plus the edge ``{3', 4'}``) with ``ghw = shw1 = 3`` and
  ``shw = hw = 4``;
* :func:`hypergraph_bog_star` — a member of the ``H*_BOG`` family sketched in
  Appendix B.2 (see the docstring for the substitutions made);
* small standard shapes: cycles, triangles, grids, the 4-cycle query of
  Example 3 and the partitioned query of Example 4.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.hypergraph.hypergraph import Hypergraph


def triangle_hypergraph() -> Hypergraph:
    """The triangle query ``R(x,y), S(y,z), T(z,x)`` (hw = ghw = shw = 2)."""
    return Hypergraph({"R": ["x", "y"], "S": ["y", "z"], "T": ["z", "x"]})


def cycle_hypergraph(length: int) -> Hypergraph:
    """The ``length``-cycle with binary edges ``e_i = {v_i, v_{i+1 mod n}}``."""
    if length < 3:
        raise ValueError("cycle length must be at least 3")
    return Hypergraph(
        {f"e{i}": [f"v{i}", f"v{(i + 1) % length}"] for i in range(length)}
    )


def four_cycle_query() -> Hypergraph:
    """Example 3: ``R(w,x), S(x,y), T(y,z), U(z,w)`` (hw = 2)."""
    return Hypergraph(
        {"R": ["w", "x"], "S": ["x", "y"], "T": ["y", "z"], "U": ["z", "w"]}
    )


def example4_query() -> Tuple[Hypergraph, Dict[str, str]]:
    """Example 4: the 6-atom query and its vertical partitioning.

    Returns the hypergraph and a map ``edge name -> partition`` (relations
    ``R, U, V`` live on partition ``"p1"``, relations ``S, T, W`` on ``"p2"``).
    """
    hypergraph = Hypergraph(
        {
            "R": ["v1", "v2"],
            "S": ["v2", "v4"],
            "T": ["v3", "v4"],
            "U": ["v1", "v3"],
            "V": ["v1", "v5"],
            "W": ["v4", "v6"],
        }
    )
    partition = {"R": "p1", "U": "p1", "V": "p1", "S": "p2", "T": "p2", "W": "p2"}
    return hypergraph, partition


def grid_hypergraph(rows: int, cols: int) -> Hypergraph:
    """A ``rows × cols`` grid graph viewed as a hypergraph of binary edges."""
    edges = {}
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges[f"h{r}_{c}"] = [f"v{r}_{c}", f"v{r}_{c + 1}"]
            if r + 1 < rows:
                edges[f"w{r}_{c}"] = [f"v{r}_{c}", f"v{r + 1}_{c}"]
    return Hypergraph(edges)


def hypergraph_h2() -> Hypergraph:
    """The hypergraph ``H2`` from Example 1 (Figure 1a).

    Vertices ``1..8, a, b``; edges ``{1,8}, {3,4}, {1,2,a}, {4,5,a}, {6,7,a},
    {2,3,b}, {5,6,b}, {7,8,b}``.  It satisfies ``ghw = shw = 2`` and
    ``hw = 3``.
    """
    return Hypergraph(
        {
            "e18": ["1", "8"],
            "e34": ["3", "4"],
            "e12a": ["1", "2", "a"],
            "e45a": ["4", "5", "a"],
            "e67a": ["6", "7", "a"],
            "e23b": ["2", "3", "b"],
            "e56b": ["5", "6", "b"],
            "e78b": ["7", "8", "b"],
        }
    )


_H3_G = ("g11", "g12", "g21", "g22")
_H3_H = ("h11", "h12", "h21", "h22")
_H3_V = ("0", "1", "2", "3", "4", "0p", "1p", "2p", "3p", "4p")


def _h3_edges(include_3p4p: bool) -> Dict[str, List[str]]:
    """Shared edge construction for ``H3`` and ``H3'``.

    Primed vertices are written with a ``p`` suffix (``0p`` for ``0'``).
    """
    edges: Dict[str, List[str]] = {}
    for w in _H3_G + _H3_H:
        for v in _H3_V:
            edges[f"pin_{w}_{v}"] = [w, v]
    edges["e24"] = ["2", "4"]
    edges["e2p4p"] = ["2p", "4p"]
    edges["e00p"] = ["0", "0p"]
    edges["e01"] = ["0", "1"]
    edges["e12"] = ["1", "2"]
    edges["e03"] = ["0", "3"]
    edges["e23"] = ["2", "3"]
    edges["e0p1p"] = ["0p", "1p"]
    edges["e1p2p"] = ["1p", "2p"]
    edges["e0p3p"] = ["0p", "3p"]
    edges["e2p3p"] = ["2p", "3p"]
    if include_3p4p:
        edges["e3p4p"] = ["3p", "4p"]
    edges["hor1"] = ["g11", "g12", "h11", "h12", "4p"]
    edges["hor2"] = ["g21", "g22", "h21", "h22", "3"]
    edges["vert1"] = ["g11", "g21", "h11", "h21", "4"]
    edges["vert2"] = ["g12", "g22", "h12", "h22", "3p"]
    return edges


def hypergraph_h3() -> Hypergraph:
    """The hypergraph ``H3`` of Appendix A.2 (adapted from Adler [1]).

    Satisfies ``ghw = shw = 3`` and ``hw = 4``.  Primed vertices use a ``p``
    suffix (``3p`` for ``3'``).
    """
    return Hypergraph(_h3_edges(include_3p4p=False))


def hypergraph_h3_prime() -> Hypergraph:
    """The modified hypergraph ``H3'`` of Example 2 (Figure 2a).

    It is ``H3`` plus the edge ``{3', 4'}`` and satisfies
    ``ghw = shw1 = 3`` and ``shw = hw = 4``.
    """
    return Hypergraph(_h3_edges(include_3p4p=True))


def hypergraph_bog_star(n: int = 3, grid_size: int = 3) -> Hypergraph:
    """A member of the ``H*_BOG`` family of Theorem 9 / Appendix B.2.

    The construction in the paper builds on the "balloon of grids" (BOG)
    hypergraphs of Adler [1]: a switch graph over two copies ``N1, N2`` of a
    punctured hypergraph with marshal width above ``n``, a set ``B`` of
    balloon vertices covered by edges ``a_1..a_s`` (rows) and ``b_1..b_s``
    (columns), eyelet vertices attaching ``B`` to the switch graph, and — the
    paper's modification — an extra vertex ``⋆`` adjacent exactly to ``B``.

    Adler's full construction (punctured hypergraphs, machinists, eyelets) is
    not reproduced verbatim here; instead we build the structurally analogous
    family documented in docs/ARCHITECTURE.md (§ "Experiments & benchmarks"):
    ``N1``/``N2`` are ``grid_size × grid_size``
    grids (whose marshal width grows with ``grid_size``), ``B`` is an
    ``s × s`` balloon grid of vertices ``g_{i,j}`` covered by row edges
    ``a_i = {g_{i,1..s}} ∪ α_i`` and column edges ``b_j = {g_{1..s,j}} ∪ β_j``
    where ``α``/``β`` distribute the switch-graph vertices as in Eq. (2)-(4),
    and ``⋆`` is adjacent exactly to ``B``.  The family preserves the
    behaviour the benchmarks exercise: a large candidate-bag space where
    ``Soft^1`` separates ``⋆`` and subedges of the row/column edges become
    available only after one iteration.
    """
    if n < 1:
        raise ValueError("n must be positive")
    edges: Dict[str, List[str]] = {}

    def grid_vertices(tag: str) -> List[str]:
        return [f"{tag}_{r}_{c}" for r in range(grid_size) for c in range(grid_size)]

    # The two copies N1, N2 of the "hard" sub-hypergraph (grids here).
    for tag in ("n1", "n2"):
        for r in range(grid_size):
            for c in range(grid_size):
                if c + 1 < grid_size:
                    edges[f"{tag}_h_{r}_{c}"] = [f"{tag}_{r}_{c}", f"{tag}_{r}_{c + 1}"]
                if r + 1 < grid_size:
                    edges[f"{tag}_v_{r}_{c}"] = [f"{tag}_{r}_{c}", f"{tag}_{r + 1}_{c}"]
    n1_vertices = grid_vertices("n1")
    n2_vertices = grid_vertices("n2")

    # Switch-graph scaffolding: the hub vertex m' and the e1/e2 selector
    # vertices, each connected to every vertex of the respective copy.
    hub = "m_prime"
    e1 = [f"e1_{i}" for i in range(n + 1)]
    e2 = [f"e2_{i}" for i in range(n + 1)]
    for i, v in enumerate(e1):
        edges[f"sel1_{i}"] = [v] + n1_vertices
    for i, v in enumerate(e2):
        edges[f"sel2_{i}"] = [v] + n2_vertices
    edges["hub1"] = [hub] + n1_vertices
    edges["hub2"] = [hub] + n2_vertices

    # The α / β sides of the switch graph and the balloon grid B.
    alpha = e1 + [hub] + n2_vertices
    beta = e2 + [hub] + n1_vertices
    s = len(alpha)
    balloon = [[f"g_{i}_{j}" for j in range(s)] for i in range(s)]
    for i in range(s):
        edges[f"a_{i}"] = balloon[i] + [alpha[i]]
    for j in range(s):
        edges[f"b_{j}"] = [balloon[i][j] for i in range(s)] + [beta[j]]

    # The paper's modification: a star vertex adjacent exactly to B.
    balloon_flat = [v for row in balloon for v in row]
    for idx, g in enumerate(balloon_flat):
        edges[f"star_{idx}"] = ["star", g]
    return Hypergraph(edges)
