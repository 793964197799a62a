"""GYO as the first rung of the ``soft-width`` ladder.

``soft-width`` answers level ``k = 1`` of a cyclic hypergraph from the GYO
reduction instead of the solver (shw = 1 ⇔ ghw = 1 ⇔ α-acyclic).  That is
sound only if the solver itself finds a width-1 CTD exactly for the
α-acyclic hypergraphs, which the first two tests check on random
hypergraphs (duplicate and nested edges included) and on every shape of
:mod:`repro.hypergraph.library`.  The last checks that the ladder with the
GYO rung returns what the ladder of solved levels returns — the same
width, the same certified CTD — on the small library shapes and the
sixteen benchmark query shapes.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines.acyclic import is_alpha_acyclic
from repro.core.certify import certify_ctd, decomposition_to_payload
from repro.core.solve import SolveRequest, execute
from repro.db.sqlish import parse_select_query
from repro.hypergraph import library
from repro.hypergraph.hypergraph import Hypergraph

from tests.db.test_scan_memo import BENCHMARK_TEXTS, benchmark_databases
from tests.property.test_property_invariants import small_hypergraphs


@st.composite
def hypergraphs_with_repeated_edges(draw):
    """A small hypergraph plus copies of some edges and subsets of others."""
    base = draw(small_hypergraphs(max_vertices=6, max_edges=6))
    edges = {edge.name: sorted(edge.vertices) for edge in base.edges}
    names = sorted(edges)
    for index, name in enumerate(draw(st.lists(st.sampled_from(names), max_size=2))):
        edges[f"dup{index}"] = list(edges[name])
    for index, name in enumerate(draw(st.lists(st.sampled_from(names), max_size=2))):
        vertices = edges[name]
        edges[f"sub{index}"] = vertices[: draw(st.integers(1, len(vertices)))]
    return Hypergraph(edges)


def decides_width_one(hypergraph: Hypergraph) -> bool:
    result = execute(SolveRequest(hypergraph=hypergraph, mode="decide", width=1), cache=None)
    assert result.complete
    return result.decided


LIBRARY_SHAPES = {
    "triangle": library.triangle_hypergraph,
    **{f"cycle{n}": (lambda n=n: library.cycle_hypergraph(n)) for n in (3, 4, 5, 6)},
    "four_cycle": library.four_cycle_query,
    "example4": lambda: library.example4_query()[0],
    "grid1x4": lambda: library.grid_hypergraph(1, 4),
    "grid2x3": lambda: library.grid_hypergraph(2, 3),
    "grid3x3": lambda: library.grid_hypergraph(3, 3),
    "h2": library.hypergraph_h2,
    "h3": library.hypergraph_h3,
    "h3_prime": library.hypergraph_h3_prime,
    "bog_star": library.hypergraph_bog_star,
}
#: Shapes whose whole ladder solves in milliseconds (H3, H3' and the
#: BOG star need minutes at k = 3, 4).
LADDER_SHAPES = sorted(set(LIBRARY_SHAPES) - {"h3", "h3_prime", "bog_star"})


class TestWidthOneIsAcyclicity:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(hypergraphs_with_repeated_edges())
    def test_random_hypergraphs(self, hypergraph):
        assert is_alpha_acyclic(hypergraph) == decides_width_one(hypergraph)

    @pytest.mark.parametrize("shape", sorted(LIBRARY_SHAPES))
    def test_library_shapes(self, shape):
        hypergraph = LIBRARY_SHAPES[shape]()
        assert is_alpha_acyclic(hypergraph) == decides_width_one(hypergraph)


def solved_ladder(hypergraph: Hypergraph):
    """The least width and its CTD, every level solved (no GYO shortcut)."""
    for k in range(1, hypergraph.num_edges() + 1):
        result = execute(SolveRequest(hypergraph=hypergraph, mode="decide", width=k), cache=None)
        if result.decided:
            return k, result.decomposition
    return None, None


def query_shapes():
    databases = benchmark_databases()
    return {
        name: parse_select_query(sql, databases[dataset], name=name).hypergraph()
        for name, dataset, sql in BENCHMARK_TEXTS
    }


class TestSoftWidthMatchesSolvedLadder:
    @pytest.fixture(scope="class")
    def shapes(self):
        return {
            **{name: LIBRARY_SHAPES[name]() for name in LADDER_SHAPES},
            **query_shapes(),
        }

    def test_same_width_and_certified_ctd(self, shapes):
        assert len(shapes) == len(LADDER_SHAPES) + 16
        for name, hypergraph in sorted(shapes.items()):
            result = execute(SolveRequest(hypergraph=hypergraph, mode="soft-width"), cache=None)
            width, decomposition = solved_ladder(hypergraph)
            assert result.complete and result.width == width, name
            assert decomposition_to_payload(result.decomposition) == (
                decomposition_to_payload(decomposition)
            ), name
            assert certify_ctd(hypergraph, result.decomposition, width_claim=width), name
