"""The incremental refinement of ``canonical_form`` against its spec.

:meth:`repro.hypergraph.canonical._Search._refine_from` recomputes, each
round, only the cells that meet an edge whose signature moved.  The
round-based :func:`repro.hypergraph.canonical._refine` recomputes every
signature every round and is the executable specification: with it the
search must reach the same ``order``, ``encoding``, ``fingerprint`` and
number of leaves, on random hypergraphs and on relabelled copies of the
symmetric shapes whose search branches most.  The work the incremental
version saves is pinned as the number of vertex signatures it computes.
"""

from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.hypergraph import canonical
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.library import cycle_hypergraph, hypergraph_bog_star
from tests.hypergraph.test_canonical_golden import (
    SHAPES,
    complete_graph,
    disjoint_cycles,
    relabelled,
)

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@contextmanager
def recorded_searches():
    """Collect every ``_Search`` that ``_canonical_form`` runs."""
    searches = []
    base = canonical._Search

    class Recording(base):
        def run(self):
            searches.append(self)
            super().run()

    canonical._Search = Recording
    try:
        yield searches
    finally:
        canonical._Search = base


def form_and_search(hypergraph: Hypergraph, incremental: bool):
    with recorded_searches() as searches:
        form = canonical._canonical_form(hypergraph, incremental=incremental)
    (search,) = searches
    return form, search


def outcome(hypergraph: Hypergraph, incremental: bool):
    """``(order, encoding, fingerprint, leaves)`` of one canonicalisation."""
    form, search = form_and_search(hypergraph, incremental)
    leaves = canonical.MAX_LEAVES - search.leaves_left
    return form.order, form.encoding, form.fingerprint, leaves


def assert_matches_spec(hypergraph: Hypergraph) -> None:
    assert outcome(hypergraph, incremental=True) == outcome(hypergraph, incremental=False)


@st.composite
def hypergraphs(draw, max_vertices=9, max_edges=9):
    """Random hypergraphs, isolated vertices and repeated edges included."""
    num_vertices = draw(st.integers(min_value=1, max_value=max_vertices))
    vertices = [f"v{i}" for i in range(num_vertices)]
    num_edges = draw(st.integers(min_value=0, max_value=max_edges))
    edges = {
        f"e{j}": draw(
            st.lists(
                st.sampled_from(vertices),
                min_size=1,
                max_size=min(4, num_vertices),
                unique=True,
            )
        )
        for j in range(num_edges)
    }
    return Hypergraph(edges, vertices=vertices)


@SETTINGS
@given(hypergraphs())
def test_random_hypergraphs_match_the_spec(hypergraph):
    assert_matches_spec(hypergraph)


@SETTINGS
@given(st.integers(min_value=3, max_value=9), st.integers(min_value=0, max_value=2**16))
def test_unions_of_cycles_match_the_spec(length, seed):
    # Disjoint unions of equal cycles: every vertex starts in one cell and
    # the search individualises the most before it reaches a leaf.
    assert_matches_spec(relabelled(disjoint_cycles(length, length), seed))


SYMMETRIC = {
    **{name: build for name, build in SHAPES.items() if name.startswith("symmetric/")},
    "library/cycle16": lambda: cycle_hypergraph(16),
    "library/grid4x4": SHAPES["library/grid4x4"],
    "symmetric/K7": lambda: complete_graph(7),
    "symmetric/C5+C6+C7": lambda: disjoint_cycles(5, 6, 7),
    "symmetric/bog_star": hypergraph_bog_star,
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_relabelled_symmetric_shapes_match_the_spec(name):
    for seed in range(3):
        assert_matches_spec(relabelled(SYMMETRIC[name](), seed))


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_golden_shapes_match_the_spec(name):
    assert_matches_spec(SHAPES[name]())


@pytest.mark.parametrize("length, most", [(16, 300), (12, 180)])
def test_vertex_signatures_per_form_are_pinned(length, most):
    # The round-based spec computes 720 (cycle16) and 396 (cycle12) on the
    # library labelling, whose search visits four leaves: every vertex in
    # every round of every refinement.
    _, search = form_and_search(cycle_hypergraph(length), incremental=True)
    assert canonical.MAX_LEAVES - search.leaves_left == 4
    assert search.signatures <= most
