"""The cover kernel against its reference specs.

:meth:`repro.hypergraph.bitset.HypergraphBitsets.has_connected_cover`
decides ConCov for :class:`~repro.core.constraints.ConnectedCoverConstraint`
(the solvers' bag filter and ``holds``) and for step 4 of
:func:`~repro.core.certify.certify_ctd`; its verdict must be that of the
seed frozenset search,
:func:`repro.core.reference.reference_has_connected_cover`.
:meth:`~repro.hypergraph.bitset.HypergraphBitsets.has_cover` decides
certify's width claim (step 5) and, through
:func:`repro.core.covers.has_cover`, ``filter_bags_by_cover`` and PartClust;
it must agree with "``enumerate_covers`` yields a cover".  Both run on
every ``Soft_{H,k}`` bag, k = 2..4, of the ``solve_cold`` / ``batch_dedup``
benchmark hypergraphs and the sixteen query hypergraphs, and on random
hypergraphs.  A ``(shape, k)`` with more than ``MAX_BAGS`` bags is checked
on that many evenly spaced ones: the seed search needs 7.5 s for the
71 162 bags of ``cycle24`` at k = 4 alone.

``certify_ctd``'s whole :class:`~repro.core.certify.Certification` (``ok``
and every violation, in order) must equal that of the checker before the
kernel — steps 4 and 5 on a subtree copy per node with the seed search,
and through ``enumerate_covers`` — on the corruptions of
``tests/test_certify.py`` and on single-bag mutants of solver outputs.

:func:`~repro.db.yannakakis.choose_cover` searches one bag's cover tables
under a deepening size bound; it must pick the cover of the loop it
replaced, a fresh ``enumerate_covers`` search per size, on the query
shapes' bags and on random hypergraphs.
"""

import json
import os
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.candidate_bags import soft_candidate_bags
from repro.core.certify import Certification, certify_ctd
from repro.core.constraints import ConnectedCoverConstraint, SubtreeConstraint
from repro.core.covers import (
    connected_edge_set,
    enumerate_covers,
    has_connected_cover,
    has_cover,
    minimum_edge_cover,
)
from repro.core.reference import reference_has_connected_cover
from repro.db.yannakakis import choose_cover
from repro.decompositions.td import TreeDecomposition
from repro.hypergraph.generators import random_cyclic_query_hypergraph, random_hypergraph
from repro.hypergraph.hypergraph import Edge, Hypergraph
from repro.hypergraph.library import (
    cycle_hypergraph,
    grid_hypergraph,
    hypergraph_h2,
    triangle_hypergraph,
)

from tests.property.test_property_invariants import small_hypergraphs
from tests.test_certify import mutate, reference_decomposition, solver_outputs

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Bags checked per ``(shape, k)``; larger bag sets are sampled evenly.
MAX_BAGS = 500

#: The ten ``solve_cold`` hypergraphs and ``batch_dedup``'s ``cycle16``
#: (its other five shapes are among the ten).
BENCHMARK_SHAPES = {
    "cycle24": lambda: cycle_hypergraph(24),
    "random26": lambda: random_hypergraph(26, 18, seed=3),
    "cyclic12": lambda: random_cyclic_query_hypergraph(12, 3, seed=5),
    "grid4x4": lambda: grid_hypergraph(4, 4),
    "cyclic7": lambda: random_cyclic_query_hypergraph(7, 2, seed=1),
    "h2": hypergraph_h2,
    "cyclic10": lambda: random_cyclic_query_hypergraph(10, 3, seed=2),
    "cycle12": lambda: cycle_hypergraph(12),
    "grid3x4": lambda: grid_hypergraph(3, 4),
    "random18": lambda: random_hypergraph(18, 15, seed=7),
    "cycle16": lambda: cycle_hypergraph(16),
}


def _query_shapes():
    path = os.path.join(os.path.dirname(__file__), "..", "core", "query_shape_ctds.json")
    with open(path) as handle:
        shapes = json.load(handle)
    return {
        f"query/{shape['name']}": (
            lambda shape=shape: Hypergraph(
                [Edge(name, frozenset(vertices)) for name, vertices in shape["edges"]]
            )
        )
        for shape in shapes
    }


SHAPES = {**BENCHMARK_SHAPES, **_query_shapes()}


@lru_cache(maxsize=None)
def hypergraph_of(name: str) -> Hypergraph:
    return SHAPES[name]()


def sampled_bags(hypergraph: Hypergraph, k: int):
    bags = sorted(
        soft_candidate_bags(hypergraph, k), key=lambda bag: (len(bag), sorted(map(str, bag)))
    )
    if len(bags) <= MAX_BAGS:
        return bags
    return [bags[i * len(bags) // MAX_BAGS] for i in range(MAX_BAGS)]


def assert_kernel_matches_spec(hypergraph: Hypergraph, bags, k: int) -> None:
    bitsets = hypergraph.bitsets
    constraint = ConnectedCoverConstraint(hypergraph, k)
    for bag in bags:
        expected = reference_has_connected_cover(hypergraph, bag, k)
        assert has_connected_cover(hypergraph, bag, k) == expected, sorted(map(str, bag))
        assert constraint._bag_ok(bag) == expected
        known = bag <= hypergraph.vertices
        if known:
            mask = bitsets.indexer.to_mask(bag)
            assert bitsets.has_connected_cover(mask, k) == expected
        for budget in (k - 1, k):
            covered = next(enumerate_covers(hypergraph, bag, budget), None) is not None
            assert has_cover(hypergraph, bag, budget) == covered, (sorted(map(str, bag)), budget)
            if known:
                assert bitsets.has_cover(mask, budget) == covered


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_soft_bag_verdicts_match_the_spec(name, k):
    hypergraph = hypergraph_of(name)
    assert_kernel_matches_spec(hypergraph, sampled_bags(hypergraph, k), k)


@st.composite
def hypergraphs_with_bags(draw):
    """A random hypergraph, a width and arbitrary vertex subsets (some with
    a vertex the hypergraph lacks) next to its ``Soft_{H,k}`` bags."""
    hypergraph = draw(small_hypergraphs(max_vertices=7, max_edges=7))
    k = draw(st.integers(min_value=1, max_value=4))
    vertices = sorted(hypergraph.vertices, key=str)
    subsets = draw(
        st.lists(
            st.frozensets(st.sampled_from(vertices + ["ghost"]), max_size=len(vertices)),
            max_size=12,
        )
    )
    return hypergraph, k, subsets


@SETTINGS
@given(hypergraphs_with_bags())
def test_random_hypergraph_verdicts_match_the_spec(case):
    hypergraph, k, subsets = case
    bags = sorted(soft_candidate_bags(hypergraph, k), key=lambda bag: sorted(map(str, bag)))
    assert_kernel_matches_spec(hypergraph, bags + subsets, k)


# -- choose_cover against the size-by-size loop --------------------------------


def size_by_size_cover(hypergraph: Hypergraph, bag):
    """``choose_cover`` as a fresh ``enumerate_covers`` search per size
    bound, each rebuilding its bag mask and tables (``None``: no cover)."""
    if not bag:
        return []
    limit = hypergraph.num_edges()
    for size in range(1, limit + 1):
        connected = [
            cover
            for cover in enumerate_covers(hypergraph, bag, size)
            if connected_edge_set(cover)
        ]
        if connected:
            best = min(connected, key=lambda cover: (len(cover), [e.name for e in cover]))
            return [edge.name for edge in best]
    cover = minimum_edge_cover(hypergraph, bag, upper_bound=limit)
    return None if cover is None else [edge.name for edge in cover]


def assert_cover_choice_matches_loop(hypergraph: Hypergraph, bags) -> None:
    for bag in bags:
        expected = size_by_size_cover(hypergraph, bag)
        if expected is None:
            with pytest.raises(ValueError):
                choose_cover(hypergraph, bag)
        else:
            assert choose_cover(hypergraph, bag) == expected, sorted(map(str, bag))


@pytest.mark.parametrize("name", sorted(name for name in SHAPES if name.startswith("query/")))
def test_query_shape_cover_choice_matches_the_loop(name):
    hypergraph = hypergraph_of(name)
    for k in (2, 3):
        assert_cover_choice_matches_loop(hypergraph, sampled_bags(hypergraph, k))


@SETTINGS
@given(hypergraphs_with_bags())
def test_random_cover_choice_matches_the_loop(case):
    hypergraph, k, subsets = case
    bags = sorted(soft_candidate_bags(hypergraph, k), key=lambda bag: sorted(map(str, bag)))
    assert_cover_choice_matches_loop(hypergraph, bags + subsets)


# -- certify_ctd against the checker before the kernel ------------------------


class SeedConnectedCover(ConnectedCoverConstraint):
    """ConCov as certify checked it before the kernel: the seed search per
    bag, and ``holds`` on a subtree copy per node."""

    bag_local = False

    def _bag_ok(self, bag):
        return reference_has_connected_cover(self.hypergraph, bag, self.k)

    holds_recursively = SubtreeConstraint.holds_recursively


def seed_certification(hypergraph, ctd, constraint=None, width_claim=None):
    """:func:`certify_ctd` with steps 4 and 5 as they were before the kernel.

    Steps 1–3 (shape, edge cover, connectedness) did not change, so they
    come from ``certify_ctd`` without claims.
    """
    structural = certify_ctd(hypergraph, ctd)
    if not ctd.tree.has_root():
        return structural
    violations = list(structural.violations)
    if constraint is not None:
        seed = SeedConnectedCover(constraint.hypergraph, constraint.k)
        try:
            if not seed.holds_recursively(ctd):
                violations.append("claimed constraint does not hold")
        except Exception as exc:
            violations.append(f"constraint check failed: {exc}")
    if width_claim is not None:
        for node in ctd.tree.nodes():
            bag = node.data.get("bag")
            if not bag:
                continue
            if next(enumerate_covers(hypergraph, frozenset(bag), width_claim), None) is None:
                violations.append(
                    f"bag {sorted(map(str, bag))} has no edge cover of size "
                    f"<= {width_claim}"
                )
    return Certification(not violations, tuple(violations))


def assert_certification_matches_spec(hypergraph, ctd, k) -> None:
    for claims in (
        {},
        {"width_claim": k},
        {"width_claim": k - 1},
        {"constraint": ConnectedCoverConstraint(hypergraph, k), "width_claim": k},
        {"constraint": ConnectedCoverConstraint(hypergraph, max(k - 1, 1))},
    ):
        assert certify_ctd(hypergraph, ctd, **claims) == seed_certification(
            hypergraph, ctd, **claims
        ), claims


def _triangle(bags, parents):
    return triangle_hypergraph(), TreeDecomposition.from_bags(
        triangle_hypergraph(), bags, parents
    )


def _dropped_largest_bag_vertex():
    hypergraph, ctd = reference_decomposition()
    largest = max(range(len(ctd.bags())), key=lambda i: len(ctd.bags()[i]))

    def drop(bags, parents):
        bags[largest] = bags[largest][:-1]

    return hypergraph, mutate(hypergraph, ctd, drop)


def _reparented():
    hypergraph, ctd = reference_decomposition()

    def reparent(bags, parents):
        parents[-1] = 0 if parents[-1] != 0 else 1

    return hypergraph, mutate(hypergraph, ctd, reparent)


#: The corruptions of ``tests/test_certify.py``.
CORRUPTIONS = {
    "dropped-bag-vertex": _dropped_largest_bag_vertex,
    "disconnected-subtree": lambda: _triangle([["x", "y"], ["y", "z"], ["z", "x"]], [None, 0, 1]),
    "reparented": _reparented,
    "single-bag": lambda: (triangle_hypergraph(), TreeDecomposition.single_bag(triangle_hypergraph())),
    "unknown-vertex": lambda: _triangle([["x", "y", "z", "ghost"]], [None]),
    "missing-vertex": lambda: _triangle([["x", "y"]], [None]),
    "one-vertex-bag": lambda: _triangle([["x"]], [None]),
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_certify_corruptions_match_the_spec(name, k):
    hypergraph, ctd = CORRUPTIONS[name]()
    assert_certification_matches_spec(hypergraph, ctd, k)


def single_bag_mutants(hypergraph, ctd, k):
    """Per bag of ``ctd``: one vertex dropped, an unknown vertex added, and
    the bag swapped for a ``Soft_{H,k}`` bag without a connected cover."""
    non_concov = next(
        (
            bag
            for bag in sorted(
                soft_candidate_bags(hypergraph, k), key=lambda bag: sorted(map(str, bag))
            )
            if not reference_has_connected_cover(hypergraph, bag, k)
        ),
        None,
    )
    for index in range(len(ctd.bags())):

        def dropped(bags, parents, index=index):
            bags[index] = bags[index][1:]

        def unknown(bags, parents, index=index):
            bags[index] = bags[index] + ["ghost"]

        yield mutate(hypergraph, ctd, dropped)
        yield mutate(hypergraph, ctd, unknown)
        if non_concov is not None:

            def swapped(bags, parents, index=index):
                bags[index] = sorted(non_concov, key=str)

            yield mutate(hypergraph, ctd, swapped)


MUTANT_SHAPES = {
    "h2": hypergraph_h2,
    "cycle6": lambda: cycle_hypergraph(6),
    "grid3x3": lambda: grid_hypergraph(3, 3),
    "cyclic7": lambda: random_cyclic_query_hypergraph(7, 2, seed=1),
}


@pytest.mark.parametrize("name", sorted(MUTANT_SHAPES))
def test_certify_single_bag_mutants_match_the_spec(name):
    hypergraph = MUTANT_SHAPES[name]()
    for ctd, _ in solver_outputs(hypergraph, k=2):
        assert_certification_matches_spec(hypergraph, ctd, 2)
        for mutant in single_bag_mutants(hypergraph, ctd, 2):
            assert_certification_matches_spec(hypergraph, mutant, 2)


@SETTINGS
@given(small_hypergraphs(max_vertices=6, max_edges=6))
def test_random_solver_output_mutants_match_the_spec(hypergraph):
    for ctd, _ in solver_outputs(hypergraph, k=2)[:2]:
        for mutant in single_bag_mutants(hypergraph, ctd, 2):
            assert_certification_matches_spec(hypergraph, mutant, 2)
