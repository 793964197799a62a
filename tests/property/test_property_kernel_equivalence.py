"""Equivalence of the bitset kernel with the frozenset reference implementations.

The kernel (:mod:`repro.hypergraph.bitset` and the mask-based rewrites of
components / candidate bags / covers / Algorithm 1) must be *observationally
identical* to the seed frozenset code, which is preserved verbatim in
:mod:`repro.core.reference`.  These tests drive both paths over a seeded
grid of random hypergraphs (deterministic, unlike hypothesis's example
database) and assert byte-identical components and bag sets, identical
cover sizes and identical CandidateTD decisions.
"""

import random

import pytest

from repro.core.candidate_bags import SoftBagGenerator, soft_candidate_bags
from repro.core.covers import greedy_edge_cover, minimum_edge_cover
from repro.core.constrained import ConstrainedCTDSolver
from repro.core.ctd import candidate_td
from repro.core.reference import (
    ReferenceSoftBagGenerator,
    reference_candidate_td_decide,
    reference_edge_components,
    reference_greedy_edge_cover,
    reference_minimum_edge_cover,
    reference_soft_candidate_bags,
    reference_vertex_components,
)
from repro.hypergraph.bitset import (
    VertexIndexer,
    iter_bits,
    pairwise_and_masks,
    popcount,
)
from repro.hypergraph.components import edge_components, vertex_components
from repro.hypergraph.generators import random_hypergraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.library import (
    cycle_hypergraph,
    hypergraph_h2,
    triangle_hypergraph,
)


def _random_instances():
    """A deterministic grid of small-to-medium random hypergraphs."""
    instances = []
    for seed in range(8):
        rng = random.Random(1000 + seed)
        num_vertices = rng.randint(4, 14)
        num_edges = rng.randint(2, 12)
        instances.append(
            (
                f"rand-{seed}",
                random_hypergraph(num_vertices, num_edges, max_edge_size=4, seed=seed),
            )
        )
    instances.append(("h2", hypergraph_h2()))
    instances.append(("c6", cycle_hypergraph(6)))
    instances.append(("triangle", triangle_hypergraph()))
    # Duplicate edges, singleton edges and isolated vertices are legal.
    instances.append(
        (
            "degenerate",
            Hypergraph(
                {"a": ["x", "y"], "b": ["x", "y"], "c": ["z"], "d": ["y", "z"]},
                vertices=["w"],
            ),
        )
    )
    return instances


INSTANCES = _random_instances()


def _separators(hypergraph, rng):
    """A mix of separators: empty, single edges, edge unions, random subsets."""
    vertices = sorted(map(str, hypergraph.vertices))
    seps = [frozenset(), frozenset(vertices)]
    edges = list(hypergraph.edges)
    for edge in edges[:4]:
        seps.append(edge.vertices)
    if len(edges) >= 2:
        seps.append(edges[0].vertices | edges[-1].vertices)
    for _ in range(4):
        size = rng.randint(1, max(1, len(vertices) // 2))
        seps.append(frozenset(rng.sample(vertices, size)))
    # Separators may mention vertices outside V(H).
    seps.append(frozenset(list(vertices[:1]) + ["not-a-vertex"]))
    return seps


class TestIndexerRoundTrip:
    @pytest.mark.parametrize("name,hypergraph", INSTANCES)
    def test_mask_frozenset_round_trip(self, name, hypergraph):
        indexer = hypergraph.bitsets.indexer
        rng = random.Random(name)
        vertices = sorted(map(str, hypergraph.vertices))
        for _ in range(20):
            subset = frozenset(rng.sample(vertices, rng.randint(0, len(vertices))))
            mask = indexer.to_mask(subset)
            assert indexer.to_frozenset(mask) == subset
            assert popcount(mask) == len(subset)
            assert {indexer.vertex(b) for b in iter_bits(mask)} == set(subset)

    def test_indexer_order_is_stable(self):
        indexer = VertexIndexer(["b", "a", "c"])
        assert list(indexer) == ["a", "b", "c"]
        assert indexer.universe == 0b111


class TestPairwiseAndMasks:
    """All three pairwise-AND paths (python loop, uint64, n-limb) agree."""

    @pytest.mark.parametrize("bits", [40, 64, 150, 300])
    def test_volume_paths_match_brute_force(self, bits):
        # 160 × 120 = 19200 pairs clears the numpy-volume threshold, so ≤64
        # bits exercises the single-word path and >64 bits the n-limb layout.
        rng = random.Random(f"pam-{bits}")
        left = [rng.getrandbits(bits) for _ in range(160)]
        right = [rng.getrandbits(bits) for _ in range(120)]
        expected = {a & b for a in left for b in right} - {0}
        assert pairwise_and_masks(left, right) == expected

    def test_small_inputs_use_python_loop(self):
        rng = random.Random("pam-small")
        left = [rng.getrandbits(90) for _ in range(7)]
        right = [rng.getrandbits(90) for _ in range(5)]
        expected = {a & b for a in left for b in right} - {0}
        assert pairwise_and_masks(left, right) == expected
        assert pairwise_and_masks([], right) == set()
        assert pairwise_and_masks(left, []) == set()


class TestComponentEquivalence:
    @pytest.mark.parametrize("name,hypergraph", INSTANCES)
    def test_vertex_components_match_reference(self, name, hypergraph):
        rng = random.Random(f"vc-{name}")
        for separator in _separators(hypergraph, rng):
            assert vertex_components(hypergraph, separator) == (
                reference_vertex_components(hypergraph, separator)
            ), f"separator {sorted(map(str, separator))}"

    @pytest.mark.parametrize("name,hypergraph", INSTANCES)
    def test_edge_components_match_reference(self, name, hypergraph):
        rng = random.Random(f"ec-{name}")
        for separator in _separators(hypergraph, rng):
            assert edge_components(hypergraph, separator) == (
                reference_edge_components(hypergraph, separator)
            ), f"separator {sorted(map(str, separator))}"


class TestCandidateBagEquivalence:
    @pytest.mark.parametrize("name,hypergraph", INSTANCES)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_soft_bags_match_reference(self, name, hypergraph, k):
        assert soft_candidate_bags(hypergraph, k) == reference_soft_candidate_bags(
            hypergraph, k
        )

    @pytest.mark.parametrize("name,hypergraph", INSTANCES[:6])
    def test_iterated_levels_match_reference(self, name, hypergraph):
        k = 2
        reference = ReferenceSoftBagGenerator(hypergraph, k)
        generator = SoftBagGenerator(hypergraph, k)
        for level in (0, 1, 2):
            assert generator.candidate_bags(level) == reference.candidate_bags(level)
            assert generator.subedges(level) == reference.subedges(level)

    @pytest.mark.parametrize("name,hypergraph", INSTANCES[:4])
    def test_fixpoint_matches_reference(self, name, hypergraph):
        k = 2
        assert SoftBagGenerator(hypergraph, k).fixpoint_candidate_bags(
            max_level=5
        ) == ReferenceSoftBagGenerator(hypergraph, k).fixpoint_candidate_bags(
            max_level=5
        )


class TestCoverEquivalence:
    @pytest.mark.parametrize("name,hypergraph", INSTANCES)
    def test_minimum_cover_sizes_match_reference(self, name, hypergraph):
        rng = random.Random(f"cov-{name}")
        vertices = sorted(map(str, hypergraph.vertices))
        bags = [frozenset(), frozenset(vertices)]
        for _ in range(10):
            bags.append(
                frozenset(rng.sample(vertices, rng.randint(1, len(vertices))))
            )
        for bag in bags:
            reference = reference_minimum_edge_cover(hypergraph, bag)
            cover = minimum_edge_cover(hypergraph, bag)
            if reference is None:
                assert cover is None
            else:
                assert cover is not None
                assert len(cover) == len(reference)
                covered = set()
                for edge in cover:
                    covered.update(edge.vertices)
                assert bag <= covered
            for bound in (1, 2):
                ref_bounded = reference_minimum_edge_cover(
                    hypergraph, bag, upper_bound=bound
                )
                new_bounded = minimum_edge_cover(hypergraph, bag, upper_bound=bound)
                assert (ref_bounded is None) == (new_bounded is None)

    @pytest.mark.parametrize("name,hypergraph", INSTANCES)
    def test_greedy_cover_matches_reference_exactly(self, name, hypergraph):
        # The greedy tie-breaking (first max-gain edge in edge order) is
        # deterministic in both implementations, so covers match edge-for-edge.
        rng = random.Random(f"greedy-{name}")
        vertices = sorted(map(str, hypergraph.vertices))
        for _ in range(10):
            bag = frozenset(rng.sample(vertices, rng.randint(1, len(vertices))))
            assert greedy_edge_cover(hypergraph, bag) == reference_greedy_edge_cover(
                hypergraph, bag
            )


class TestCandidateTDEquivalence:
    @pytest.mark.parametrize("name,hypergraph", INSTANCES)
    @pytest.mark.parametrize("k", [1, 2])
    def test_decide_matches_reference(self, name, hypergraph, k):
        bags = soft_candidate_bags(hypergraph, k)
        expected = reference_candidate_td_decide(hypergraph, bags)
        solver = ConstrainedCTDSolver(hypergraph, bags)
        assert solver.decide() == expected
        if expected:
            decomposition = solver.solve()
            assert decomposition is not None
            assert decomposition.is_valid()
            assert decomposition.uses_bags_from(bags)
            assert decomposition.is_component_normal_form()

    @pytest.mark.parametrize("name,hypergraph", INSTANCES[:6])
    def test_decide_matches_reference_on_restricted_bags(self, name, hypergraph):
        # Thin the bag set so unsatisfiable blocks and skipped probes are
        # exercised, not just the easy all-bags instances.
        rng = random.Random(f"ctd-{name}")
        bags = sorted(
            soft_candidate_bags(hypergraph, 2),
            key=lambda bag: (len(bag), sorted(map(str, bag))),
        )
        for fraction in (0.3, 0.6):
            subset = [bag for bag in bags if rng.random() < fraction]
            expected = reference_candidate_td_decide(hypergraph, subset)
            assert ConstrainedCTDSolver(hypergraph, subset).decide() == expected
            assert (candidate_td(hypergraph, subset) is not None) == expected
