"""Unit tests for Soft_{H,k} and the iterated Soft^i_{H,k} (Definitions 3 and 6)."""

import pytest

from repro.core import candidate_bags as candidate_bags_module
from repro.core.candidate_bags import (
    SoftBagGenerator,
    filter_bags_by_cover,
    iterated_soft_candidate_bags,
    soft_bag,
    soft_candidate_bags,
)
from repro.core.covers import minimum_edge_cover
from repro.hypergraph.library import hypergraph_h2
from repro.runtime.budget import Budget


class TestSoftCandidateBags:
    def test_every_edge_is_a_candidate_bag(self, h2):
        bags = soft_candidate_bags(h2, 1)
        for edge in h2.edges:
            assert edge.vertices in bags

    def test_unions_of_k_edges_are_candidates(self, h2):
        bags = soft_candidate_bags(h2, 2)
        union = h2.edge("e12a").vertices | h2.edge("e78b").vertices
        assert union in bags

    def test_no_empty_bags(self, h2):
        assert frozenset() not in soft_candidate_bags(h2, 2)

    def test_all_bags_have_small_covers(self, h2):
        # Theorem 2: every bag of Soft_{H,k} is covered by at most k edges.
        for bag in soft_candidate_bags(h2, 2):
            cover = minimum_edge_cover(h2, bag, upper_bound=2)
            assert cover is not None and len(cover) <= 2

    def test_example1_bags_are_candidates(self, h2):
        # The four bags of the soft decomposition in Figure 1b.
        bags = soft_candidate_bags(h2, 2)
        assert frozenset({"2", "6", "7", "a", "b"}) in bags
        assert frozenset({"2", "5", "6", "a", "b"}) in bags
        assert frozenset({"2", "3", "4", "5", "a", "b"}) in bags
        assert frozenset({"1", "2", "7", "8", "a", "b"}) in bags

    def test_k_grows_the_candidate_set(self, h2):
        assert soft_candidate_bags(h2, 1) <= soft_candidate_bags(h2, 2)

    def test_invalid_k_rejected(self, h2):
        with pytest.raises(ValueError):
            soft_candidate_bags(h2, 0)


class TestSoftBagWitness:
    def test_example1_witness_for_bag_267ab(self, h2):
        # Example 1: {2,6,7,a,b} = (⋃{e23b, e67a}) ∩ (⋃C) for the single
        # [{e34, e23b}]-component C.
        bag = soft_bag(
            h2,
            lambda1=[h2.edge("e23b"), h2.edge("e67a")],
            lambda2=[h2.edge("e34"), h2.edge("e23b")],
        )
        assert bag == frozenset({"2", "6", "7", "a", "b"})

    def test_example1_witness_for_bag_256ab(self, h2):
        bag = soft_bag(
            h2,
            lambda1=[h2.edge("e12a"), h2.edge("e56b")],
            lambda2=[h2.edge("e18"), h2.edge("e12a")],
        )
        assert bag == frozenset({"2", "5", "6", "a", "b"})

    def test_empty_lambda2_gives_whole_hypergraph_component(self, h2):
        bag = soft_bag(h2, lambda1=[h2.edge("e12a")], lambda2=[])
        assert bag == h2.edge("e12a").vertices


class TestIteratedSoft:
    def test_level_zero_matches_definition_3(self, h2):
        assert iterated_soft_candidate_bags(h2, 2, 0) == soft_candidate_bags(h2, 2)

    def test_monotonicity_lemma3(self, triangle, four_cycle):
        # Lemma 3: E^(i) ⊆ E^(i+1), E^(i) ⊆ Soft^i, Soft^i ⊆ Soft^{i+1}.
        for hypergraph in (triangle, four_cycle):
            generator = SoftBagGenerator(hypergraph, 2)
            for level in range(2):
                subedges = generator.subedges(level)
                next_subedges = generator.subedges(level + 1)
                soft = generator.candidate_bags(level)
                next_soft = generator.candidate_bags(level + 1)
                assert subedges <= next_subedges
                assert subedges <= soft
                assert soft <= next_soft

    def test_subedges_level_zero_are_the_edges(self, triangle):
        generator = SoftBagGenerator(triangle, 2)
        assert generator.subedges(0) == {edge.vertices for edge in triangle.edges}

    def test_fixpoint_reached(self, triangle):
        generator = SoftBagGenerator(triangle, 2)
        assert generator.candidate_bags(10) == generator.candidate_bags(5)
        assert generator.subedges(10) == generator.subedges(5)

    def test_levels_past_the_fixpoint_are_not_recomputed(self, h2, monkeypatch):
        # Lemma 6: once E^(i+1) = E^(i), every later level is the fixpoint.
        probe = SoftBagGenerator(h2, 2)
        fixpoint = next(i for i in range(30) if probe.subedges(i + 1) == probe.subedges(i))
        calls = []
        next_subedges = SoftBagGenerator._next_subedges

        def counted(self, level):
            calls.append(level)
            return next_subedges(self, level)

        monkeypatch.setattr(SoftBagGenerator, "_next_subedges", counted)
        generator = SoftBagGenerator(h2, 2)
        assert generator.candidate_bags(30) == probe.candidate_bags(fixpoint)
        assert len(calls) <= fixpoint + 1
        assert generator.subedges(30) == probe.subedges(fixpoint)

    def test_budget_is_charged_every_pair_of_a_product(self, h2, monkeypatch):
        # A bulk ``pairwise_and_masks`` cannot tick per AND, so its whole
        # pair count is charged up front: ``--max-work`` bounds the ANDs.
        pairs = []
        product = candidate_bags_module.pairwise_and_masks

        def counted(left, right):
            pairs.append(len(left) * len(right))
            return product(left, right)

        monkeypatch.setattr(candidate_bags_module, "pairwise_and_masks", counted)
        budget = Budget()
        SoftBagGenerator(h2, 2, budget=budget).candidate_bags(1)
        assert len(pairs) >= 2
        assert budget.work >= sum(pairs)


class TestBagFilters:
    def test_connected_filter_drops_cartesian_bags(self, four_cycle):
        bags = soft_candidate_bags(four_cycle, 2)
        connected = filter_bags_by_cover(four_cycle, bags, 2, connected=True)
        assert frozenset({"w", "x", "y", "z"}) in bags
        assert frozenset({"w", "x", "y", "z"}) not in connected
        assert connected <= bags

    def test_cover_filter_keeps_coverable_bags(self, h2):
        bags = soft_candidate_bags(h2, 2)
        filtered = filter_bags_by_cover(h2, bags, 2, connected=False)
        assert filtered == bags
