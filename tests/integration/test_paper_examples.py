"""Integration tests reproducing the paper's worked examples.

* Example 1 / Figure 1: ``H2`` with ``ghw = shw = 2 < hw = 3`` and the
  explicit width-2 soft decomposition.
* Appendix A.2 / Figures 8–9: ``H3`` and its explicit width-3 soft
  decomposition, including the λ-witnesses for the tricky bags.
* Example 2 / Figure 2: on ``H3'`` the subedge ``hor1 \\ {4'}`` enters
  ``E^(1)`` through the special-condition-violation mechanism.
* Section 6 / Example 3: the 4-cycle and the ConCov constraint.
* The extended width hierarchy (Section 8).
"""

import pytest

from repro.baselines.detkdecomp import hw_leq, hypertree_width
from repro.baselines.fhw import fhw_upper_bound
from repro.baselines.ghw import generalized_hypertree_width
from repro.core.candidate_bags import SoftBagGenerator, soft_bag, soft_candidate_bags
from repro.core.soft import certify_soft_decomposition, shw_leq, soft_hypertree_width
from repro.decompositions.width import bag_cover_number
from repro.experiments.paper_witnesses import (
    h2_bag_witnesses,
    h2_soft_decomposition,
    h3_bag_witnesses,
    h3_soft_decomposition,
)
from repro.hypergraph.components import component_vertices, edge_components


class TestExample1H2:
    def test_width_facts(self, h2):
        assert soft_hypertree_width(h2)[0] == 2
        assert generalized_hypertree_width(h2)[0] == 2
        assert hypertree_width(h2) == 3

    def test_figure1b_decomposition_is_a_width2_soft_decomposition(self, h2):
        decomposition = h2_soft_decomposition(h2)
        assert decomposition.is_valid()
        assert certify_soft_decomposition(h2, decomposition, 2)
        assert all(bag_cover_number(h2, bag) <= 2 for bag in decomposition.bags())

    def test_figure1b_bag_witnesses(self, h2):
        for witness in h2_bag_witnesses():
            lambda1 = [h2.edge(name) for name in witness["lambda1"]]
            lambda2 = [h2.edge(name) for name in witness["lambda2"]]
            separator = h2.vertices_of(lambda2)
            components = edge_components(h2, separator)
            produced = {
                frozenset(h2.vertices_of(lambda1) & component_vertices(component))
                for component in components
            }
            assert witness["bag"] in produced

    def test_no_width2_hd_exists(self, h2):
        assert not hw_leq(h2, 2)
        assert hw_leq(h2, 3)


class TestAppendixA2H3:
    def test_figure9_is_a_valid_width3_ghd_skeleton(self, h3):
        decomposition = h3_soft_decomposition(h3)
        assert decomposition.is_valid()
        assert all(bag_cover_number(h3, bag) <= 3 for bag in decomposition.bags())

    def test_figure9_bag_witnesses_are_in_soft(self, h3):
        # Appendix A.2 gives explicit λ1/λ2 witnesses for the root bag and
        # the bag G ∪ H ∪ {2, 4}; check them via Definition 3 directly.
        for witness in h3_bag_witnesses():
            lambda1 = [h3.edge(name) for name in witness["lambda1"]]
            lambda2 = [h3.edge(name) for name in witness["lambda2"]]
            separator = h3.vertices_of(lambda2)
            components = edge_components(h3, separator)
            produced = {
                frozenset(h3.vertices_of(lambda1) & component_vertices(component))
                for component in components
            }
            assert witness["bag"] in produced

    def test_h3_prime_differs_only_in_one_edge(self, h3, h3_prime):
        assert h3_prime.num_edges() == h3.num_edges() + 1


class TestExample2SubedgeGeneration:
    def test_hor1_minus_4p_enters_level_one_subedges(self, h3_prime):
        """Figure 2c: the subedge ``hor1 \\ {4'}`` lies in ``E^(1)`` of ``H3'``.

        ``E^(1) = E ⋂× Soft^0_{H3',3}``, so it suffices to exhibit one bag of
        ``Soft^0_{H3',3}`` that contains the rest of ``hor1`` but not ``4'``;
        we build such a bag from the two vertical edges plus {0',1'} via
        Definition 3 and intersect ``hor1`` with it.
        """
        hor1 = h3_prime.edge("hor1")
        bag = soft_bag(
            h3_prime,
            lambda1=[
                h3_prime.edge("vert1"),
                h3_prime.edge("vert2"),
                h3_prime.edge("e0p1p"),
            ],
            lambda2=[
                h3_prime.edge("hor1"),
                h3_prime.edge("hor2"),
                h3_prime.edge("e2p4p"),
            ],
        )
        assert "4p" not in bag
        subedge = hor1.vertices & bag
        assert subedge == hor1.vertices - {"4p"}


class TestExample3FourCycle:
    def test_width2_decompositions_exist_but_may_force_cartesian_products(self, four_cycle):
        assert soft_hypertree_width(four_cycle)[0] == 2
        bags = soft_candidate_bags(four_cycle, 2)
        assert frozenset({"w", "x", "y", "z"}) in bags

    def test_d2_style_decomposition_has_connected_covers(self, four_cycle):
        from repro.core.covers import has_connected_cover

        assert has_connected_cover(four_cycle, {"x", "y", "z"}, 2)
        assert not has_connected_cover(four_cycle, {"w", "x", "y", "z"}, 2)


class TestWidthHierarchy:
    def test_extended_hierarchy_on_small_hypergraphs(self, triangle, four_cycle, c5, h2):
        # fhw ≤ ghw = shw_∞ ≤ shw_1 ≤ shw_0 ≤ hw ≤ 3·ghw + 1 (Section 8).
        for hypergraph in (triangle, four_cycle, c5, h2):
            hw = hypertree_width(hypergraph)
            shw0, witness0 = soft_hypertree_width(hypergraph, iterations=0)
            shw1, _ = soft_hypertree_width(hypergraph, iterations=1)
            ghw, ghw_witness = generalized_hypertree_width(hypergraph)
            fhw_bound = fhw_upper_bound(ghw_witness)
            assert fhw_bound <= ghw + 1e-9
            assert ghw <= shw1 <= shw0 <= hw
            assert hw <= 3 * ghw + 1

    def test_soft_fixpoint_reaches_ghw_on_h2(self, h2):
        # Theorem 7: shw_∞ = ghw; for H2 the fixpoint candidate bags admit a
        # width-2 CTD (= ghw(H2)).
        bags = SoftBagGenerator(h2, 2).candidate_bags(4)
        from repro.core.ctd import candidate_td

        assert candidate_td(h2, bags) is not None
