"""Unit tests for the baseline width algorithms (hw, ghw, tw, fractional covers)."""

import sys

import pytest

from repro.baselines.detkdecomp import hd_of_width, hw_leq, hypertree_width
from repro.baselines.fhw import fhw_upper_bound, fractional_cover_number
from repro.baselines.ghw import generalized_hypertree_width, ghw_leq
from repro.baselines.treewidth import treewidth_exact, treewidth_min_fill
from repro.core.soft import shw_leq, soft_hypertree_width
from repro.decompositions.width import verify_hd
from repro.hypergraph.generators import random_acyclic_hypergraph
from repro.hypergraph.library import cycle_hypergraph, grid_hypergraph


class TestHypertreeWidth:
    def test_acyclic_has_hw_1(self):
        hypergraph = random_acyclic_hypergraph(6, seed=0)
        assert hw_leq(hypergraph, 1)
        assert hypertree_width(hypergraph) == 1

    def test_triangle_hw_2(self, triangle):
        assert not hw_leq(triangle, 1)
        assert hypertree_width(triangle) == 2

    def test_cycles_have_hw_2(self):
        for length in (4, 5, 6, 8):
            assert hypertree_width(cycle_hypergraph(length)) == 2

    def test_h2_hw_3(self, h2):
        # Example 1: hw(H2) = 3.
        assert not hw_leq(h2, 2)
        hd = hd_of_width(h2, 3)
        assert hd is not None
        assert verify_hd(hd, expected_width=3)

    def test_returned_hd_is_valid(self, four_cycle):
        hd = hd_of_width(four_cycle, 2)
        assert hd is not None
        assert hd.is_valid()
        assert hd.satisfies_special_condition()

    def test_k_zero_rejected(self, triangle):
        assert hd_of_width(triangle, 0) is None

    def test_max_k_exhausted(self, triangle):
        with pytest.raises(ValueError):
            hypertree_width(triangle, max_k=1)


class TestGeneralizedHypertreeWidth:
    def test_acyclic_ghw_1(self):
        hypergraph = random_acyclic_hypergraph(5, seed=1)
        assert ghw_leq(hypergraph, 1) is not None

    def test_triangle_ghw_2(self, triangle):
        assert ghw_leq(triangle, 1) is None
        assert ghw_leq(triangle, 2) is not None
        assert generalized_hypertree_width(triangle)[0] == 2

    def test_h2_ghw_2(self, h2):
        # Example 1: ghw(H2) = 2 < hw(H2) = 3.
        width, decomposition = generalized_hypertree_width(h2)
        assert width == 2
        assert decomposition.is_valid()

    def test_hierarchy_ghw_leq_shw_leq_hw(self, h2, four_cycle, c5):
        for hypergraph in (h2, four_cycle, c5):
            ghw = generalized_hypertree_width(hypergraph)[0]
            shw = soft_hypertree_width(hypergraph)[0]
            hw = hypertree_width(hypergraph)
            assert ghw <= shw <= hw


class TestTreewidth:
    def test_path_treewidth_1(self):
        from repro.hypergraph.hypergraph import Hypergraph

        hypergraph = Hypergraph({"a": ["1", "2"], "b": ["2", "3"], "c": ["3", "4"]})
        assert treewidth_exact(hypergraph) == 1
        assert treewidth_min_fill(hypergraph) == 1

    def test_cycle_treewidth_2(self):
        hypergraph = cycle_hypergraph(6)
        assert treewidth_exact(hypergraph) == 2
        assert treewidth_min_fill(hypergraph) >= 2

    def test_grid_treewidth(self):
        grid = grid_hypergraph(3, 3)
        assert treewidth_exact(grid) == 3

    def test_min_fill_upper_bounds_exact(self, h2):
        assert treewidth_min_fill(h2) >= treewidth_exact(h2)

    def test_exact_rejects_large_inputs(self):
        grid = grid_hypergraph(5, 5)
        with pytest.raises(ValueError):
            treewidth_exact(grid, max_vertices=10)


class TestFractionalCovers:
    def test_single_edge_cover_number_1(self, triangle):
        assert fractional_cover_number(triangle, {"x", "y"}) == pytest.approx(1.0)

    def test_triangle_fractional_cover_is_3_halves(self, triangle):
        value = fractional_cover_number(triangle, {"x", "y", "z"})
        assert value == pytest.approx(1.5, abs=1e-6)

    def test_without_scipy_the_integral_cover_is_the_bound(
        self, triangle, monkeypatch
    ):
        # The documented fallback: ρ(B) = 2 bounds the triangle's ρ* = 3/2.
        monkeypatch.setitem(sys.modules, "scipy.optimize", None)
        assert fractional_cover_number(triangle, {"x", "y", "z"}) == 2.0

    def test_empty_bag_costs_nothing(self, triangle):
        assert fractional_cover_number(triangle, set()) == 0.0

    def test_uncovered_vertex_rejected(self):
        from repro.hypergraph.hypergraph import Hypergraph

        hypergraph = Hypergraph({"R": ["x", "y"]}, vertices=["w"])
        with pytest.raises(ValueError):
            fractional_cover_number(hypergraph, {"w"})

    def test_fhw_upper_bound_respects_hierarchy(self, h2):
        # fhw ≤ ghw ≤ shw: the fractional width of a width-2 soft
        # decomposition is at most 2.
        decomposition = shw_leq(h2, 2)
        assert fhw_upper_bound(decomposition) <= 2.0 + 1e-9
