"""Unit tests for soft hypertree width (Definitions 4 and 6, Theorems 1 and 2)."""

import pytest

from repro.baselines.detkdecomp import hypertree_width
from repro.core.soft import (
    certify_soft_decomposition,
    shw_i_leq,
    shw_leq,
    soft_decomposition_to_ghd,
    soft_hypertree_width,
)
from repro.hypergraph.library import cycle_hypergraph
from repro.hypergraph.generators import random_acyclic_hypergraph


class TestShwDecision:
    def test_acyclic_hypergraphs_have_shw_1(self):
        for seed in range(3):
            hypergraph = random_acyclic_hypergraph(5, seed=seed)
            assert shw_leq(hypergraph, 1) is not None

    def test_triangle_shw_2(self, triangle):
        assert shw_leq(triangle, 1) is None
        td = shw_leq(triangle, 2)
        assert td is not None and td.is_valid()

    def test_h2_shw_2_strictly_below_hw_3(self, h2):
        # Example 1: ghw(H2) = shw(H2) = 2 < hw(H2) = 3.
        assert shw_leq(h2, 1) is None
        witness = shw_leq(h2, 2)
        assert witness is not None
        assert certify_soft_decomposition(h2, witness, 2)
        assert hypertree_width(h2) == 3

    def test_invalid_k_rejected(self, triangle):
        with pytest.raises(ValueError):
            shw_leq(triangle, 0)


class TestShwSearch:
    def test_soft_hypertree_width_h2(self, h2):
        width, decomposition = soft_hypertree_width(h2)
        assert width == 2
        assert decomposition.is_valid()

    def test_soft_hypertree_width_cycles(self):
        for length in (4, 5, 6, 7):
            width, _ = soft_hypertree_width(cycle_hypergraph(length))
            assert width == 2

    def test_width_never_exceeds_hw(self, triangle, four_cycle, h2):
        for hypergraph in (triangle, four_cycle, h2):
            shw, _ = soft_hypertree_width(hypergraph)
            assert shw <= hypertree_width(hypergraph)

    def test_max_k_exhausted_raises(self, triangle):
        with pytest.raises(ValueError):
            soft_hypertree_width(triangle, max_k=1)

    def test_shw_i_leq_decides_the_triangle(self, triangle):
        assert shw_i_leq(triangle, 2, 0) is not None
        assert shw_i_leq(triangle, 1, 0) is None


class TestIteratedShw:
    def test_shw_i_never_increases_with_i(self, h2, four_cycle):
        for hypergraph in (h2, four_cycle):
            for k in (1, 2):
                if shw_i_leq(hypergraph, k, 0) is not None:
                    assert shw_i_leq(hypergraph, k, 1) is not None

    def test_shw_i_with_subedge_cap_still_sound(self, h2):
        decomposition = shw_i_leq(h2, 2, 1, max_subedges=50)
        if decomposition is not None:
            assert decomposition.is_valid()


class TestCertification:
    def test_certify_accepts_solver_output(self, h2):
        decomposition = shw_leq(h2, 2)
        assert certify_soft_decomposition(h2, decomposition, 2)

    def test_certify_rejects_foreign_bags(self, h2, triangle):
        decomposition = shw_leq(triangle, 2)
        assert not certify_soft_decomposition(h2, decomposition, 2)

    def test_ghd_conversion_respects_width(self, h2):
        decomposition = shw_leq(h2, 2)
        ghd = soft_decomposition_to_ghd(decomposition)
        assert ghd.is_valid()
        assert ghd.ghd_width() <= 2
