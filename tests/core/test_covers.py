"""Unit tests for edge covers and the ConCov bag-level machinery."""

from repro.core.covers import (
    connected_edge_set,
    enumerate_covers,
    greedy_edge_cover,
    has_connected_cover,
    least_connected_covers,
    minimum_edge_cover,
)
from repro.hypergraph.hypergraph import Hypergraph


class TestGreedyCover:
    def test_covers_the_bag(self, h2):
        bag = {"1", "2", "3", "4"}
        cover = greedy_edge_cover(h2, bag)
        union = set()
        for edge in cover:
            union.update(edge.vertices)
        assert bag <= union

    def test_uncoverable_bag_returns_none(self, triangle):
        extended = Hypergraph({"R": ["x", "y"]}, vertices=["w"])
        assert greedy_edge_cover(extended, {"w"}) is None

    def test_empty_bag_gets_empty_cover(self, triangle):
        assert greedy_edge_cover(triangle, set()) == []


class TestMinimumCover:
    def test_minimum_cover_is_minimum(self, four_cycle):
        cover = minimum_edge_cover(four_cycle, {"w", "x", "y", "z"})
        assert len(cover) == 2

    def test_upper_bound_respected(self, four_cycle):
        assert minimum_edge_cover(four_cycle, {"w", "x", "y", "z"}, upper_bound=1) is None
        assert minimum_edge_cover(four_cycle, {"w", "x"}, upper_bound=1) is not None

    def test_single_vertex_bag(self, triangle):
        cover = minimum_edge_cover(triangle, {"x"})
        assert len(cover) == 1

    def test_empty_bag(self, triangle):
        assert minimum_edge_cover(triangle, set()) == []

    def test_uncoverable_returns_none(self):
        hypergraph = Hypergraph({"R": ["x", "y"]}, vertices=["w"])
        assert minimum_edge_cover(hypergraph, {"x", "w"}) is None

    def test_h2_bag_cover_number(self, h2):
        # The bag {2,6,7,a,b} from Figure 1b has a 2-edge cover.
        cover = minimum_edge_cover(h2, {"2", "6", "7", "a", "b"})
        assert len(cover) == 2


class TestEnumerateCovers:
    def test_all_minimal_covers_found(self, four_cycle):
        covers = list(enumerate_covers(four_cycle, {"w", "x", "y", "z"}, 2))
        names = {frozenset(e.name for e in cover) for cover in covers}
        assert frozenset({"R", "T"}) in names
        assert frozenset({"S", "U"}) in names

    def test_size_bound_respected(self, four_cycle):
        covers = list(enumerate_covers(four_cycle, {"w", "x", "y", "z"}, 1))
        assert covers == []

    def test_no_duplicates(self, h2):
        covers = list(enumerate_covers(h2, {"a", "b"}, 2))
        names = [frozenset(e.name for e in cover) for cover in covers]
        assert len(names) == len(set(names))

    def test_empty_bag_yields_empty_cover(self, triangle):
        assert list(enumerate_covers(triangle, set(), 2)) == [()]


class TestConnectedness:
    def test_connected_edge_set(self, four_cycle):
        edges = four_cycle.edges
        r, s, t, u = edges
        assert connected_edge_set([r, s])
        assert not connected_edge_set([r, t])
        assert connected_edge_set([])
        assert connected_edge_set([r])
        assert connected_edge_set([r, s, t, u])

    def test_four_cycle_full_bag_has_no_connected_2_cover(self, four_cycle):
        # The only 2-covers of {w,x,y,z} are the two diagonal (Cartesian) pairs.
        assert not has_connected_cover(four_cycle, {"w", "x", "y", "z"}, 2)
        assert has_connected_cover(four_cycle, {"w", "x", "y", "z"}, 3)

    def test_connected_cover_for_adjacent_edges(self, four_cycle):
        assert has_connected_cover(four_cycle, {"w", "x", "y"}, 2)

    def test_connected_covers_listing(self, four_cycle):
        covers = least_connected_covers(four_cycle, {"w", "x", "y"})
        assert covers
        assert all(len(cover) == 2 and connected_edge_set(cover) for cover in covers)
        # Connected or not, a bag nothing covers has none; the empty bag
        # has the empty cover.
        assert least_connected_covers(four_cycle, {"w", "nope"}) == []
        assert least_connected_covers(four_cycle, set()) == [()]

    def test_empty_bag_is_trivially_connected(self, four_cycle):
        assert has_connected_cover(four_cycle, set(), 1)

    def test_c5_needs_width_three_connected_cover(self, c5):
        # Section 6: ConCov-hw(C5) = 3 even though hw(C5) = 2.
        full_bag = set(c5.vertices) - {"v3"}
        assert not has_connected_cover(c5, full_bag, 2)
        assert has_connected_cover(c5, full_bag, 3)


class TestCoverKernelTables:
    def test_edges_are_stored_once(self, h2):
        assert h2.edges is h2.edges

    def test_tables_die_with_their_hypergraph(self):
        # The cover tables and the bridging memo live on the hypergraph's
        # bitsets: nothing outside it may keep them (or it) alive.
        import gc
        import weakref

        from repro.core.certify import certify_ctd
        from repro.core.constraints import ConnectedCoverConstraint
        from repro.decompositions.td import TreeDecomposition
        from repro.hypergraph.library import cycle_hypergraph

        hypergraph = cycle_hypergraph(8)
        constraint = ConnectedCoverConstraint(hypergraph, 3)
        ctd = TreeDecomposition.single_bag(hypergraph)
        assert not constraint.filter_bags([frozenset(hypergraph.vertices)])
        assert has_connected_cover(hypergraph, {"v0", "v1", "v3"}, 3)
        assert not certify_ctd(hypergraph, ctd, constraint=constraint, width_claim=3).ok
        bitsets = hypergraph.bitsets
        assert bitsets._bridge_memo
        references = [weakref.ref(hypergraph), weakref.ref(bitsets)]
        del hypergraph, constraint, ctd, bitsets
        gc.collect()
        assert [reference() for reference in references] == [None, None]
