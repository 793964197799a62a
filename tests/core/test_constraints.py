"""Unit tests for the subtree constraints of Section 6."""

from repro.core.constraints import (
    AndConstraint,
    ConnectedCoverConstraint,
    NoConstraint,
    PartitionClusteringConstraint,
    ShallowCyclicityConstraint,
)
from repro.decompositions.td import TreeDecomposition
from repro.hypergraph.library import example4_query, four_cycle_query


def cartesian_decomposition(four_cycle):
    """The width-2 HD of the 4-cycle that forces a Cartesian product (D1)."""
    return TreeDecomposition.from_bags(
        four_cycle, [{"w", "x", "y", "z"}, {"x", "y"}], [None, 0]
    )


def chain_decomposition(four_cycle):
    """A decomposition whose bags all have connected covers (needs width 3)."""
    return TreeDecomposition.from_bags(
        four_cycle, [{"w", "x", "y"}, {"w", "y", "z"}], [None, 0]
    )


class TestNoConstraintAndConjunction:
    def test_no_constraint_accepts_everything(self, four_cycle):
        constraint = NoConstraint()
        assert constraint.holds_recursively(cartesian_decomposition(four_cycle))

    def test_and_constraint(self, four_cycle):
        concov = ConnectedCoverConstraint(four_cycle, 2)
        conjunction = NoConstraint() & concov
        assert isinstance(conjunction, AndConstraint)
        assert not conjunction.holds_recursively(cartesian_decomposition(four_cycle))
        assert conjunction.filter_bags([frozenset({"w", "x"})]) == {frozenset({"w", "x"})}


class TestConnectedCover:
    def test_example3_cartesian_decomposition_rejected(self, four_cycle):
        constraint = ConnectedCoverConstraint(four_cycle, 2)
        assert not constraint.holds_recursively(cartesian_decomposition(four_cycle))

    def test_connected_decomposition_accepted_with_k3(self, four_cycle):
        constraint = ConnectedCoverConstraint(four_cycle, 3)
        assert constraint.holds_recursively(chain_decomposition(four_cycle))

    def test_filter_bags(self, four_cycle):
        constraint = ConnectedCoverConstraint(four_cycle, 2)
        bags = {frozenset({"w", "x", "y", "z"}), frozenset({"w", "x", "y"})}
        assert constraint.filter_bags(bags) == {frozenset({"w", "x", "y"})}

    def test_empty_bag_is_fine(self, four_cycle):
        constraint = ConnectedCoverConstraint(four_cycle, 2)
        td = TreeDecomposition.from_bags(four_cycle, [set(), {"w", "x", "y", "z"}], [None, 0])
        td_simple = TreeDecomposition.from_bags(four_cycle, [set()], [None])
        assert constraint.holds(td_simple)
        assert not constraint.holds(td)


class TestShallowCyclicity:
    def test_cyclicity_depth_zero_for_single_edge_bags(self, four_cycle):
        constraint = ShallowCyclicityConstraint(four_cycle, depth=0)
        td = TreeDecomposition.from_bags(
            four_cycle, [{"w", "x"}, {"x", "y"}, {"y", "z"}, {"z", "w"}], [None, 0, 1, 2]
        )
        # Not a valid TD of the 4-cycle, but cyclicity depth is still defined.
        assert constraint.cyclicity_depth(td) == 0
        assert constraint.holds(td)

    def test_cyclic_core_at_root_has_depth_zero(self, four_cycle):
        constraint = ShallowCyclicityConstraint(four_cycle, depth=0)
        td = cartesian_decomposition(four_cycle)
        assert constraint.cyclicity_depth(td) == 0
        assert constraint.holds(td)

    def test_deep_cyclic_bag_violates_depth_zero(self, four_cycle):
        constraint = ShallowCyclicityConstraint(four_cycle, depth=0)
        td = TreeDecomposition.from_bags(
            four_cycle, [{"x", "y"}, {"w", "x", "y", "z"}], [None, 0]
        )
        assert constraint.cyclicity_depth(td) == 1
        assert not constraint.holds(td)
        assert ShallowCyclicityConstraint(four_cycle, depth=1).holds(td)


class TestPartitionClustering:
    def test_example4_clustered_decomposition_accepted(self):
        hypergraph, partition = example4_query()
        constraint = PartitionClusteringConstraint(hypergraph, partition, k=2)
        # Figure 4c: V | R⋈U | T⋈S | W as a chain — each partition's nodes
        # form a connected subtree.
        td = TreeDecomposition.from_bags(
            hypergraph,
            [{"v1", "v5"}, {"v1", "v2", "v3"}, {"v2", "v3", "v4"}, {"v4", "v6"}],
            [None, 0, 1, 2],
        )
        assert td.is_valid()
        assert constraint.holds_recursively(td)

    def test_alternating_partitions_rejected(self):
        hypergraph, partition = example4_query()
        constraint = PartitionClusteringConstraint(hypergraph, partition, k=2)
        # Interleaving the partitions along a chain (p1, p2, p1, p2) cannot
        # cluster them into disjoint subtrees.
        td = TreeDecomposition.from_bags(
            hypergraph,
            [{"v1", "v5"}, {"v4", "v6"}, {"v1", "v2", "v3"}, {"v2", "v3", "v4"}],
            [None, 0, 1, 2],
        )
        assert not constraint.holds(td)

    def test_uncoverable_bag_rejected(self):
        hypergraph, partition = example4_query()
        constraint = PartitionClusteringConstraint(hypergraph, partition, k=1)
        td = TreeDecomposition.from_bags(
            hypergraph,
            [{"v1", "v2", "v3", "v4"}],
            [None],
        )
        assert not constraint.holds(td)

    def test_filter_bags_drops_bags_without_single_partition_cover(self):
        hypergraph, partition = example4_query()
        constraint = PartitionClusteringConstraint(hypergraph, partition, k=1)
        bags = {frozenset({"v1", "v2"}), frozenset({"v1", "v2", "v3", "v4"})}
        assert constraint.filter_bags(bags) == {frozenset({"v1", "v2"})}

    def test_partition_hypergraphs_are_built_once(self, monkeypatch):
        # One restricted hypergraph (and so one set of cover tables) per
        # partition, however many bags are asked about; the verdicts are
        # those of enumerating covers on a fresh restriction per bag.
        from repro.core.candidate_bags import soft_candidate_bags
        from repro.core.covers import enumerate_covers
        from repro.hypergraph.hypergraph import Hypergraph

        hypergraph, partition = example4_query()
        builds = []
        restrict = Hypergraph.restrict_edges

        def counting(self, names):
            builds.append(None)
            return restrict(self, names)

        for k in (1, 2, 3):
            constraint = PartitionClusteringConstraint(hypergraph, partition, k=k)
            bags = sorted(soft_candidate_bags(hypergraph, k), key=sorted)
            monkeypatch.setattr(Hypergraph, "restrict_edges", counting)
            builds.clear()
            options = [constraint._partition_options(bag) for bag in bags]
            assert len(builds) == len(constraint.partitions)
            monkeypatch.setattr(Hypergraph, "restrict_edges", restrict)
            for bag, got in zip(bags, options):
                expected = set()
                for label in constraint.partitions:
                    names = [name for name, p in partition.items() if p == label]
                    restricted = hypergraph.restrict_edges(names)
                    if bag <= restricted.vertices and list(
                        enumerate_covers(restricted, bag, k)
                    ):
                        expected.add(label)
                assert got == expected, sorted(bag)
