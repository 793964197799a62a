"""Unit tests for the subtree constraints of Section 6."""

from repro.core.constraints import (
    ConnectedCoverConstraint,
    NoConstraint,
    ShallowCyclicityConstraint,
)
from repro.decompositions.td import TreeDecomposition


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


class TestNoConstraint:
    def test_no_constraint_accepts_everything(self, four_cycle):
        constraint = NoConstraint()
        assert constraint.holds_recursively(cartesian_decomposition(four_cycle))


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
