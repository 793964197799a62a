"""Unit tests for preference orders (toptds)."""

from repro.core.fragments import fragment_to_decomposition, make_fragment
from repro.core.preferences import (
    CostPreference,
    LexicographicPreference,
    MonotoneCostPreference,
    NodeCountPreference,
    NoPreference,
    ShallowCyclicityPreference,
)
from repro.decompositions.td import TreeDecomposition
from repro.decompositions.tree import RootedTree

from tests.preference_fixtures import MaxBagSizePreference


def two_decompositions(four_cycle):
    small = TreeDecomposition.from_bags(
        four_cycle, [{"w", "x", "y", "z"}], [None]
    )
    chain = TreeDecomposition.from_bags(
        four_cycle, [{"w", "x", "y"}, {"w", "y", "z"}], [None, 0]
    )
    return small, chain


class TestBasicPreferences:
    def test_no_preference_never_strictly_better(self, four_cycle):
        a, b = two_decompositions(four_cycle)
        preference = NoPreference()
        assert not preference.is_strictly_better(a, b)
        assert not preference.is_strictly_better(b, a)

    def test_node_count_preference(self, four_cycle):
        single, chain = two_decompositions(four_cycle)
        preference = NodeCountPreference()
        assert preference.is_strictly_better(single, chain)

    def test_max_bag_size_preference(self, four_cycle):
        single, chain = two_decompositions(four_cycle)
        preference = MaxBagSizePreference()
        assert preference.is_strictly_better(chain, single)

    def test_cost_preference_uses_callable(self, four_cycle):
        single, chain = two_decompositions(four_cycle)
        preference = CostPreference(lambda td: td.tree.num_nodes() * 10)
        assert preference.key(single) == 10
        assert preference.is_strictly_better(single, chain)


class TestShallowCyclicityPreference:
    def test_orders_by_cyclicity_depth(self, four_cycle):
        shallow = TreeDecomposition.from_bags(
            four_cycle, [{"w", "x", "y", "z"}, {"x", "y"}], [None, 0]
        )
        deep = TreeDecomposition.from_bags(
            four_cycle, [{"x", "y"}, {"w", "x", "y", "z"}], [None, 0]
        )
        preference = ShallowCyclicityPreference(four_cycle)
        assert preference.key(shallow) == 0
        assert preference.key(deep) == 1
        assert preference.is_strictly_better(shallow, deep)


class TestMonotoneComposition:
    """``fragment_state``/``state_key`` must agree with ``key`` on materialised TDs."""

    def _fragments(self):
        leaf_a = make_fragment(frozenset({"x", "y"}), ())
        leaf_b = make_fragment(frozenset({"w", "x", "y", "z"}), ())
        inner = make_fragment(frozenset({"w", "y", "z"}), (leaf_a,))
        root = make_fragment(frozenset({"w", "x", "y"}), (inner, leaf_b))
        return [leaf_a, leaf_b, inner, root]

    def _assert_composition_matches(self, four_cycle, preference):
        assert preference.monotone
        states = {}
        for fragment in self._fragments():
            bag, children = fragment
            states[fragment] = preference.fragment_state(
                bag, [states[child] for child in children]
            )
            decomposition = fragment_to_decomposition(four_cycle, fragment)
            assert preference.state_key(states[fragment]) == preference.key(
                decomposition
            )

    def test_no_preference(self, four_cycle):
        self._assert_composition_matches(four_cycle, NoPreference())

    def test_node_count(self, four_cycle):
        self._assert_composition_matches(four_cycle, NodeCountPreference())

    def test_max_bag_size(self, four_cycle):
        self._assert_composition_matches(four_cycle, MaxBagSizePreference())

    def test_shallow_cyclicity(self, four_cycle):
        self._assert_composition_matches(four_cycle, ShallowCyclicityPreference(four_cycle))

    def test_monotone_cost(self, four_cycle):
        preference = MonotoneCostPreference(
            node_cost=lambda bag: len(bag) ** 2,
            edge_cost=lambda parent, child: len(parent & child) + 1,
        )
        self._assert_composition_matches(four_cycle, preference)

    def test_lexicographic_combination(self, four_cycle):
        preference = LexicographicPreference(
            [MaxBagSizePreference(), NodeCountPreference()]
        )
        self._assert_composition_matches(four_cycle, preference)

    def test_lexicographic_monotone_only_if_all_parts_are(self, four_cycle):
        mixed = LexicographicPreference(
            [MaxBagSizePreference(), CostPreference(lambda td: 0.0)]
        )
        assert not mixed.monotone

    def test_generic_cost_preference_is_not_monotone(self):
        assert not CostPreference(lambda td: 0.0).monotone


class TestMaxBagSizeEmptyDecomposition:
    def test_key_of_bagless_partial_decomposition_is_zero(self, four_cycle):
        empty = TreeDecomposition(four_cycle, RootedTree())
        assert MaxBagSizePreference().key(empty) == 0


class TestLexicographicPreference:
    def test_first_component_dominates(self, four_cycle):
        single, chain = two_decompositions(four_cycle)
        preference = LexicographicPreference(
            [MaxBagSizePreference(), NodeCountPreference()]
        )
        assert preference.is_strictly_better(chain, single)

    def test_tie_broken_by_second_component(self, four_cycle):
        a = TreeDecomposition.from_bags(
            four_cycle, [{"w", "x", "y"}, {"w", "y", "z"}], [None, 0]
        )
        b = TreeDecomposition.from_bags(
            four_cycle, [{"w", "x", "y"}, {"w", "y", "z"}, {"w", "y"}], [None, 0, 1]
        )
        preference = LexicographicPreference(
            [MaxBagSizePreference(), NodeCountPreference()]
        )
        assert preference.is_strictly_better(a, b)
