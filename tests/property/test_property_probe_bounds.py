"""Soundness of :meth:`repro.core.preferences.Preference.probe_bound`.

A probe bound is a lower bound on every fragment rooted at the probe's bag:
Algorithm 2 skips a probe whose bound is ≥ the block's best key and the
lazy enumerator defers a probe's stream until its bound is the least entry
of the merged heap, so a bound above one real fragment loses an optimum or
breaks the ranking.  Every subtree of every CTD the brute-force reference
enumerator produces is such a fragment; for each one, under every bounded
preference:

* its key is ≥ the bound at its root bag given its children's keys, and
  given any subset of them (the known keys in canonical child order, the
  rest ``None``) — Algorithm 2's use;
* its rank under a parent bag ``P`` is ≥ the bound under ``P`` with no
  child key known — the enumerator's use.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.candidate_bags import soft_candidate_bags
from repro.core.fragments import bag_sort_key, fragment_sort_key
from repro.core.preferences import (
    LexicographicPreference,
    MonotoneCostPreference,
    NodeCountPreference,
    NoPreference,
)
from repro.core.reference import reference_enumerate_ctds

from tests.property.test_property_invariants import small_hypergraphs

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def integer_cost():
    return MonotoneCostPreference(
        node_cost=lambda bag: len(bag) ** 2,
        edge_cost=lambda parent, child: len(parent & child) + 1,
    )


def float_cost():
    # Inexact binary fractions and zero edge costs: a bound that summed the
    # known keys in another order than the key does could round above it.
    return MonotoneCostPreference(
        node_cost=lambda bag: 0.1 * len(bag) ** 3,
        edge_cost=lambda parent, child: 0.3 * max(len(parent & child) - 1, 0),
    )


PREFERENCES = {
    "none": NoPreference,
    "nodecount": NodeCountPreference,
    "integer-cost": integer_cost,
    "float-cost": float_cost,
    "lexicographic": lambda: LexicographicPreference(
        [NodeCountPreference(), integer_cost()]
    ),
}


def subtrees(decomposition, preference):
    """``(bag, state, child states)`` of every subtree, children in canonical order."""
    found = []

    def walk(node):
        bag = decomposition.bag(node)
        children = sorted(
            (walk(child) for child in node.children),
            key=lambda pair: fragment_sort_key(pair[0]),
        )
        fragment = (bag, tuple(child for child, _ in children))
        child_states = [state for _, state in children]
        state = preference.fragment_state(bag, child_states)
        found.append((bag, state, child_states))
        return fragment, state

    walk(decomposition.tree.root)
    return found


@SETTINGS
@given(
    small_hypergraphs(max_vertices=5, max_edges=5),
    st.sampled_from(sorted(PREFERENCES)),
    st.data(),
)
def test_bound_is_below_every_fragment(hypergraph, kind, data):
    preference = PREFERENCES[kind]()
    bags = sorted(soft_candidate_bags(hypergraph, 2), key=bag_sort_key)
    decompositions = reference_enumerate_ctds(
        hypergraph, bags, preference=preference, limit=12
    )
    for decomposition in decompositions:
        for bag, state, child_states in subtrees(decomposition, preference):
            key = preference.state_key(state)
            child_keys = [preference.state_key(child) for child in child_states]
            assert key >= preference.probe_bound(None, bag, child_keys)
            known = [
                child_key
                for child_key in child_keys
                if data.draw(st.booleans(), label="known")
            ]
            partial = known + [None] * (len(child_keys) - len(known))
            assert key >= preference.probe_bound(None, bag, partial)
            unknown = [None] * len(child_keys)
            for parent_bag in data.draw(
                st.lists(st.sampled_from(bags), max_size=3), label="parents"
            ):
                rank = preference.child_rank_key(parent_bag, state)
                assert rank >= preference.probe_bound(parent_bag, bag, unknown)
