"""Equivalence of the exact lazy any-k enumerator with its brute-force spec.

The rewritten enumerator in :mod:`repro.core.enumerate` (lazy Lawler-style
successor streams for order-monotone preferences, exhaustive fragment-memoised
tables otherwise) and :func:`repro.core.reference.reference_enumerate_ctds`
(exhaustive generation + sort, materialising a full decomposition per option)
are two routes to the same ranking.  Across random hypergraphs and the
constraint/preference grid they must return the *same decompositions in the
same order* — keys use exact integer arithmetic and ties are broken by the
canonical fragment sort key, so the sequences are compared structurally,
element by element, not merely as key multisets.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.candidate_bags import soft_candidate_bags
from repro.core.enumerate import enumerate_ctds
from repro.core.constraints import (
    ConnectedCoverConstraint,
    ShallowCyclicityConstraint,
)
from repro.core.preferences import (
    LexicographicPreference,
    MaxBagSizePreference,
    MonotoneCostPreference,
    NodeCountPreference,
    NoPreference,
)
from repro.core.reference import reference_enumerate_ctds
from repro.db.cost import EstimateCostModel
from repro.hypergraph.library import cycle_hypergraph
from repro.workloads.registry import benchmark_queries, benchmark_query

from tests.property.test_property_invariants import small_hypergraphs

# The reference enumerator is exhaustive (it materialises every option of
# every block), so the instances stay a notch smaller than in the other
# equivalence suites.
SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: ``none``, ``nodecount``, ``cost`` and ``lexicographic-bounded`` have probe
#: bounds (:meth:`repro.core.preferences.Preference.probe_bound`), so they
#: exercise the bounded search; ``bag-size`` and ``lexicographic`` do not.
PREFERENCE_KINDS = [
    "none",
    "nodecount",
    "cost",
    "bag-size",
    "lexicographic",
    "lexicographic-bounded",
]


def synthetic_cost_preference():
    # Integer-valued node and edge costs: exact arithmetic, so the composed
    # keys of the lazy streams and the rebuilt keys of the reference compare
    # with ``==`` and the full sequence order is reproducible.
    return MonotoneCostPreference(
        node_cost=lambda bag: len(bag) ** 2,
        edge_cost=lambda parent, child: len(parent & child) + 1,
    )


def make_constraint(kind, hypergraph):
    if kind == "none":
        return None
    if kind == "concov":
        return ConnectedCoverConstraint(hypergraph, 2)
    if kind == "shallow":
        return ShallowCyclicityConstraint(hypergraph, depth=1)
    raise ValueError(kind)


def make_preference(kind):
    if kind == "none":
        return NoPreference()
    if kind == "nodecount":
        return NodeCountPreference()
    if kind == "cost":
        return synthetic_cost_preference()
    if kind == "bag-size":
        return MaxBagSizePreference()
    if kind == "lexicographic":
        return LexicographicPreference(
            [MaxBagSizePreference(), NodeCountPreference()]
        )
    if kind == "lexicographic-bounded":
        # Every component has a probe bound, so the tuple bound is live.
        return LexicographicPreference(
            [NodeCountPreference(), synthetic_cost_preference()]
        )
    raise ValueError(kind)


def assert_same_ranked_enumeration(hypergraph, constraint_kind, preference_kind):
    bags = soft_candidate_bags(hypergraph, 2)
    constraint = make_constraint(constraint_kind, hypergraph)
    preference = make_preference(preference_kind)
    enumerated = enumerate_ctds(
        hypergraph, bags, constraint=constraint, preference=preference, limit=6
    )
    reference = reference_enumerate_ctds(
        hypergraph, bags, constraint=constraint, preference=preference, limit=6
    )
    # Same decompositions in the same (key, canonical tie) order.
    assert [d.canonical_form() for d in enumerated] == [
        d.canonical_form() for d in reference
    ]
    assert [preference.key(d) for d in enumerated] == [
        preference.key(d) for d in reference
    ]
    for decomposition in enumerated:
        assert decomposition.is_valid()
        assert decomposition.uses_bags_from(bags)
        assert decomposition.is_component_normal_form()
        if constraint is not None:
            assert constraint.holds_recursively(decomposition)


class TestEnumerateEquivalence:
    @pytest.mark.parametrize("constraint_kind", ["none", "concov", "shallow"])
    @pytest.mark.parametrize("preference_kind", PREFERENCE_KINDS)
    def test_grid_on_random_hypergraphs(self, constraint_kind, preference_kind):
        @SETTINGS
        @given(small_hypergraphs(max_vertices=5, max_edges=5))
        def run(hypergraph):
            assert_same_ranked_enumeration(
                hypergraph, constraint_kind, preference_kind
            )

        run()

    @SETTINGS
    @given(small_hypergraphs(max_vertices=5, max_edges=5))
    def test_unranked_enumeration_matches_reference(self, hypergraph):
        # No preference: pure canonical tie-break order, the reproducibility
        # path the experiment harness samples its random pools from.
        bags = soft_candidate_bags(hypergraph, 2)
        enumerated = enumerate_ctds(hypergraph, bags, limit=6)
        reference = reference_enumerate_ctds(hypergraph, bags, limit=6)
        assert [d.canonical_form() for d in enumerated] == [
            d.canonical_form() for d in reference
        ]

    @pytest.mark.parametrize("name", [entry.name for entry in benchmark_queries()])
    def test_paper_query_top10_under_concov_and_estimate_cost(self, name):
        # Section 7's top-10 scenario: ConCov + the Eq. 6 estimate cost
        # (Appendix C.2.1) on the data the figures use, at a small scale.
        entry = benchmark_query(name)
        database, query = entry.load(scale=0.1)
        hypergraph = query.hypergraph()
        bags = soft_candidate_bags(hypergraph, entry.width)
        constraint = ConnectedCoverConstraint(hypergraph, entry.width)
        preference = EstimateCostModel(query, database).as_preference()
        enumerated = enumerate_ctds(
            hypergraph, bags, constraint=constraint, preference=preference, limit=10
        )
        reference = reference_enumerate_ctds(
            hypergraph, bags, constraint=constraint, preference=preference, limit=10
        )
        assert enumerated and len(enumerated) == len(reference)
        keys = [preference.key(d) for d in enumerated]
        reference_keys = [preference.key(d) for d in reference]
        assert keys == sorted(keys) and reference_keys == sorted(reference_keys)
        # Float keys over a tie-heavy landscape: ties may be ordered
        # differently when summation order differs, so the ranked key
        # sequences agree up to rounding (the integer-cost grid above pins
        # exact sequence equality).
        assert keys == pytest.approx(reference_keys, rel=1e-9, abs=1e-9)
        for decomposition in enumerated:
            assert decomposition.is_valid()
            assert constraint.holds_recursively(decomposition)

    @SETTINGS
    @given(small_hypergraphs(max_vertices=5, max_edges=5))
    def test_limit_is_a_prefix_of_the_full_ranking(self, hypergraph):
        bags = soft_candidate_bags(hypergraph, 2)
        preference = synthetic_cost_preference()
        wide = enumerate_ctds(hypergraph, bags, preference=preference, limit=8)
        narrow = enumerate_ctds(hypergraph, bags, preference=preference, limit=3)
        assert [d.canonical_form() for d in narrow] == [
            d.canonical_form() for d in wide[:3]
        ]


def test_an_inflated_node_count_bound_is_caught(monkeypatch):
    # A bound one above the least key is unsound: it makes the enumerator
    # open a probe late.
    bound = NodeCountPreference.probe_bound
    monkeypatch.setattr(
        NodeCountPreference,
        "probe_bound",
        lambda self, parent_bag, bag, child_keys: bound(
            self, parent_bag, bag, child_keys
        )
        + 1,
    )
    with pytest.raises(AssertionError):
        assert_same_ranked_enumeration(cycle_hypergraph(5), "none", "nodecount")
