"""Equivalence of the top-down Algorithm 2 with its round-robin reference.

The solver in :mod:`repro.core.constrained` and the preserved seed
dynamic program :func:`repro.core.reference.reference_constrained_ctd` are two
routes to the ``(𝒞, ≤)``-CandidateTD fixpoint.  Across random hypergraphs and
the paper's constraint/preference grid they must return the same decide
answer and — the fixpoint of a monotone preference being unique — the same
optimal preference key.  The returned decompositions themselves may differ
structurally (ties under ≤ are broken by probe order), so both are checked
for validity and compliance instead of structural equality.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.candidate_bags import soft_candidate_bags
from repro.core.constrained import ConstrainedCTDSolver
from repro.core.constraints import (
    ConnectedCoverConstraint,
    ShallowCyclicityConstraint,
)
from repro.core.preferences import (
    LexicographicPreference,
    MaxBagSizePreference,
    MonotoneCostPreference,
    NodeCountPreference,
    ShallowCyclicityPreference,
)
from repro.core.reference import reference_constrained_ctd

from tests.property.test_property_invariants import small_hypergraphs

SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def synthetic_cost_preference():
    # Integer-valued node and edge costs: exact arithmetic, so the composed
    # keys of the solver and the rebuilt keys of the reference can
    # be compared with ``==``.
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


def make_preference(kind, hypergraph):
    if kind == "cost":
        return synthetic_cost_preference()
    if kind == "bag-size":
        return MaxBagSizePreference()
    if kind == "lexicographic":
        return LexicographicPreference(
            [MaxBagSizePreference(), NodeCountPreference()]
        )
    if kind == "shallow":
        return ShallowCyclicityPreference(hypergraph)
    raise ValueError(kind)


def assert_equivalent(hypergraph, constraint_kind, preference_kind):
    bags = soft_candidate_bags(hypergraph, 2)
    constraint = make_constraint(constraint_kind, hypergraph)
    preference = make_preference(preference_kind, hypergraph)
    reference = reference_constrained_ctd(
        hypergraph, bags, constraint=constraint, preference=preference
    )
    solver = ConstrainedCTDSolver(
        hypergraph, bags, constraint=constraint, preference=preference
    )
    result = solver.solve()
    assert (reference is None) == (result is None)
    if result is None:
        return
    assert result.is_valid()
    assert result.uses_bags_from(bags)
    if constraint is not None:
        assert constraint.holds_recursively(result)
        assert constraint.holds_recursively(reference)
    assert solver.optimal_key() == preference.key(reference)
    assert preference.key(result) == preference.key(reference)


class TestConstrainedEquivalence:
    @pytest.mark.parametrize("constraint_kind", ["none", "concov", "shallow"])
    @pytest.mark.parametrize("preference_kind", ["cost", "bag-size", "lexicographic"])
    def test_grid_on_random_hypergraphs(self, constraint_kind, preference_kind):
        @SETTINGS
        @given(small_hypergraphs(max_vertices=6, max_edges=6))
        def run(hypergraph):
            assert_equivalent(hypergraph, constraint_kind, preference_kind)

        run()

    @SETTINGS
    @given(small_hypergraphs(max_vertices=6, max_edges=6))
    def test_shallow_cyclicity_preference_complete_pair(self, hypergraph):
        assert_equivalent(hypergraph, "shallow", "shallow")
