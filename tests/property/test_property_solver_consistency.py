"""Property-based consistency checks between the different CTD solvers.

Algorithm 1 (plain CandidateTD, the trivial case of Algorithm 2),
Algorithm 2 under a real constraint or preference, and the ranked enumerator
are routes to the same decision problem; on the same candidate bag set they
must agree on feasibility, and everything they return must be a valid CompNF
CTD over those bags.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.candidate_bags import soft_candidate_bags
from repro.core.constrained import ConstrainedCTDSolver, constrained_candidate_td
from repro.core.constraints import ConnectedCoverConstraint
from repro.core.ctd import candidate_td
from repro.core.enumerate import enumerate_ctds
from repro.core.preferences import (
    CostPreference,
    LexicographicPreference,
    MonotoneCostPreference,
    NodeCountPreference,
)
from repro.core.reference import reference_satisfied_blocks

from tests.preference_fixtures import MaxBagSizePreference
from tests.property.test_property_invariants import small_hypergraphs

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSolverAgreement:
    @SETTINGS
    @given(small_hypergraphs(max_vertices=6, max_edges=6))
    def test_algorithm1_and_algorithm2_agree_on_feasibility(self, hypergraph):
        bags = soft_candidate_bags(hypergraph, 2)
        plain = candidate_td(hypergraph, bags)
        optimised = constrained_candidate_td(
            hypergraph, bags, preference=NodeCountPreference()
        )
        assert (plain is None) == (optimised is None)
        if optimised is not None:
            assert optimised.is_valid()
            assert optimised.uses_bags_from(bags)

    @SETTINGS
    @given(small_hypergraphs(max_vertices=6, max_edges=6))
    def test_enumerator_agrees_with_algorithm1(self, hypergraph):
        bags = soft_candidate_bags(hypergraph, 2)
        plain = candidate_td(hypergraph, bags)
        enumerated = enumerate_ctds(hypergraph, bags, limit=3)
        assert (plain is None) == (not enumerated)
        for decomposition in enumerated:
            assert decomposition.is_valid()
            assert decomposition.uses_bags_from(bags)
            assert decomposition.is_component_normal_form()

    @SETTINGS
    @given(small_hypergraphs(max_vertices=6, max_edges=6))
    def test_preference_optimum_is_no_worse_than_enumerated_options(self, hypergraph):
        bags = soft_candidate_bags(hypergraph, 2)
        preference = MaxBagSizePreference()
        best = constrained_candidate_td(hypergraph, bags, preference=preference)
        enumerated = enumerate_ctds(hypergraph, bags, preference=preference, limit=5)
        if best is None:
            assert not enumerated
            return
        assert enumerated
        # The dynamic program's result is never worse than any enumerated
        # option (the enumeration is exact, so its head is the optimum).
        worst_enumerated = max(preference.key(d) for d in enumerated)
        assert preference.key(best) <= worst_enumerated + 1e-9
        assert preference.key(best) == preference.key(enumerated[0])

    @SETTINGS
    @given(small_hypergraphs(max_vertices=6, max_edges=6))
    def test_constrained_results_always_satisfy_the_constraint(self, hypergraph):
        constraint = ConnectedCoverConstraint(hypergraph, 2)
        bags = soft_candidate_bags(hypergraph, 2)
        result = constrained_candidate_td(hypergraph, bags, constraint=constraint)
        if result is not None:
            assert result.is_valid()
            assert constraint.holds_recursively(result)

    @SETTINGS
    @given(small_hypergraphs(max_vertices=6, max_edges=6))
    def test_unconstrained_algorithm2_matches_algorithm1_block_for_block(
        self, hypergraph
    ):
        # With the trivial constraint and preference, forcing every block
        # must satisfy exactly the blocks the seed Algorithm 1 fixpoint
        # satisfies.
        bags = soft_candidate_bags(hypergraph, 2)
        expected, root = reference_satisfied_blocks(hypergraph, bags)
        solver = ConstrainedCTDSolver(hypergraph, bags)
        assert solver.decide() == (root in expected)
        satisfied = {
            (block.head, block.component) for block in solver.satisfied_blocks()
        }
        assert satisfied == expected

    @SETTINGS
    @given(small_hypergraphs(max_vertices=5, max_edges=5))
    def test_enumerator_best_matches_constrained_optimum(self, hypergraph):
        # The enumeration is exact, so its head and Algorithm 2's optimum
        # carry the same key.
        bags = soft_candidate_bags(hypergraph, 2)
        preference = LexicographicPreference(
            [MaxBagSizePreference(), NodeCountPreference()]
        )
        solver = ConstrainedCTDSolver(hypergraph, bags, preference=preference)
        enumerated = enumerate_ctds(hypergraph, bags, preference=preference, limit=1)
        optimal_key = solver.optimal_key()
        if optimal_key is None:
            assert not enumerated
        else:
            assert enumerated
            assert preference.key(enumerated[0]) == optimal_key

    @SETTINGS
    @given(small_hypergraphs(max_vertices=5, max_edges=5))
    def test_lazy_enumerator_head_matches_constrained_optimum(self, hypergraph):
        # The single-class (Eq. 6-shaped) path of the enumerator
        # against Algorithm 2's monotone fast path; integer costs compare
        # exactly.
        bags = soft_candidate_bags(hypergraph, 2)
        preference = MonotoneCostPreference(
            node_cost=lambda bag: len(bag) ** 2,
            edge_cost=lambda parent, child: len(parent & child) + 1,
        )
        solver = ConstrainedCTDSolver(hypergraph, bags, preference=preference)
        enumerated = enumerate_ctds(hypergraph, bags, preference=preference, limit=1)
        optimal_key = solver.optimal_key()
        if optimal_key is None:
            assert not enumerated
        else:
            assert enumerated
            assert preference.key(enumerated[0]) == optimal_key

    @SETTINGS
    @given(small_hypergraphs(max_vertices=5, max_edges=5))
    def test_enumerator_head_matches_optimum_under_non_monotone_preference(
        self, hypergraph
    ):
        # A cost callable that never declares the monotone protocol: the
        # enumerator's one-option classes and Algorithm 2's materialising
        # path must still agree on the optimal key.  (The cost is a sum over
        # bags, so the per-block dynamic program is exact for it.)
        bags = soft_candidate_bags(hypergraph, 2)
        preference = CostPreference(
            lambda td: sum(len(bag) ** 2 for bag in td.bags())
        )
        assert not preference.monotone
        solver = ConstrainedCTDSolver(hypergraph, bags, preference=preference)
        enumerated = enumerate_ctds(hypergraph, bags, preference=preference, limit=1)
        optimal_key = solver.optimal_key()
        if optimal_key is None:
            assert not enumerated
        else:
            assert enumerated
            assert preference.key(enumerated[0]) == optimal_key
