"""Unit tests for Algorithm 2: constrained and preference-optimised CTDs."""

from repro.core.candidate_bags import soft_candidate_bags
from repro.core.constrained import ConstrainedCTDSolver, constrained_candidate_td
from repro.core.constraints import (
    ConnectedCoverConstraint,
    PartitionClusteringConstraint,
    ShallowCyclicityConstraint,
)
from repro.core.preferences import (
    CostPreference,
    MaxBagSizePreference,
    MonotoneCostPreference,
    NodeCountPreference,
    ShallowCyclicityPreference,
)
from repro.core.reference import reference_constrained_ctd
from repro.core.soft import shw_leq, soft_hypertree_width
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.library import cycle_hypergraph, example4_query


class TestUnconstrainedBehaviour:
    def test_matches_algorithm1_when_unconstrained(self, h2):
        bags = soft_candidate_bags(h2, 2)
        assert constrained_candidate_td(h2, bags) is not None
        bags1 = soft_candidate_bags(h2, 1)
        assert constrained_candidate_td(h2, bags1) is None

    def test_preference_optimises_node_count(self, triangle):
        bags = soft_candidate_bags(triangle, 2)
        best = constrained_candidate_td(
            triangle, bags, preference=NodeCountPreference()
        )
        assert best is not None
        assert best.tree.num_nodes() == 1


class TestConCovConstrainedWidth:
    def test_c5_concov_shw_is_3(self, c5):
        # Section 6: hw(C5) = 2 but ConCov-shw(C5) = 3.
        assert soft_hypertree_width(c5)[0] == 2
        for k, expected in ((2, False), (3, True)):
            constraint = ConnectedCoverConstraint(c5, k)
            bags = soft_candidate_bags(c5, k)
            result = constrained_candidate_td(c5, bags, constraint=constraint)
            assert (result is not None) == expected
            if result is not None:
                assert constraint.holds_recursively(result)

    def test_four_cycle_concov_width_2_avoids_cartesian_bags(self, four_cycle):
        # Example 3: the 4-cycle has width-2 decompositions that force a
        # Cartesian product (D1, D3) and ones that do not (D2).  Under the
        # ConCov constraint the solver must return one of the latter.
        constraint = ConnectedCoverConstraint(four_cycle, 2)
        result = constrained_candidate_td(
            four_cycle, soft_candidate_bags(four_cycle, 2), constraint=constraint
        )
        assert result is not None
        assert result.is_valid()
        assert constraint.holds_recursively(result)
        assert frozenset({"w", "x", "y", "z"}) not in result.bags()

    def test_h2_concov_increases_width_to_3(self, h2):
        # shw(H2) = 2, but the width-2 soft bags (e.g. {2,6,7,a,b}) only have
        # disconnected 2-edge covers, so the ConCov constraint pushes the
        # width up to 3 — another instance of the width increase Section 6
        # discusses for C5.
        constraint2 = ConnectedCoverConstraint(h2, 2)
        assert (
            constrained_candidate_td(
                h2, soft_candidate_bags(h2, 2), constraint=constraint2
            )
            is None
        )
        constraint3 = ConnectedCoverConstraint(h2, 3)
        result = constrained_candidate_td(
            h2, soft_candidate_bags(h2, 3), constraint=constraint3
        )
        assert result is not None
        assert result.is_valid()
        assert constraint3.holds_recursively(result)


class TestShallowCyclicity:
    def test_preference_complete_pair_finds_shallow_decomposition(self, four_cycle):
        bags = soft_candidate_bags(four_cycle, 2)
        constraint = ShallowCyclicityConstraint(four_cycle, depth=0)
        preference = ShallowCyclicityPreference(four_cycle)
        result = constrained_candidate_td(
            four_cycle, bags, constraint=constraint, preference=preference
        )
        assert result is not None
        assert constraint.holds_recursively(result)


class TestPartitionClustering:
    def test_example4_partitioned_decomposition(self):
        hypergraph, partition = example4_query()
        bags = soft_candidate_bags(hypergraph, 2)
        constraint = PartitionClusteringConstraint(hypergraph, partition, k=2)
        result = constrained_candidate_td(hypergraph, bags, constraint=constraint)
        assert result is not None
        assert result.is_valid()
        assert constraint.holds_recursively(result)


class TestTrivialAndTinyHypergraphs:
    def test_vertexless_hypergraph_accepts_trivially(self):
        empty = Hypergraph([])
        solver = ConstrainedCTDSolver(empty, [])
        assert solver.decide()
        decomposition = solver.solve()
        assert decomposition is not None
        assert decomposition.bags() == [frozenset()]
        assert decomposition.is_valid()
        assert reference_constrained_ctd(empty, []) is not None

    def test_single_vertex_hypergraph(self):
        single = Hypergraph({"e0": ["v"]})
        bags = soft_candidate_bags(single, 1)
        decomposition = constrained_candidate_td(single, bags)
        assert decomposition is not None
        assert decomposition.bags() == [frozenset({"v"})]
        assert decomposition.is_valid()

    def test_single_vertex_without_candidate_bags_is_infeasible(self):
        single = Hypergraph({"e0": ["v"]})
        solver = ConstrainedCTDSolver(single, [])
        assert not solver.decide()
        assert solver.solve() is None
        assert solver.optimal_key() is None


class TestWorklistEvents:
    """The answer does not depend on any sweep order.

    The solver resolves blocks top-down from the root, and a sub-block is
    final the first time a probe reads it, so no event ever needs to
    re-probe a block.  Reversing ``topological_order_ids`` (which the
    resolution does not consult) must change nothing.
    """

    def test_reversed_probe_order_converges_to_the_same_optimum(self, h2):
        bags = soft_candidate_bags(h2, 2)
        preference = MaxBagSizePreference()
        baseline = ConstrainedCTDSolver(h2, bags, preference=preference)
        expected_key = baseline.optimal_key()
        assert expected_key is not None

        shuffled = ConstrainedCTDSolver(h2, bags, preference=preference)
        order = shuffled.index.topological_order_ids()
        shuffled.index.topological_order_ids = lambda: list(reversed(order))
        assert shuffled.optimal_key() == expected_key
        assert set(shuffled.satisfied_blocks()) == set(baseline.satisfied_blocks())

    def test_reversed_order_with_constraint_and_cost(self, four_cycle):
        bags = soft_candidate_bags(four_cycle, 2)
        constraint = ConnectedCoverConstraint(four_cycle, 2)
        preference = MonotoneCostPreference(
            node_cost=lambda bag: len(bag) ** 2,
            edge_cost=lambda parent, child: len(parent & child) + 1,
        )
        baseline = ConstrainedCTDSolver(
            four_cycle, bags, constraint=constraint, preference=preference
        )
        shuffled = ConstrainedCTDSolver(
            four_cycle, bags, constraint=constraint, preference=preference
        )
        order = shuffled.index.topological_order_ids()
        shuffled.index.topological_order_ids = lambda: list(reversed(order))
        assert shuffled.optimal_key() == baseline.optimal_key()


class TestSolverIntrospection:
    def test_basis_of_and_satisfied_blocks(self, four_cycle):
        bags = soft_candidate_bags(four_cycle, 2)
        solver = ConstrainedCTDSolver(four_cycle, bags)
        assert solver.decide()
        root = solver.index.root_block
        root_basis = solver.basis_of(root)
        assert root_basis in set(solver.index.candidate_bags)
        satisfied = set(solver.satisfied_blocks())
        assert root in satisfied
        # Trivially satisfied blocks report the empty basis.
        trivial = next(b for b in satisfied if not b.component)
        assert solver.basis_of(trivial) == frozenset()

    def test_partial_decomposition_of_root_is_the_solution(self, four_cycle):
        bags = soft_candidate_bags(four_cycle, 2)
        solver = ConstrainedCTDSolver(four_cycle, bags)
        solution = solver.solve()
        partial = solver.partial_decomposition(solver.index.root_block)
        assert solution is not None and partial is not None
        assert solution.canonical_form() == partial.canonical_form()


class TestPreferenceOptimisation:
    def test_cost_preference_prefers_cheaper_decomposition(self, h2):
        bags = soft_candidate_bags(h2, 2)
        # Penalise large bags heavily: the optimum should avoid 6-vertex bags
        # whenever possible while still being a valid CTD.
        preference = CostPreference(
            lambda td: sum(len(bag) ** 2 for bag in td.bags())
        )
        solver = ConstrainedCTDSolver(h2, bags, preference=preference)
        best = solver.solve()
        assert best is not None
        unconstrained = shw_leq(h2, 2)
        assert preference.key(best) <= preference.key(unconstrained)

    def test_max_bag_size_preference(self, c5):
        bags = soft_candidate_bags(c5, 2)
        best = constrained_candidate_td(
            c5, bags, preference=MaxBagSizePreference()
        )
        assert best is not None
        assert max(len(bag) for bag in best.bags()) <= 4
