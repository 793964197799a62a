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
    MonotoneCostPreference,
    NodeCountPreference,
    NoPreference,
    ShallowCyclicityPreference,
)
from repro.core.reference import reference_constrained_ctd
from repro.core.solve import SolveRequest, execute
from repro.db.cost import EstimateCostModel
from repro.hypergraph.library import cycle_hypergraph, hypergraph_h2
from repro.workloads.tpcds import build_tpcds_database, tpcds_query_qds

from tests.preference_fixtures import MaxBagSizePreference
from tests.property.test_property_invariants import small_hypergraphs

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
    @pytest.mark.parametrize("preference_kind", PREFERENCE_KINDS)
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

    @SETTINGS
    @given(small_hypergraphs(max_vertices=6, max_edges=6))
    def test_shallow_cyclicity_preference_unconstrained(self, hypergraph):
        assert_equivalent(hypergraph, "none", "shallow")

    @pytest.mark.parametrize(
        "hypergraph,constraint_kind,preference_kind",
        [
            pytest.param(hypergraph_h2(), "none", "lexicographic", id="h2-lexicographic"),
            # ConCov has no width-2 CTD of C12: a pure (negative) decide.
            pytest.param(cycle_hypergraph(12), "concov", "bag-size", id="cycle12-concov"),
        ],
    )
    def test_library_instances(self, hypergraph, constraint_kind, preference_kind):
        assert_equivalent(hypergraph, constraint_kind, preference_kind)

    def test_workload_query_concov_estimate_cost(self):
        # Section 7's setting on TPC-DS QdS: ConCov prunes Cartesian-product
        # bags, the Eq. 6 estimate cost (Appendix C.2.1) ranks the rest.
        database = build_tpcds_database(scale=0.1)
        query = tpcds_query_qds(database)
        hypergraph = query.hypergraph()
        constraint = ConnectedCoverConstraint(hypergraph, 2)
        preference = EstimateCostModel(query, database).as_preference()
        request = SolveRequest(
            hypergraph=hypergraph,
            mode="optimal",
            width=2,
            constraint="concov",
            preference="estimates",
        )
        decomposition = execute(
            request, database=database, query=query, cache=None
        ).decomposition
        assert decomposition is not None and decomposition.is_valid()
        assert constraint.holds_recursively(decomposition)

        bags = soft_candidate_bags(hypergraph, 2)
        solver = ConstrainedCTDSolver(hypergraph, bags, constraint, preference)
        reference = reference_constrained_ctd(
            hypergraph, bags, constraint=constraint, preference=preference
        )
        assert solver.solve() is not None and reference is not None
        # Float costs: the two solvers may sum children in different orders.
        reference_key = preference.key(reference)
        assert solver.optimal_key() == pytest.approx(reference_key, rel=1e-6, abs=1e-6)


def test_an_inflated_node_count_bound_is_caught(monkeypatch):
    # A bound one above the least key is unsound: it makes Algorithm 2 skip
    # a probe that would win.
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
        assert_equivalent(cycle_hypergraph(5), "none", "nodecount")
