"""Bag-local constraints are decided once per bag, never per fragment.

:class:`repro.core.constraints.ConnectedCoverConstraint` is bag local: a
decomposition complies iff each of its bags has a connected cover, and
:class:`repro.core.options.SolverCore` keeps only the candidate bags that
do.  So :meth:`repro.core.options.FragmentEvaluator.compliant` accepts every
fragment without materialising it, and ``holds_recursively`` checks the
bags once instead of once per subtree.  Both shortcuts are checked here
against the checks they replace:

* every fragment the enumerator and Algorithm 2 build
  over ConCov-filtered bags of random hypergraphs (k ∈ {2, 3}) passes
  ``holds`` and ``holds_recursively`` on its materialised decomposition;
* on random tree decompositions ConCov's ``holds_recursively`` equals the
  base class's walk over every subtree.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.candidate_bags import soft_candidate_bags
from repro.core.constrained import ConstrainedCTDSolver
from repro.core.constraints import ConnectedCoverConstraint
from repro.core.enumerate import enumerate_ctds
from repro.core.options import FragmentEvaluator
from repro.core.preferences import NodeCountPreference
from repro.hypergraph.generators import random_hypergraph

from tests.preference_fixtures import MaxBagSizePreference
from tests.property.test_property_invariants import valid_tree_decompositions


class WalkedConnectedCover(ConnectedCoverConstraint):
    """ConCov decided by the base class's per-subtree walk."""

    bag_local = False


@pytest.mark.parametrize("k", [2, 3])
def test_every_built_fragment_complies(k, monkeypatch):
    built = []
    compliant = FragmentEvaluator.compliant

    def recorded(evaluator, fragment):
        built.append((evaluator, fragment))
        return compliant(evaluator, fragment)

    monkeypatch.setattr(FragmentEvaluator, "compliant", recorded)
    rng = random.Random(46 + k)
    filtered_out = 0
    for seed in range(25):
        hypergraph = random_hypergraph(rng.randint(4, 5), rng.randint(3, 6), seed=seed)
        bags = soft_candidate_bags(hypergraph, k)
        constraint = ConnectedCoverConstraint(hypergraph, k)
        filtered_out += len(bags) - len(constraint.filter_bags(bags))
        for preference in (NodeCountPreference(), MaxBagSizePreference()):
            enumerate_ctds(
                hypergraph, bags, constraint=constraint, preference=preference, limit=20
            )
        ConstrainedCTDSolver(hypergraph, bags, constraint, NodeCountPreference()).solve()
    assert filtered_out > 0
    assert len(built) > 1000
    for evaluator, fragment in built:
        decomposition = evaluator.materialise(fragment)
        assert evaluator.constraint.holds(decomposition)
        assert evaluator.constraint.holds_recursively(decomposition)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(valid_tree_decompositions(), st.integers(min_value=1, max_value=3))
def test_holds_recursively_equals_the_subtree_walk(td, k):
    once = ConnectedCoverConstraint(td.hypergraph, k).holds_recursively(td)
    assert once == WalkedConnectedCover(td.hypergraph, k).holds_recursively(td)
