"""Equations (7)–(9) as a fold equal the materialising spec, bit for bit.

:class:`repro.db.cost.CardinalityPreference` composes each fragment's key
from its children's ``(cost, ReducedSz, reducing variables)`` states, and
:meth:`repro.db.cost.CardinalityCostModel.decomposition_cost` walks the
materialised decomposition: it stays the executable spec.  Over the six
benchmark queries (ConCov at the registry width, top-10 ranking) at scales
0.3 and 1:

* every fragment Algorithm 2 or the enumerator evaluates has a composed key
  ``==`` the spec's cost of the materialised fragment — exact float
  equality, because the fold adds the same terms in the same order;
* ``optimal`` and ``enumerate`` return byte-identical payloads under the
  fold and under the spec ``CostPreference(model.decomposition_cost)``.
"""

import json

import pytest

from repro.core.candidate_bags import SoftBagGenerator
from repro.core.certify import decomposition_to_payload
from repro.core.constrained import ConstrainedCTDSolver
from repro.core.constraints import ConnectedCoverConstraint
from repro.core.enumerate import CTDEnumerator
from repro.core.preferences import CostPreference
from repro.db.cost import CardinalityPreference, make_cost_preference
from repro.workloads.registry import benchmark_queries

CASES = [
    pytest.param(entry, scale, id=f"{entry.name}-{scale}")
    for entry in benchmark_queries()
    for scale in (0.3, 1)
]


def solve(hypergraph, bags, width, preference):
    """Payloads of the optimum and the top 10, and the two evaluators."""
    constraint = ConnectedCoverConstraint(hypergraph, width)
    solver = ConstrainedCTDSolver(hypergraph, bags, constraint, preference)
    optimum = solver.solve()
    enumerator = CTDEnumerator(
        hypergraph, bags, constraint=constraint, preference=preference
    )
    top = enumerator.enumerate(limit=10)
    payloads = json.dumps([decomposition_to_payload(d) for d in [optimum, *top]])
    return payloads, (solver.core.evaluator, enumerator.core.evaluator)


@pytest.mark.parametrize("entry,scale", CASES)
def test_fold_matches_the_spec(entry, scale):
    database, query = entry.load(scale=scale)
    hypergraph = query.hypergraph()
    bags = SoftBagGenerator(hypergraph, entry.width).candidate_bags()
    fold = make_cost_preference("cardinalities", query, database)
    assert isinstance(fold, CardinalityPreference)
    model = fold.model

    payloads, evaluators = solve(hypergraph, bags, entry.width, fold)
    keyed = 0
    for evaluator in evaluators:
        for fragment, (key, _) in evaluator._state.items():
            assert key == model.decomposition_cost(evaluator.materialise(fragment))
            keyed += 1
    assert keyed >= 10

    spec = CostPreference(model.decomposition_cost)
    assert solve(hypergraph, bags, entry.width, spec)[0] == payloads
