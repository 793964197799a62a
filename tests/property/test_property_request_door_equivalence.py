"""Request names reach the same answers as the reference specs.

The Section 6 constraints and preferences are built from
:class:`~repro.core.solve.SolveRequest` names only
(:func:`~repro.core.solve.constraint_object`,
:func:`~repro.core.solve.preference_object`).  The ``shallowcyc:<d>`` /
``shallowcyc`` pair, run through :func:`~repro.core.solve.execute`, must
agree with :func:`~repro.core.reference.reference_constrained_ctd` on
feasibility and optimal key, and with
:func:`~repro.core.reference.reference_enumerate_ctds` on the ranked
sequence.  A cached answer is served only after re-certification, and the
cache kinds of the older names are pinned byte for byte, so caches written
before ShallowCyc became a name keep hitting.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import solve as solve_module
from repro.core.cache import CACHE_VERSION, DecompositionCache
from repro.core.candidate_bags import soft_candidate_bags
from repro.core.constraints import ShallowCyclicityConstraint
from repro.core.preferences import ShallowCyclicityPreference
from repro.core.reference import reference_constrained_ctd, reference_enumerate_ctds
from repro.core.solve import SolveRequest, execute
from repro.hypergraph.generators import random_hypergraph
from repro.hypergraph.library import (
    cycle_hypergraph,
    four_cycle_query,
    triangle_hypergraph,
)

from tests.property.test_property_invariants import small_hypergraphs

SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SHALLOWCYC = {"constraint": "shallowcyc:1", "preference": "shallowcyc"}


def reference_objects(hypergraph):
    return (
        ShallowCyclicityConstraint(hypergraph, 1),
        ShallowCyclicityPreference(hypergraph),
    )


class TestShallowCycThroughTheDoor:
    @SETTINGS
    @given(small_hypergraphs(max_vertices=6, max_edges=6))
    def test_optimal_matches_the_reference(self, hypergraph):
        constraint, preference = reference_objects(hypergraph)
        request = SolveRequest(
            hypergraph=hypergraph, mode="optimal", width=2, **SHALLOWCYC
        )
        found = execute(request, cache=None).decomposition
        reference = reference_constrained_ctd(
            hypergraph,
            soft_candidate_bags(hypergraph, 2),
            constraint=constraint,
            preference=preference,
        )
        assert (found is None) == (reference is None)
        if found is not None:
            assert constraint.holds_recursively(found)
            assert preference.key(found) == preference.key(reference)

    @SETTINGS
    @given(small_hypergraphs(max_vertices=5, max_edges=5))
    def test_enumerate_matches_the_reference(self, hypergraph):
        constraint, preference = reference_objects(hypergraph)
        request = SolveRequest(
            hypergraph=hypergraph, mode="enumerate", width=2, limit=6, **SHALLOWCYC
        )
        enumerated = execute(request, cache=None).decompositions
        reference = reference_enumerate_ctds(
            hypergraph,
            soft_candidate_bags(hypergraph, 2),
            constraint=constraint,
            preference=preference,
            limit=6,
        )
        assert [d.canonical_form() for d in enumerated] == [
            d.canonical_form() for d in reference
        ]
        assert [preference.key(d) for d in enumerated] == [
            preference.key(d) for d in reference
        ]


@pytest.mark.parametrize(
    "hypergraph",
    [
        pytest.param(four_cycle_query(), id="four-cycle"),
        pytest.param(cycle_hypergraph(5), id="c5"),
        pytest.param(cycle_hypergraph(6), id="c6"),
        pytest.param(random_hypergraph(8, 7, seed=2), id="random-8-7-2"),
    ],
)
@pytest.mark.parametrize("mode", ["optimal", "enumerate"])
def test_a_cached_answer_is_recertified(hypergraph, mode, tmp_path, monkeypatch):
    request = SolveRequest(
        hypergraph=hypergraph, mode=mode, width=2, limit=3, **SHALLOWCYC
    )
    store = DecompositionCache(str(tmp_path))
    first = execute(request, cache=store)
    assert first.decided and first.cache_status == "stored"

    checks = []
    certify = solve_module.certify_ctd

    def counting(hypergraph, ctd, **kwargs):
        checks.append(kwargs["constraint"])
        return certify(hypergraph, ctd, **kwargs)

    monkeypatch.setattr(solve_module, "certify_ctd", counting)
    second = execute(request, cache=DecompositionCache(str(tmp_path)))
    assert second.cache_status == "hit"
    assert [d.canonical_form() for d in second.decompositions] == [
        d.canonical_form() for d in first.decompositions
    ]
    assert len(checks) == len(second.decompositions)
    assert all(isinstance(c, ShallowCyclicityConstraint) for c in checks)
    assert all(c.depth == 1 for c in checks)


def test_cache_kinds_of_the_older_names_are_pinned():
    triangle = triangle_hypergraph()
    pins = [
        (
            {"width": 2},
            '{"constraint":null,"data_key":null,"iterations":0,"limit":1,'
            '"mode":"decide","preference":null,"width":2}',
        ),
        (
            {"mode": "decide", "width": 3, "iterations": 1},
            '{"constraint":null,"data_key":null,"iterations":1,"limit":1,'
            '"mode":"decide","preference":null,"width":3}',
        ),
        (
            {"mode": "optimal", "width": 2, "constraint": "concov"},
            '{"constraint":"concov","data_key":null,"iterations":0,"limit":1,'
            '"mode":"optimal","preference":null,"width":2}',
        ),
        (
            {"mode": "optimal", "width": 2, "preference": "nodecount"},
            '{"constraint":null,"data_key":null,"iterations":0,"limit":1,'
            '"mode":"optimal","preference":"nodecount","width":2}',
        ),
        (
            {
                "mode": "enumerate",
                "width": 2,
                "constraint": "concov",
                "preference": "nodecount",
                "limit": 3,
            },
            '{"constraint":"concov","data_key":null,"iterations":0,"limit":3,'
            '"mode":"enumerate","preference":"nodecount","width":2}',
        ),
        (
            {
                "mode": "enumerate",
                "width": 2,
                "preference": "estimates",
                "data_key": "tpcds:1:7:q_ds:estimates",
                "limit": 10,
            },
            '{"constraint":null,"data_key":"tpcds:1:7:q_ds:estimates",'
            '"iterations":0,"limit":10,"mode":"enumerate",'
            '"preference":"estimates","width":2}',
        ),
        (
            {
                "mode": "optimal",
                "width": 2,
                "preference": "cardinalities",
                "data_key": "db:1",
            },
            '{"constraint":null,"data_key":"db:1","iterations":0,"limit":1,'
            '"mode":"optimal","preference":"cardinalities","width":2}',
        ),
    ]
    for fields, kind in pins:
        assert SolveRequest(hypergraph=triangle, **fields).cache_kind() == kind
    assert CACHE_VERSION == 1
