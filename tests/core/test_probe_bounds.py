"""Probe bounds: the bounded searches return exactly what the unbounded ones do.

Algorithm 2 skips a probe whose :meth:`~repro.core.preferences.Preference.
probe_bound` is ≥ its block's best key, and the lazy any-k enumerator opens a
probe's stream only when the probe's bound placeholder is popped.  The
executable spec of both is the same search with every bound switched off
(``probe_bound`` returning ``None``, the exhaustive behaviour): the CTD lists,
their keys and their order must be identical.  The work pins below count
streams and fragment evaluations, never time.
"""

import json
import random
from contextlib import contextmanager

import pytest

from repro.core import solve
from repro.core.candidate_bags import SoftBagGenerator, soft_candidate_bags
from repro.core.certify import decomposition_to_payload
from repro.core.constrained import ConstrainedCTDSolver
from repro.core.constraints import ConnectedCoverConstraint
from repro.core.enumerate import CTDEnumerator, enumerate_ctds
from repro.core.options import FragmentEvaluator
from repro.core.preferences import (
    LexicographicPreference,
    MonotoneCostPreference,
    NodeCountPreference,
    NoPreference,
    Preference,
)
from repro.core.reference import reference_constrained_ctd, reference_enumerate_ctds
from repro.db.cost import CardinalityPreference, make_cost_preference
from repro.hypergraph.generators import (
    random_cyclic_query_hypergraph,
    random_hypergraph,
)
from repro.hypergraph.library import cycle_hypergraph, grid_hypergraph, hypergraph_h2
from repro.workloads.registry import benchmark_queries

from tests.preference_fixtures import MaxBagSizePreference

#: Every preference class that overrides ``probe_bound``.
BOUNDED_CLASSES = (
    NoPreference,
    NodeCountPreference,
    MonotoneCostPreference,
    LexicographicPreference,
    CardinalityPreference,
)


def cost_preference():
    return MonotoneCostPreference(
        node_cost=lambda bag: len(bag) ** 2,
        edge_cost=lambda parent, child: len(parent & child) + 1,
    )


PREFERENCES = {
    "none": NoPreference,
    "nodecount": NodeCountPreference,
    "cost": cost_preference,
    "lexicographic-bounded": lambda: LexicographicPreference(
        [NodeCountPreference(), cost_preference()]
    ),
}

#: The ``solve_cold`` and ``batch_dedup`` shapes of ``benchmarks/e2e``.
BENCHMARK_SHAPES = (
    ("cycle24-decide", lambda: cycle_hypergraph(24), dict(mode="decide", width=2)),
    ("random26-decide", lambda: random_hypergraph(26, 18, seed=3), dict(mode="decide", width=2)),
    ("cyclic12-decide", lambda: random_cyclic_query_hypergraph(12, 3, seed=5), dict(mode="decide", width=2)),
    ("grid4x4-decide-negative", lambda: grid_hypergraph(4, 4), dict(mode="decide", width=2)),
    (
        "cyclic7-enumerate-concov",
        lambda: random_cyclic_query_hypergraph(7, 2, seed=1),
        dict(mode="enumerate", width=4, constraint="concov", preference="nodecount", limit=5),
    ),
    (
        "h2-optimal-concov",
        hypergraph_h2,
        dict(mode="optimal", width=3, constraint="concov", preference="nodecount"),
    ),
    (
        "cyclic10-optimal",
        lambda: random_cyclic_query_hypergraph(10, 3, seed=2),
        dict(mode="optimal", width=2, preference="nodecount"),
    ),
    ("cycle12-enumerate-top10", lambda: cycle_hypergraph(12), dict(mode="enumerate", width=2, limit=10)),
    ("grid3x4-softwidth", lambda: grid_hypergraph(3, 4), dict(mode="soft-width")),
    ("random18-softwidth", lambda: random_hypergraph(18, 15, seed=7), dict(mode="soft-width")),
    ("cycle12-enumerate-top3", lambda: cycle_hypergraph(12), dict(mode="enumerate", width=2, limit=3)),
    ("cycle16-decide", lambda: cycle_hypergraph(16), dict(mode="decide", width=2)),
)


@contextmanager
def unbounded(monkeypatch):
    """A context in which no preference has a probe bound."""
    with monkeypatch.context() as patch:
        for cls in BOUNDED_CLASSES:
            patch.setattr(cls, "probe_bound", Preference.probe_bound)
        yield


def ranked(decompositions, preference):
    """The CTDs as they would go on the wire, with their keys, in order."""
    return [
        (json.dumps(decomposition_to_payload(d)), preference.key(d))
        for d in decompositions
    ]


def solve_both_ways(hypergraph, bags, constraint, preference, limit=6):
    solver = ConstrainedCTDSolver(hypergraph, bags, constraint, preference)
    optimum = solver.solve()
    optimal = ranked([optimum] if optimum is not None else [], preference)
    top = enumerate_ctds(
        hypergraph, bags, constraint=constraint, preference=preference, limit=limit
    )
    return optimal, solver.optimal_key(), ranked(top, preference)


class TestBoundedEqualsUnbounded:
    def test_random_hypergraphs(self, monkeypatch):
        # Each instance gets one preference and, every third, ConCov: all
        # twelve combinations recur ten times over the 120 seeds.
        rng = random.Random(36)
        kinds = sorted(PREFERENCES)
        instances = []
        for seed in range(120):
            hypergraph = random_hypergraph(
                rng.randint(4, 8), rng.randint(3, 7), seed=seed
            )
            bags = soft_candidate_bags(hypergraph, 2)
            constraint = (
                ConnectedCoverConstraint(hypergraph, 2) if seed % 3 == 0 else None
            )
            instances.append((hypergraph, bags, constraint, kinds[seed % len(kinds)]))

        def answers():
            return [
                solve_both_ways(hypergraph, bags, constraint, PREFERENCES[kind]())
                for hypergraph, bags, constraint, kind in instances
            ]

        bounded = answers()
        with unbounded(monkeypatch):
            assert answers() == bounded
        assert sum(bool(optimal) for optimal, _, _ in bounded) > 60

    @pytest.mark.parametrize(
        "build,fields",
        [pytest.param(build, fields, id=name) for name, build, fields in BENCHMARK_SHAPES],
    )
    def test_benchmark_shapes(self, build, fields, monkeypatch):
        request = solve.SolveRequest(hypergraph=build(), **fields)

        def answer():
            result = solve.execute(request, cache=None)
            payloads = [decomposition_to_payload(d) for d in result.decompositions]
            return result.decided, result.width, json.dumps(payloads)

        bounded = answer()
        with unbounded(monkeypatch):
            assert answer() == bounded

    @pytest.mark.parametrize(
        "entry", [pytest.param(entry, id=entry.name) for entry in benchmark_queries()]
    )
    def test_cardinality_fold_on_benchmark_queries(self, entry, monkeypatch):
        database, query = entry.load(scale=0.3)
        hypergraph = query.hypergraph()
        bags = SoftBagGenerator(hypergraph, entry.width).candidate_bags()
        preference = make_cost_preference("cardinalities", query, database)

        def answers():
            constraint = ConnectedCoverConstraint(hypergraph, entry.width)
            return solve_both_ways(hypergraph, bags, constraint, preference, limit=10)

        bounded = answers()
        assert bounded[0]
        with unbounded(monkeypatch):
            assert answers() == bounded


class TestWorkPins:
    def test_cycle12_top10_opens_few_probe_streams(self, monkeypatch):
        hypergraph = cycle_hypergraph(12)
        bags = SoftBagGenerator(hypergraph, 2).candidate_bags()

        def streams_opened():
            enumerator = CTDEnumerator(hypergraph, bags)
            assert len(enumerator.enumerate(limit=10)) == 10
            return len(enumerator._probe_streams)

        assert streams_opened() <= 60
        with unbounded(monkeypatch):
            assert streams_opened() > 3000  # every probe of every reached block

    def test_h2_concov_node_count_optimum_evaluates_few_fragments(self, monkeypatch):
        hypergraph = hypergraph_h2()
        bags = SoftBagGenerator(hypergraph, 3).candidate_bags()
        constraint = ConnectedCoverConstraint(hypergraph, 3)
        calls = []
        evaluate = FragmentEvaluator.evaluate

        def counted(evaluator, fragment):
            calls.append(fragment)
            return evaluate(evaluator, fragment)

        monkeypatch.setattr(FragmentEvaluator, "evaluate", counted)

        def evaluations():
            calls.clear()
            solver = ConstrainedCTDSolver(
                hypergraph, bags, constraint, NodeCountPreference()
            )
            assert solver.solve() is not None
            return len(calls)

        assert evaluations() <= 800
        with unbounded(monkeypatch):
            assert evaluations() > 7000


class TestLexicographicKeys:
    # Tuple keys do not compare with -inf: a bound must be a tuple or None.
    @pytest.mark.parametrize(
        "components",
        [
            pytest.param(lambda: [MaxBagSizePreference(), NodeCountPreference()], id="unbounded"),
            pytest.param(lambda: [NodeCountPreference(), cost_preference()], id="bounded"),
        ],
    )
    def test_solve_and_enumerate(self, components):
        hypergraph = cycle_hypergraph(5)
        bags = soft_candidate_bags(hypergraph, 2)
        preference = LexicographicPreference(components())
        solver = ConstrainedCTDSolver(hypergraph, bags, preference=preference)
        assert solver.solve() is not None
        reference = reference_constrained_ctd(hypergraph, bags, preference=preference)
        assert solver.optimal_key() == preference.key(reference)
        top = enumerate_ctds(hypergraph, bags, preference=preference, limit=8)
        expected = reference_enumerate_ctds(hypergraph, bags, preference=preference, limit=8)
        assert ranked(top, preference) == ranked(expected, preference)

    def test_bound_is_none_unless_every_component_bounds(self):
        bag = frozenset({"a", "b"})
        partly = LexicographicPreference([NodeCountPreference(), MaxBagSizePreference()])
        assert partly.probe_bound(None, bag, [None]) is None
        fully = LexicographicPreference([NodeCountPreference(), cost_preference()])
        assert fully.probe_bound(None, bag, [(2, 5), None]) == (4, 4 + 5)
        assert fully.probe_bound(bag, bag, [None]) == (2, 4 + 3)
