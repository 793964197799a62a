"""Unit tests for the exact lazy any-k CTD enumerator."""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.core.candidate_bags import soft_candidate_bags
from repro.core.constraints import ConnectedCoverConstraint
from repro.core.enumerate import CTDEnumerator, enumerate_ctds, fragment_to_decomposition
from repro.core.preferences import (
    MonotoneCostPreference,
    NodeCountPreference,
)
from repro.core.reference import reference_enumerate_ctds
from repro.hypergraph.generators import random_cyclic_query_hypergraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.library import cycle_hypergraph

from tests.preference_fixtures import MaxBagSizePreference


class TestEnumerateBasics:
    def test_returns_valid_distinct_decompositions(self, h2):
        bags = soft_candidate_bags(h2, 2)
        decompositions = enumerate_ctds(h2, bags, limit=5)
        assert decompositions
        forms = set()
        for decomposition in decompositions:
            assert decomposition.is_valid()
            assert decomposition.uses_bags_from(bags)
            forms.add(decomposition.canonical_form())
        assert len(forms) == len(decompositions)

    def test_empty_when_no_ctd_exists(self, triangle):
        bags = soft_candidate_bags(triangle, 1)
        assert enumerate_ctds(triangle, bags, limit=5) == []

    def test_limit_respected(self, h2):
        bags = soft_candidate_bags(h2, 2)
        assert len(enumerate_ctds(h2, bags, limit=3)) <= 3
        assert enumerate_ctds(h2, bags, limit=0) == []

    def test_single_candidate_bag(self, triangle):
        decompositions = enumerate_ctds(
            triangle, [frozenset(triangle.vertices)], limit=5
        )
        assert len(decompositions) == 1
        assert decompositions[0].tree.num_nodes() == 1

    def test_prefix_stability(self, four_cycle):
        # Any-k: asking for more results never changes the ones already seen.
        bags = soft_candidate_bags(four_cycle, 2)
        preference = NodeCountPreference()
        ten = enumerate_ctds(four_cycle, bags, preference=preference, limit=10)
        three = enumerate_ctds(four_cycle, bags, preference=preference, limit=3)
        assert [d.canonical_form() for d in three] == [
            d.canonical_form() for d in ten[:3]
        ]


class TestEnumerateRanking:
    def test_preference_orders_results(self, h2):
        bags = soft_candidate_bags(h2, 2)
        preference = NodeCountPreference()
        decompositions = enumerate_ctds(h2, bags, preference=preference, limit=10)
        keys = [preference.key(d) for d in decompositions]
        assert keys == sorted(keys)

    def test_max_bag_size_ranking(self, c5):
        bags = soft_candidate_bags(c5, 2)
        preference = MaxBagSizePreference()
        decompositions = enumerate_ctds(c5, bags, preference=preference, limit=10)
        assert decompositions
        keys = [preference.key(d) for d in decompositions]
        assert keys == sorted(keys)

    def test_exact_top_k_matches_reference(self, four_cycle):
        # The lazy path (Eq. 6-shaped cost) against exhaustive generation +
        # sort; integer costs so the keys compare exactly.
        bags = soft_candidate_bags(four_cycle, 2)

        def make():
            return MonotoneCostPreference(
                node_cost=lambda bag: len(bag) ** 2,
                edge_cost=lambda parent, child: len(parent & child) + 1,
            )

        got = enumerate_ctds(four_cycle, bags, preference=make(), limit=10)
        want = reference_enumerate_ctds(four_cycle, bags, preference=make(), limit=10)
        assert [d.canonical_form() for d in got] == [
            d.canonical_form() for d in want
        ]


class TestEnumerateWithConstraints:
    def test_concov_constraint_respected(self, four_cycle):
        bags = soft_candidate_bags(four_cycle, 2)
        constraint = ConnectedCoverConstraint(four_cycle, 2)
        decompositions = enumerate_ctds(four_cycle, bags, constraint=constraint, limit=5)
        # Example 3: Cartesian-product bags must never appear; the connected
        # width-2 decompositions (like D2) remain.
        assert decompositions
        for decomposition in decompositions:
            assert constraint.holds_recursively(decomposition)
            assert frozenset({"w", "x", "y", "z"}) not in decomposition.bags()

    def test_concov_width_2_impossible_for_c5(self, c5):
        bags = soft_candidate_bags(c5, 2)
        constraint = ConnectedCoverConstraint(c5, 2)
        assert enumerate_ctds(c5, bags, constraint=constraint, limit=5) == []

    def test_concov_allows_wider_bags(self, c5):
        bags = soft_candidate_bags(c5, 3)
        constraint = ConnectedCoverConstraint(c5, 3)
        decompositions = enumerate_ctds(c5, bags, constraint=constraint, limit=5)
        assert decompositions
        for decomposition in decompositions:
            assert constraint.holds_recursively(decomposition)


class TestTrivialAndTinyHypergraphs:
    def test_vertexless_hypergraph_yields_the_trivial_decomposition(self):
        # The solvers accept the vertex-less hypergraph with the
        # single-empty-bag CTD; the enumerator must yield it too.
        empty = Hypergraph([])
        decompositions = enumerate_ctds(empty, [])
        assert len(decompositions) == 1
        assert decompositions[0].bags() == [frozenset()]
        assert decompositions[0].is_valid()
        reference = reference_enumerate_ctds(empty, [])
        assert [d.canonical_form() for d in decompositions] == [
            d.canonical_form() for d in reference
        ]

    def test_single_vertex_hypergraph(self):
        single = Hypergraph({"e0": ["v"]})
        bags = soft_candidate_bags(single, 1)
        decompositions = enumerate_ctds(single, bags)
        assert len(decompositions) == 1
        assert decompositions[0].bags() == [frozenset({"v"})]
        assert decompositions[0].is_valid()

    def test_single_vertex_without_candidate_bags_is_infeasible(self):
        single = Hypergraph({"e0": ["v"]})
        assert enumerate_ctds(single, []) == []


class TestDeterministicTieBreak:
    def test_repeated_enumerations_agree(self, h2):
        bags = soft_candidate_bags(h2, 2)
        first = enumerate_ctds(h2, bags, limit=8)
        second = enumerate_ctds(h2, bags, limit=8)
        assert [d.canonical_form() for d in first] == [
            d.canonical_form() for d in second
        ]

    def test_order_is_stable_across_hash_seeds(self):
        # The tie-break is canonical sorted-vertex tuples, never frozenset
        # ``repr``: re-running the enumeration in subprocesses with different
        # PYTHONHASHSEED values (different frozenset iteration orders) must
        # produce the identical ranked sequence.
        script = textwrap.dedent(
            """
            from repro.core.candidate_bags import soft_candidate_bags
            from repro.core.enumerate import enumerate_ctds
            from repro.hypergraph.library import four_cycle_query

            hypergraph = four_cycle_query()
            bags = soft_candidate_bags(hypergraph, 2)
            for decomposition in enumerate_ctds(hypergraph, bags, limit=10):
                print(decomposition.canonical_form())
            """
        )
        outputs = []
        for hash_seed in ("0", "1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
            env["PYTHONPATH"] = os.path.abspath(src)
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0].strip()
        assert outputs[0] == outputs[1] == outputs[2]


class TestRemovedParameters:
    """The PR 4 beam-era no-ops are gone, not just deprecated."""

    def test_beam_and_caps_are_rejected(self, h2):
        bags = soft_candidate_bags(h2, 2)
        with pytest.raises(TypeError):
            enumerate_ctds(h2, bags, limit=5, beam=2)
        with pytest.raises(TypeError):
            CTDEnumerator(h2, bags, combinations_per_basis=1)

    def test_no_deprecation_warnings(self, h2, recwarn):
        bags = soft_candidate_bags(h2, 2)
        enumerate_ctds(h2, bags, limit=2)
        assert not [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]


class TestFragments:
    def test_fragment_to_decomposition_roundtrip(self, triangle):
        fragment = (frozenset({"x", "y", "z"}), ())
        decomposition = fragment_to_decomposition(triangle, fragment)
        assert decomposition.tree.num_nodes() == 1
        with_head = fragment_to_decomposition(
            triangle, fragment, head=frozenset({"x"})
        )
        assert with_head.tree.num_nodes() == 2
        assert with_head.bag(with_head.tree.root) == frozenset({"x"})


def _spy_enumerators(monkeypatch):
    """Every :class:`CTDEnumerator` built from now on, in order."""
    built = []
    original = CTDEnumerator.__init__

    def spy(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(CTDEnumerator, "__init__", spy)
    return built


#: The eight ``batch_supervised`` tasks of the end-to-end benchmark (scale
#: 0.3, each workload's default seed): fragments evaluated and streams
#: opened by the ConCov + ``cardinalities`` enumeration at the registry
#: width.  Building every option of every block took 174 / 4 532 / 4 532 /
#: 174 / 403 / 5 630 / 1 228 / 13 options and 9 305 evaluated fragments.
SUPERVISED_COUNTS = (
    ("q_ds", 56, 2),
    ("q_hto", 306, 8),
    ("q_hto2", 279, 8),
    ("q_hto3", 53, 2),
    ("q_hto4", 114, 2),
    ("q_lb", 337, 2),
    ("jl04", 170, 3),
    ("jl08", 7, 1),
)


@pytest.mark.parametrize(
    "name,fragments,streams",
    SUPERVISED_COUNTS,
    ids=[case[0] for case in SUPERVISED_COUNTS],
)
def test_supervised_enumeration_counts(monkeypatch, name, fragments, streams):
    """Eq. 7-9 ranking builds one option per interface combination, not all."""
    from repro.core.solve import SolveRequest, execute
    from repro.experiments.harness import batch_task_specs, load_task_workload
    from repro.workloads.registry import benchmark_query

    entry = benchmark_query(name)
    seed = entry.workload.default_seed
    spec = batch_task_specs(queries=[name], scale=0.3, seed=seed)[0]
    database, query, _ = load_task_workload(spec)
    built = _spy_enumerators(monkeypatch)
    request = SolveRequest.from_payload(spec["request"])
    assert execute(request, database=database, query=query, cache=None).decided
    (enumerator,) = built
    assert len(enumerator.core.evaluator._state) == fragments
    assert len(enumerator._probe_streams) == streams


@pytest.mark.parametrize(
    "build,fields,streams",
    [
        pytest.param(
            lambda: random_cyclic_query_hypergraph(7, 2, seed=1),
            dict(width=4, constraint="concov", preference="nodecount", limit=5),
            1147,
            id="cyclic7-enumerate-concov",
        ),
        pytest.param(
            lambda: cycle_hypergraph(12),
            dict(width=2, limit=10),
            39,
            id="cycle12-enumerate-top10",
        ),
    ],
)
def test_single_class_streams_of_solve_cold(monkeypatch, build, fields, streams):
    """No preference and the node count are one class per block: each probe
    opens as one stream, exactly as many as before interface classes."""
    from repro.core.solve import SolveRequest, execute

    built = _spy_enumerators(monkeypatch)
    request = SolveRequest(hypergraph=build(), mode="enumerate", **fields)
    assert execute(request, cache=None).complete
    (enumerator,) = built
    assert len(enumerator._probe_streams) == streams
