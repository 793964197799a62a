"""Unit suite for the solve front door (`repro.core.solve`).

Covers the request contract (validation, canonical serialisation, stable
fingerprints, cache-kind rules), the execute() paths (solve, store, hit,
isomorphic hit, soft-width search, budget truncation) and the trust model:
every cache hit is re-certified, poisoned entries are quarantined and
re-solved, and negative or truncated answers never enter the cache.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.core import solve as solve_module
from repro.core.cache import DecompositionCache
from repro.core.solve import (
    DATA_PREFERENCES,
    SolveRequest,
    certify_claim,
    execute,
)
from repro.core.candidate_bags import soft_candidate_bags
from repro.core.certify import decomposition_to_payload
from repro.core.constrained import constrained_candidate_td
from repro.core.constraints import ShallowCyclicityConstraint
from repro.decompositions.td import TreeDecomposition
from repro.hypergraph.generators import random_hypergraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.runtime.budget import Budget


def relabeled_triangle():
    """The triangle query shape under completely different names."""
    return Hypergraph({"ab": ["alpha", "beta"], "bg": ["beta", "gamma"], "ga": ["gamma", "alpha"]})


class TestRequestContract:
    def test_defaults_and_frozen(self, triangle):
        request = SolveRequest(hypergraph=triangle, width=2)
        assert request.mode == "decide"
        with pytest.raises(Exception):
            request.mode = "optimal"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "best"},
            {"constraint": "acyclic"},
            {"preference": "random"},
            {"mode": "decide", "width": None},
            {"width": 0},
            {"mode": "soft-width", "width": 0},
            {"iterations": -1},
            {"limit": 0},
            {"mode": "decide", "constraint": "concov"},
            {"mode": "decide", "preference": "nodecount"},
            # ShallowCyc_d only with its preference-complete toptd.
            {"mode": "optimal", "constraint": "shallowcyc:1"},
            {"mode": "optimal", "constraint": "shallowcyc:1", "preference": "nodecount"},
            # One spelling per depth: a decimal without sign or leading zeros.
            {"mode": "optimal", "constraint": "shallowcyc:", "preference": "shallowcyc"},
            {"mode": "optimal", "constraint": "shallowcyc:-1", "preference": "shallowcyc"},
            {"mode": "optimal", "constraint": "shallowcyc:01", "preference": "shallowcyc"},
            {"mode": "optimal", "constraint": "shallowcyc:x", "preference": "shallowcyc"},
        ],
    )
    def test_invalid_requests_are_rejected(self, triangle, kwargs):
        spec = {"hypergraph": triangle, "width": 2}
        spec.update(kwargs)
        with pytest.raises(ValueError):
            SolveRequest(**spec)

    @pytest.mark.parametrize("constraint", ["shallowcyc:0", "shallowcyc:1", "shallowcyc:10"])
    def test_shallowcyc_names_are_accepted(self, triangle, constraint):
        request = SolveRequest(
            hypergraph=triangle,
            mode="optimal",
            width=2,
            constraint=constraint,
            preference="shallowcyc",
        )
        assert constraint in request.cache_kind()

    def test_shallowcyc_needs_its_preference_complete_pair(self):
        """Why the guard exists: Algorithm 2 keeps one least CTD per block,
        so under ShallowCyc_1 without the ShallowCyc preference it misses a
        CTD that the preference-complete pair (Example 5) finds."""
        hypergraph = random_hypergraph(8, 7, seed=2)
        constraint = ShallowCyclicityConstraint(hypergraph, 1)
        bags = soft_candidate_bags(hypergraph, 2)
        assert constrained_candidate_td(hypergraph, bags, constraint=constraint) is None
        request = SolveRequest(
            hypergraph=hypergraph,
            mode="optimal",
            width=2,
            constraint="shallowcyc:1",
            preference="shallowcyc",
        )
        found = execute(request, cache=None).decomposition
        assert found is not None and found.is_valid()
        assert constraint.holds_recursively(found)

    def test_payload_round_trip(self, triangle):
        request = SolveRequest(
            hypergraph=triangle,
            mode="enumerate",
            width=2,
            constraint="concov",
            preference="nodecount",
            limit=3,
            data_key="tpcds:scale=1:seed=7:q",
            label="round-trip",
        )
        clone = SolveRequest.from_payload(
            json.loads(json.dumps(request.to_payload()))
        )
        assert clone == request
        assert clone.fingerprint() == request.fingerprint()

    @pytest.mark.parametrize("deadline,max_work", [(None, None), (1.5, 1000)])
    def test_old_payload_with_request_caps_still_parses(
        self, triangle, deadline, max_work
    ):
        # Payloads written when requests carried their own resource caps
        # keep those two keys; they are ignored, and the request is the same.
        request = SolveRequest(
            hypergraph=triangle, mode="optimal", width=2, constraint="concov"
        )
        payload = request.to_payload()
        assert "deadline" not in payload and "max_work" not in payload
        old = dict(payload, deadline=deadline, max_work=max_work)
        parsed = SolveRequest.from_payload(json.loads(json.dumps(old)))
        assert parsed == request
        assert parsed.fingerprint() == request.fingerprint()
        assert parsed.cache_kind() == request.cache_kind()

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            "not a dict",
            {},
            {"hypergraph": {"vertices": ["x"]}},
            {"hypergraph": {"edges": {"e": ["x"]}}, "mode": "bogus"},
            {"hypergraph": {"edges": {"e": ["x"]}}, "limit": "many"},
        ],
    )
    def test_malformed_payloads_raise_value_error(self, payload):
        with pytest.raises(ValueError):
            SolveRequest.from_payload(payload)

    def test_fingerprint_ignores_non_semantic_fields(self, triangle):
        base = SolveRequest(hypergraph=triangle, width=2)
        relabeled = SolveRequest(hypergraph=triangle, width=2, label="x")
        assert relabeled.fingerprint() == base.fingerprint()
        assert (
            SolveRequest(hypergraph=triangle, width=3).fingerprint()
            != base.fingerprint()
        )

    def test_cache_kind_rules(self, triangle):
        assert SolveRequest(hypergraph=triangle, mode="soft-width").cache_kind() is None
        data_blind = SolveRequest(
            hypergraph=triangle, mode="optimal", width=2, preference="cardinalities"
        )
        assert data_blind.preference in DATA_PREFERENCES
        assert data_blind.cache_kind() is None
        keyed = SolveRequest(
            hypergraph=triangle,
            mode="optimal",
            width=2,
            preference="cardinalities",
            data_key="db:1",
        )
        assert keyed.cache_kind() is not None
        decide = SolveRequest(hypergraph=triangle, width=2)
        optimal = SolveRequest(hypergraph=triangle, mode="optimal", width=2)
        assert decide.cache_kind() != optimal.cache_kind()
        # Labels are non-semantic: same kind.
        labelled = SolveRequest(hypergraph=triangle, width=2, label="x")
        assert labelled.cache_kind() == decide.cache_kind()

    def test_degraded_to_decide(self, triangle):
        request = SolveRequest(
            hypergraph=triangle,
            mode="enumerate",
            width=2,
            constraint="concov",
            preference="cardinalities",
            limit=5,
            data_key="db:1",
            label="full",
        )
        degraded = request.degraded_to_decide()
        assert degraded.mode == "decide"
        assert degraded.constraint is None and degraded.preference is None
        assert degraded.limit == 1 and degraded.data_key is None
        assert degraded.hypergraph is request.hypergraph
        assert degraded.label == "full"


class TestExecute:
    def test_decide_without_cache(self, triangle):
        result = execute(SolveRequest(hypergraph=triangle, width=2), cache=None)
        assert result.decided and result.width == 2
        assert result.decomposition is not None
        assert result.complete
        assert result.cache_status == "off" and result.cache_stats is None

    def test_a_solve_is_one_serial_process(self):
        """``import repro`` plus an ``execute()`` loads no shared-memory or
        intra-solve parallel machinery (a fresh interpreter, so modules
        other tests imported do not count)."""
        script = (
            "import sys, repro\n"
            "from repro.core.solve import SolveRequest, execute\n"
            "from repro.hypergraph.library import four_cycle_query\n"
            "request = SolveRequest(hypergraph=four_cycle_query(), mode='optimal',"
            " width=2, constraint='concov')\n"
            "assert execute(request, cache=None).decided\n"
            "print([m for m in sys.modules if m == 'multiprocessing.shared_memory'"
            " or m.startswith('repro.runtime.parallel')])\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
            check=True,
        )
        assert result.stdout.strip() == "[]"

    def test_infeasible_width_is_a_complete_no(self, triangle):
        result = execute(SolveRequest(hypergraph=triangle, width=1), cache=None)
        assert not result.decided and result.width is None
        assert result.complete and not result.decompositions

    def test_store_then_hit(self, triangle, tmp_path):
        store = DecompositionCache(str(tmp_path))
        request = SolveRequest(hypergraph=triangle, width=2)
        first = execute(request, cache=store)
        assert first.cache_status == "stored"
        second = execute(request, cache=store)
        assert second.cache_status == "hit"
        assert store.stats.as_dict()["rejected"] == 0
        assert second.decomposition.bag_multiset() == first.decomposition.bag_multiset()

    def test_isomorphic_hypergraph_hits_with_its_own_names(self, triangle, tmp_path):
        store = DecompositionCache(str(tmp_path))
        solved = execute(SolveRequest(hypergraph=triangle, width=2), cache=store)
        other = relabeled_triangle()
        result = execute(SolveRequest(hypergraph=other, width=2), cache=store)
        assert result.cache_status == "hit"
        for bag in result.decomposition.bags():
            assert bag <= other.vertices
        assert sorted(map(len, result.decomposition.bags())) == sorted(
            map(len, solved.decomposition.bags())
        )

    def test_negative_answers_are_never_cached(self, triangle, tmp_path):
        store = DecompositionCache(str(tmp_path))
        result = execute(SolveRequest(hypergraph=triangle, width=1), cache=store)
        assert not result.decided
        assert result.cache_status == "miss"
        assert store.stats.stores == 0 and store.entries() == []

    def test_truncated_results_are_never_cached(self, triangle, tmp_path):
        store = DecompositionCache(str(tmp_path))
        result = execute(
            SolveRequest(hypergraph=triangle, width=2),
            cache=store,
            budget=Budget(max_work=1),
        )
        assert result.outcome.partial
        assert store.stats.stores == 0 and store.entries() == []

    def test_data_preference_without_key_is_uncacheable(
        self, triangle, triangle_database, triangle_query, tmp_path
    ):
        store = DecompositionCache(str(tmp_path))
        request = SolveRequest(
            hypergraph=triangle_query.hypergraph(),
            mode="optimal",
            width=2,
            preference="cardinalities",
        )
        result = execute(
            request, database=triangle_database, query=triangle_query, cache=store
        )
        assert result.decided
        assert result.cache_status == "uncacheable"
        assert store.entries() == []

    def test_data_preference_needs_database(self, triangle):
        request = SolveRequest(
            hypergraph=triangle, mode="optimal", width=2, preference="cardinalities"
        )
        with pytest.raises(ValueError, match="database"):
            execute(request, cache=None)


class TestSoftWidth:
    def test_finds_least_width(self, triangle):
        result = execute(SolveRequest(hypergraph=triangle, mode="soft-width"), cache=None)
        assert result.decided and result.width == 2
        assert result.decomposition is not None

    def test_bound_below_answer_is_a_complete_no(self, triangle):
        result = execute(
            SolveRequest(hypergraph=triangle, mode="soft-width", width=1), cache=None
        )
        assert not result.decided and result.width is None and result.complete

    def test_positive_levels_cache_negative_levels_resolve(self, triangle, tmp_path):
        store = DecompositionCache(str(tmp_path))
        first = execute(SolveRequest(hypergraph=triangle, mode="soft-width"), cache=store)
        assert first.width == 2
        # Only the k=2 witness was stored; the k=1 "no" has no certificate.
        assert len(store.entries()) == 1
        second = execute(SolveRequest(hypergraph=triangle, mode="soft-width"), cache=store)
        assert second.width == 2 and second.cache_status == "hit"

    @pytest.mark.parametrize("cached", [False, True], ids=["no-store", "store"])
    def test_cyclic_level_one_is_answered_by_gyo(self, triangle, tmp_path, monkeypatch, cached):
        # shw = 1 iff α-acyclic: the triangle's level 1 is never solved, and
        # the answer reports the status a cache miss reports.
        def no_solve(*args, **kwargs):
            raise AssertionError("level 1 of a cyclic hypergraph was solved")

        monkeypatch.setattr(solve_module, "_solve_fixed_width", no_solve)
        store = DecompositionCache(str(tmp_path)) if cached else None
        result = execute(
            SolveRequest(hypergraph=triangle, mode="soft-width", width=1), cache=store
        )
        assert not result.decided and result.width is None and result.complete
        assert result.cache_status == ("miss" if cached else "off")

    def test_acyclic_level_one_still_caches(self, tmp_path):
        path = Hypergraph({"R": ["a", "b"], "S": ["b", "c"]})
        store = DecompositionCache(str(tmp_path))
        request = SolveRequest(hypergraph=path, mode="soft-width")
        assert execute(request, cache=store).cache_status == "stored"
        served = execute(request, cache=store)
        assert served.width == 1 and served.cache_status == "hit"


class TestCacheTrust:
    def poison(self, store, mutate):
        """Rewrite the single cache entry through ``mutate(record)``."""
        (info,) = store.entries()
        with open(info.path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
        mutate(record)
        with open(info.path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        return info.path

    def test_unparseable_entry_is_quarantined_and_resolved(self, triangle, tmp_path):
        store = DecompositionCache(str(tmp_path))
        request = SolveRequest(hypergraph=triangle, width=2)
        execute(request, cache=store)
        (info,) = store.entries()
        with open(info.path, "w", encoding="utf-8") as handle:
            handle.write("{ not json")
        result = execute(request, cache=store)
        assert result.decided and result.width == 2
        assert result.cache_status == "stored"  # re-solved and re-stored
        assert store.stats.quarantined == 1
        assert any(p.endswith(".corrupt") for p in store.quarantined())

    def test_wrong_bags_fail_certification_and_requarantine(self, triangle, tmp_path):
        store = DecompositionCache(str(tmp_path))
        request = SolveRequest(hypergraph=triangle, width=2)
        execute(request, cache=store)

        def break_bags(record):
            # A syntactically valid record whose CTD no longer covers the
            # hypergraph: certification must catch it, not JSON parsing.
            record["decompositions"] = [{"bags": [[0]], "parents": [None]}]

        self.poison(store, break_bags)
        result = execute(request, cache=store)
        assert result.decided and result.width == 2
        assert result.cache_status == "stored"
        assert store.stats.rejected == 1
        # And the re-stored entry serves correctly again.
        assert execute(request, cache=store).cache_status == "hit"

    def test_out_of_range_canonical_index_is_rejected(self, triangle, tmp_path):
        store = DecompositionCache(str(tmp_path))
        request = SolveRequest(hypergraph=triangle, width=2)
        execute(request, cache=store)

        def break_indices(record):
            record["decompositions"][0]["bags"][0] = [0, 99]

        self.poison(store, break_indices)
        result = execute(request, cache=store)
        assert result.decided
        assert store.stats.rejected == 1

    def test_record_at_another_width_is_rejected(self, c5, tmp_path):
        # A genuine width-2 record of C5 stored under the width-1 kind: its
        # CTD certifies at the width it names, but the request asks whether
        # shw <= 1, and C5 has no such CTD.
        from repro.hypergraph.canonical import canonical_form

        store = DecompositionCache(str(tmp_path))
        wide = SolveRequest(hypergraph=c5, width=2)
        assert execute(wide, cache=store).cache_status == "stored"
        fingerprint = canonical_form(c5).fingerprint
        narrow = SolveRequest(hypergraph=c5, width=1)
        record = store.get(fingerprint, wide.cache_kind())
        path = store.put(fingerprint, narrow.cache_kind(), record)
        result = execute(narrow, cache=store)
        assert result.decided is False and result.cache_status == "miss"
        assert store.stats.rejected == 1
        assert not os.path.exists(path)
        assert any(p.endswith(".corrupt") for p in store.quarantined())


class TestCertifyClaim:
    """The claim rules beyond the CTD certificate itself."""

    def claim(self, c5, **fields):
        wire = execute(SolveRequest(hypergraph=c5, width=2), cache=None).to_payload()
        return dict(wire, **fields)

    def test_honest_claim_is_served(self, c5):
        result = certify_claim(SolveRequest(hypergraph=c5, width=2), self.claim(c5))
        assert result.decided and result.width == 2 and len(result.decompositions) == 1

    @pytest.mark.parametrize(
        "fields",
        [
            {"decided": False},  # says no while carrying a CTD
            {"decompositions": [], "decomposition": None},  # says yes, shows none
            {"outcome": {"status": "bogus"}},
            {"width": None},
            "not a dict",
        ],
        ids=["no-with-ctd", "yes-without-ctd", "bad-status", "no-width", "not-a-dict"],
    )
    def test_inconsistent_claims_are_rejected(self, c5, fields):
        claim = fields if isinstance(fields, str) else self.claim(c5, **fields)
        with pytest.raises(ValueError):
            certify_claim(SolveRequest(hypergraph=c5, width=2), claim)

    def test_reply_at_another_width_is_rejected(self, c5):
        """A width-2 CTD of C5 certifies at width 2, but it is no answer to a
        width-1 request: the request's width is the claim, not the reply's."""
        claim = self.claim(c5)
        assert claim["decided"] and claim["width"] == 2
        with pytest.raises(ValueError):
            certify_claim(SolveRequest(hypergraph=c5, width=1), claim)
        assert certify_claim(SolveRequest(hypergraph=c5, width=2), claim).decided

    def test_decomposition_that_is_not_the_first_entry_is_rejected(self, four_cycle):
        """``decomposition`` is what the ledger and its readers use, so it must
        be the first certified entry, not a field nobody checked."""
        request = SolveRequest(
            hypergraph=four_cycle, mode="enumerate", width=2, constraint="concov", limit=2
        )
        claim = execute(request, cache=None).to_payload()
        first, second = claim["decompositions"]
        assert first != second
        assert certify_claim(request, claim).decided
        with pytest.raises(ValueError):
            certify_claim(request, dict(claim, decomposition=second))

    @pytest.mark.parametrize(
        "bags,parents,names",
        [
            # Example 3's D1: the root bag's only 2-edge covers are
            # disconnected, a Cartesian product.
            (
                [{"w", "x", "y", "z"}, {"x", "y"}],
                [None, 0],
                {"constraint": "concov"},
            ),
            # The cyclic bag sits at depth 1, below an edge-covered root.
            (
                [{"x", "y"}, {"w", "x", "y", "z"}],
                [None, 0],
                {"constraint": "shallowcyc:0", "preference": "shallowcyc"},
            ),
        ],
        ids=["concov", "shallowcyc:0"],
    )
    def test_claim_violating_the_constraint_is_rejected(
        self, four_cycle, bags, parents, names
    ):
        """The CTD certifies without a constraint, so only the request's
        constraint can reject it."""
        payload = decomposition_to_payload(
            TreeDecomposition.from_bags(four_cycle, bags, parents)
        )
        claim = {
            "decided": True,
            "width": 2,
            "decompositions": [payload],
            "decomposition": payload,
        }
        plain = SolveRequest(hypergraph=four_cycle, mode="optimal", width=2)
        assert certify_claim(plain, claim).decided
        constrained = SolveRequest(
            hypergraph=four_cycle, mode="optimal", width=2, **names
        )
        with pytest.raises(ValueError, match="claimed constraint does not hold"):
            certify_claim(constrained, claim)

    @pytest.mark.parametrize("status", ["complete", "deadline"])
    def test_negative_claim_needs_a_complete_search(self, c5, status):
        request = SolveRequest(hypergraph=c5, width=1)
        negative = {
            "decided": False,
            "width": 1,
            "decompositions": [],
            "decomposition": None,
            "outcome": {"status": status},
        }
        if status == "complete":
            assert certify_claim(request, negative).decided is False
        else:
            with pytest.raises(ValueError, match="incomplete"):
                certify_claim(request, negative)
