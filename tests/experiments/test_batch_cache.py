"""The batch runtime's binding to the decomposition cache.

Covers the task-spec contract (each spec embeds its canonical
``SolveRequest`` wire payload), the worker shell (``execute_batch_task``),
the supervisor's pre-spawn probe (``BatchSolveCache``) and the hardened
``BatchCertifier`` — including the end-to-end path where a warmed cache
satisfies a supervised task without any worker at all.
"""

import pytest

from repro.core.cache import DecompositionCache
from repro.core.certify import certify_ctd, decomposition_to_payload
from repro.core.constraints import ConnectedCoverConstraint
from repro.core.solve import SolveRequest, execute
from repro.experiments.harness import (
    BatchCertifier,
    BatchSolveCache,
    batch_task_specs,
    benchmark_data_key,
    execute_batch_task,
)
from repro.runtime.checkpoint import BatchLedger
from repro.runtime.supervisor import DegradationLevel, RetryPolicy, Supervisor
from repro.workloads.registry import benchmark_query

QUERY = "q_hto"
SCALE = 0.3


def forbidden_runner(payload):
    raise AssertionError("the supervisor must not spawn a worker for this task")


def non_concov_payload(request):
    """A width-``k`` CTD of the request's hypergraph that is not ConCov."""
    plain = SolveRequest(
        hypergraph=request.hypergraph, mode="enumerate", width=request.width, limit=50
    )
    constraint = ConnectedCoverConstraint(request.hypergraph, request.width)
    for ctd in execute(plain, cache=None).decompositions:
        if not certify_ctd(request.hypergraph, ctd, constraint=constraint):
            return decomposition_to_payload(ctd)
    raise AssertionError("every enumerated CTD is ConCov")


def forged_runner(payload):
    """A worker that answers every rung with a non-ConCov CTD and labels
    the reply ``decide``, the rung whose question drops ConCov."""
    request = SolveRequest.from_payload(payload["request"])
    forged = non_concov_payload(request)
    return {
        "ok": True,
        "query": payload["query"],
        "mode": "decide",
        "level": payload["level"],
        "width": request.width,
        "decided": True,
        "decomposition": forged,
        "decompositions": [forged],
        "outcome": {"status": "complete", "work": 0, "elapsed": 0.0},
    }


@pytest.fixture(scope="module")
def spec():
    (spec,) = batch_task_specs([QUERY], scale=SCALE)
    return spec


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory, spec):
    """A cache already holding the spec's solve (worker-style store)."""
    store = DecompositionCache(str(tmp_path_factory.mktemp("ctd-cache")))
    entry = benchmark_query(QUERY)
    database, query = entry.load(scale=SCALE)
    request = SolveRequest.from_payload(spec["request"])
    result = execute(request, database=database, query=query, cache=store)
    assert result.cache_status == "stored"
    return store


class TestTaskSpecs:
    def test_spec_embeds_a_canonical_request(self, spec):
        assert spec["kind"] == "solve" and spec["query"] == QUERY
        request = SolveRequest.from_payload(spec["request"])
        assert request.mode == "enumerate" and request.constraint == "concov"
        assert request.preference == "cardinalities"
        assert request.width == benchmark_query(QUERY).width == spec["width"]
        assert request.data_key == benchmark_data_key(
            benchmark_query(QUERY), SCALE, None
        )
        assert request.cache_kind() is not None

    def test_data_key_pins_the_generator_coordinates(self):
        entry = benchmark_query(QUERY)
        default = benchmark_data_key(entry, 0.3, None)
        assert entry.dataset in default and "scale=0.3" in default
        assert benchmark_data_key(entry, 0.3, 99) != default
        assert benchmark_data_key(entry, 0.5, None) != default


class TestWorkerShell:
    def test_malformed_request_is_a_structured_failure(self):
        result = execute_batch_task({"query": QUERY, "request": {"oops": 1}})
        assert result["ok"] is False and result["reason"] == "malformed-request"

    def test_decide_mode_degrades_the_request(self, spec):
        result = execute_batch_task({**spec, "mode": "decide"})
        assert result["ok"] is True and result["mode"] == "decide"
        assert result["decided"] is True
        assert result["decomposition"] is not None


class TestBatchSolveCache:
    def test_guards_report_a_miss(self, spec, tmp_path):
        probe = BatchSolveCache(cache=None)
        assert probe.lookup(spec) is None  # no cache resolved
        probe = BatchSolveCache(cache=str(tmp_path))
        assert probe.lookup("not a task") is None
        assert probe.lookup({"kind": "toy"}) is None
        assert probe.lookup({"kind": "solve"}) is None  # no request payload
        assert probe.lookup({**spec, "request": {"bad": True}}) is None
        assert probe.lookup(spec) is None  # cold cache: honest miss

    def test_hit_is_the_worker_wire_format(self, spec, warm_store):
        wire = BatchSolveCache(cache=warm_store).lookup(spec)
        assert wire is not None
        assert wire["ok"] is True and wire["query"] == QUERY
        assert wire["mode"] == "ranked" and wire["level"] == "cache"
        assert wire["width"] == spec["width"]
        assert wire["decomposition"] is not None
        assert wire["cache"] == "hit"
        # And the parent-side certifier accepts it like any worker result.
        assert BatchCertifier()(spec, wire)


class TestBatchCertifier:
    def test_tampered_request_hypergraph_is_rejected(self, spec):
        certifier = BatchCertifier()
        tampered = {**spec, "request": dict(spec["request"])}
        hypergraph = dict(tampered["request"]["hypergraph"])
        edges = dict(hypergraph["edges"])
        edges.popitem()
        hypergraph["edges"] = edges
        tampered["request"] = {**tampered["request"], "hypergraph": hypergraph}
        certification = certifier(tampered, {"ok": True, "decomposition": None})
        assert not certification
        assert any("trusted" in reason for reason in certification.violations)

    def test_malformed_request_is_rejected(self, spec):
        certification = BatchCertifier()(
            {**spec, "request": {"oops": 1}}, {"ok": True}
        )
        assert not certification
        assert any("malformed" in reason for reason in certification.violations)

    def test_decomposition_must_be_the_first_entry(self, spec):
        wire = execute_batch_task(dict(spec, mode="ranked", level="full"))
        assert BatchCertifier()(spec, wire)
        request = SolveRequest.from_payload(spec["request"])
        forged = dict(wire, decompositions=[non_concov_payload(request)])
        certification = BatchCertifier()(spec, forged)
        assert not certification
        assert any("first" in reason for reason in certification.violations)

    def test_the_reply_cannot_choose_its_rung(self, spec):
        supervisor = Supervisor(
            task_runner="tests.experiments.test_batch_cache:forged_runner",
            isolation="inline",
            retry=RetryPolicy(max_attempts=1, base_delay=0.01, jitter=0.0),
            certifier=BatchCertifier(),
        )
        (result,) = supervisor.run([spec]).results
        # The full and tight rungs asked for a ConCov CTD, whatever the
        # reply says; only the decide rung asked the question it answers.
        assert [(f["kind"], f["level"]) for f in result.failures] == [
            ("invalid_result", "full"),
            ("invalid_result", "tight"),
        ]
        assert result.status == "ok" and result.level == "decide"

    def test_ledger_record_is_certified_as_its_recorded_rung(self, spec, tmp_path):
        # Recorded at a rung named "full" that asked the decide question;
        # under the default ladder "full" asks for ConCov, so on resume the
        # record is quarantined and the task re-runs down to "decide".
        path = str(tmp_path / "ledger.jsonl")
        options = dict(
            task_runner="tests.experiments.test_batch_cache:forged_runner",
            isolation="inline",
            retry=RetryPolicy(max_attempts=1, base_delay=0.01, jitter=0.0),
            certifier=BatchCertifier(),
        )
        lenient = (DegradationLevel("full", mode="decide"),)
        (first,) = Supervisor(ladder=lenient, **options).run(
            [spec], ledger=BatchLedger(path)
        ).results
        assert first.level == "full"
        (resumed,) = Supervisor(**options).run(
            [spec], ledger=BatchLedger(path)
        ).results
        assert not resumed.cached and resumed.level == "decide"
        recorded, *attempts = BatchLedger(path).quarantined()
        assert recorded["attempt"] == 0 and "re-certification" in recorded["reason"]
        assert [q["level"] for q in attempts] == ["full", "tight"]

    def test_task_without_request_is_rejected(self, spec):
        wire = execute_batch_task(dict(spec, mode="ranked", level="full"))
        bare = {k: v for k, v in spec.items() if k != "request"}
        certification = BatchCertifier()(bare, wire)
        assert not certification
        assert any("malformed" in reason for reason in certification.violations)


class TestSupervisedCacheHit:
    def test_warm_cache_satisfies_the_task_with_no_worker(self, spec, warm_store):
        supervisor = Supervisor(
            task_runner="tests.experiments.test_batch_cache:forbidden_runner",
            isolation="inline",
            retry=RetryPolicy(max_attempts=1, base_delay=0.01, jitter=0.0),
            certifier=BatchCertifier(),
            cache_lookup=BatchSolveCache(cache=warm_store).lookup,
        )
        report = supervisor.run([spec])
        result = report.results[0]
        assert result.status == "ok" and result.level == "cache"
        assert result.attempts == 0 and not result.failures
        assert result.result["decomposition"] is not None
        assert report.exit_code == 0
