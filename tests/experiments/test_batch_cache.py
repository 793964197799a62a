"""The batch runtime's binding to the decomposition cache.

Covers the task-spec contract (each spec embeds its canonical
``SolveRequest`` wire payload), the worker shell (``execute_batch_task``)
and the hardened ``BatchCertifier`` — including the end-to-end path where
a warmed cache answers a supervised task through its worker, and the
parent certifies the hit like any other reply.
"""

import json

import pytest

from repro.core.cache import DecompositionCache
from repro.core.certify import certify_ctd, decomposition_to_payload
from repro.core.constraints import ConnectedCoverConstraint
from repro.core.solve import SolveRequest, execute
from repro.experiments import harness
from repro.experiments.harness import (
    BatchCertifier,
    batch_task_specs,
    benchmark_data_key,
    execute_batch_task,
)
from repro.runtime.checkpoint import BatchLedger, task_fingerprint
from repro.runtime.supervisor import (
    DEFAULT_LADDER,
    DegradationLevel,
    RetryPolicy,
    Supervisor,
    TaskResult,
)
from repro.workloads.registry import benchmark_query
from tests.batch_driver import drive

QUERY = "q_hto"
SCALE = 0.3


def forbidden_runner(payload):
    raise AssertionError("the supervisor must not run an attempt for this task")


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

    def test_cold_store_then_certified_hit(self, spec, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CTD_CACHE_OFF", raising=False)
        monkeypatch.setenv("REPRO_CTD_CACHE", str(tmp_path))
        cold = execute_batch_task(dict(spec, mode="ranked", level="full"))
        assert cold["ok"] is True and cold["cache"] == "stored"
        warm = execute_batch_task(dict(spec, mode="ranked", level="full"))
        assert warm["ok"] is True and warm["cache"] == "hit"
        assert (warm["query"], warm["mode"], warm["level"]) == (QUERY, "ranked", "full")
        assert warm["width"] == spec["width"]
        assert warm["decomposition"] == cold["decomposition"]
        # The parent certifies the hit like any worker reply.
        assert BatchCertifier()(dict(spec, mode="ranked"), warm)

    def test_poisoned_entry_is_quarantined_and_resolved(
        self, spec, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_CTD_CACHE_OFF", raising=False)
        monkeypatch.setenv("REPRO_CTD_CACHE", str(tmp_path))
        cold = execute_batch_task(dict(spec, mode="ranked", level="full"))
        store = DecompositionCache(str(tmp_path))
        (info,) = store.entries()
        with open(info.path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
        record["decompositions"] = [{"bags": [[0]], "parents": [None]}]
        with open(info.path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        resolved = execute_batch_task(dict(spec, mode="ranked", level="full"))
        assert resolved["ok"] is True and resolved["cache"] == "stored"
        assert resolved["decomposition"] == cold["decomposition"]
        assert any(p.endswith(".corrupt") for p in store.quarantined())
        assert BatchCertifier()(dict(spec, mode="ranked"), resolved)


class TestTaskWorkload:
    def test_task_coordinates_reach_the_loader(self, monkeypatch):
        calls = []

        def loader(name, scale=1.0, seed=None):
            calls.append((name, scale, seed))
            return (None, None, 0)

        monkeypatch.setattr(harness, "load_benchmark_workload", loader)
        harness.load_task_workload({"query": QUERY})
        harness.load_task_workload({"query": QUERY, "scale": None, "seed": None})
        harness.load_task_workload({"query": QUERY, "scale": "0.5", "seed": 7})
        assert calls == [(QUERY, 1.0, None), (QUERY, 1.0, None), (QUERY, 0.5, 7)]

    def test_task_loader_shares_the_memo(self, spec):
        loaded = harness.load_task_workload(spec)
        assert loaded is harness.load_benchmark_workload(QUERY, scale=SCALE)
        database, query, width = loaded
        assert width == spec["width"] == benchmark_query(QUERY).width


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
            retry=RetryPolicy(max_attempts=1, base_delay=0.01, jitter=0.0),
            certifier=BatchCertifier(),
        )
        (result,) = drive(supervisor, [spec]).results
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
            retry=RetryPolicy(max_attempts=1, base_delay=0.01, jitter=0.0),
            certifier=BatchCertifier(),
        )
        lenient = (DegradationLevel("full", mode="decide"),)
        (first,) = drive(Supervisor(ladder=lenient, **options), [spec], BatchLedger(path)).results
        assert first.level == "full"
        (resumed,) = drive(Supervisor(**options), [spec], BatchLedger(path)).results
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


class TestSupervisedRuns:
    """Every task runs in a worker through its runner, and every reply is
    certified once by the parent."""

    @staticmethod
    def supervised(spec):
        supervisor = Supervisor(
            certifier=BatchCertifier(),
            retry=RetryPolicy(max_attempts=1, base_delay=0.01, jitter=0.0),
        )
        (result,) = supervisor.run([spec]).results
        return result

    def test_warm_cache_hit_is_served_by_the_worker(
        self, spec, warm_store, monkeypatch
    ):
        cold = self.supervised(spec)  # the default cache is off (conftest)
        assert cold.result["cache"] == "off"
        monkeypatch.delenv("REPRO_CTD_CACHE_OFF")
        monkeypatch.setenv("REPRO_CTD_CACHE", warm_store.directory)
        warm = self.supervised(spec)
        assert (warm.status, warm.level, warm.attempts) == ("ok", "full", 1)
        assert not warm.failures and warm.result["cache"] == "hit"
        assert warm.result["decomposition"] == cold.result["decomposition"]

    def test_workers_ignore_fault_keys(self, spec):
        # A forged or stale spec cannot make a production worker crash
        # itself: fault directives are read by test runners only.
        result = self.supervised(dict(spec, faults={"1": {"kind": "raise"}}))
        assert (result.status, result.level, result.attempts) == ("ok", "full", 1)
        assert not result.failures

    def test_ledger_record_at_the_old_cache_level_resumes(self, spec, tmp_path):
        # Older ledgers recorded a hit served without a worker at level
        # "cache" with 0 attempts.  Such a record still resumes, certified
        # as the answer of the top rung.
        wire = execute_batch_task(dict(spec, mode="ranked", level="cache"))
        path = str(tmp_path / "ledger.jsonl")
        record = TaskResult(
            task=spec,
            fingerprint=task_fingerprint(spec),
            status="ok",
            level="cache",
            attempts=0,
            result=wire,
        ).as_record()
        with BatchLedger(path) as ledger:
            ledger.append(record)
        modes = []

        def certifier(task, result):
            modes.append(task["mode"])
            return BatchCertifier()(task, result)

        supervisor = Supervisor(
            task_runner="tests.experiments.test_batch_cache:forbidden_runner",
            certifier=certifier,
        )
        (resumed,) = drive(supervisor, [spec], BatchLedger(path)).results
        assert resumed.cached and (resumed.level, resumed.attempts) == ("cache", 0)
        assert resumed.result == wire and not resumed.failures
        assert modes == [DEFAULT_LADDER[0].mode]
