"""Fault suites for the supervised batch runtime.

The contract under test: any single worker's death — SIGKILL, a hang past
the hard timeout, an exception, garbage output — becomes a structured
failure of one *task attempt*, never of the batch; retries follow the
deterministic backoff schedule; repeated failures walk the degradation
ladder; and a batch resumed from its ledger is equivalent to an
uninterrupted run.

Tests that exercise real process isolation use :func:`toy_runner` (an
instant, scriptable task runner resolved inside the spawned worker) so a
supervisor test costs process startup, not a decomposition solve.
Scheduling-logic tests run with ``isolation="inline"`` and the injectable
``FakeClock``, which makes the backoff schedule exact.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.core.certify import Certification
from repro.runtime.checkpoint import BatchLedger, task_fingerprint
from repro.runtime.errors import (
    FAILURE_CRASHED,
    FAILURE_EXHAUSTED_RETRIES,
    FAILURE_INVALID_RESULT,
    FAILURE_TIMEOUT,
    TaskFailure,
)
from repro.runtime.faults import FakeClock
from repro.runtime.supervisor import (
    DEFAULT_LADDER,
    BatchReport,
    DegradationLevel,
    RetryPolicy,
    Supervisor,
    TaskResult,
)

TOY = "tests.test_supervisor:toy_runner"

FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.01, jitter=0.0)


def toy_runner(payload):
    """A scriptable stand-in for the harness runner (spawn-importable)."""
    import time as _time

    if payload.get("work_seconds"):
        _time.sleep(float(payload["work_seconds"]))
    if payload.get("counter_path"):
        with open(payload["counter_path"], "a", encoding="utf-8") as handle:
            handle.write(f"{payload.get('query', '?')}\n")
    if payload.get("interrupt_flag") and os.path.exists(payload["interrupt_flag"]):
        raise KeyboardInterrupt
    if payload["level"] in (payload.get("fail_levels") or ()):
        return {
            "ok": False,
            "reason": "budget_exhausted",
            "error": f"simulated exhaustion at {payload['level']}",
        }
    return {
        "ok": True,
        "query": payload.get("query"),
        "level": payload["level"],
        "mode": payload["mode"],
        "deadline": payload.get("deadline"),
        "max_work": payload.get("max_work"),
        "attempt": payload.get("attempt"),
    }


def task(name="t1", **overrides):
    spec = {"kind": "toy", "query": name}
    spec.update(overrides)
    return spec


def supervisor(**overrides):
    options = dict(task_runner=TOY, hard_timeout=30.0, retry=FAST_RETRY)
    options.update(overrides)
    return Supervisor(**options)


class TestProcessIsolation:
    def test_clean_batch_succeeds(self):
        report = supervisor(max_workers=2).run([task("a"), task("b")])
        assert [r.status for r in report.results] == ["ok", "ok"]
        assert all(r.attempts == 1 and not r.failures for r in report.results)
        assert report.exit_code == 0
        assert report.counts() == {"ok": 2}

    def test_sigkill_mid_batch_is_contained(self):
        tasks = [task("a", faults={"1": {"kind": "sigkill"}}), task("b")]
        report = supervisor(max_workers=2).run(tasks)
        victim, bystander = report.results
        assert victim.status == "ok" and victim.attempts == 2
        assert victim.failures[0]["kind"] == FAILURE_CRASHED
        assert "signal" in victim.failures[0]["message"]
        assert bystander.status == "ok" and not bystander.failures

    def test_hang_is_killed_at_the_hard_timeout(self):
        tasks = [task("a", faults={"1": {"kind": "hang"}})]
        report = supervisor(hard_timeout=1.0).run(tasks)
        result = report.results[0]
        assert result.status == "ok" and result.attempts == 2
        assert result.failures[0]["kind"] == FAILURE_TIMEOUT
        assert result.elapsed >= 1.0

    def test_timeout_escalation_walks_the_whole_ladder(self):
        # Every attempt hangs: each level's attempt is killed from the
        # parent, the ladder is exhausted, and the task is recorded failed
        # with every kill accounted for.
        tasks = [task("a", faults={"*": {"kind": "hang"}})]
        report = supervisor(
            hard_timeout=0.5, retry=RetryPolicy(max_attempts=1, base_delay=0.01, jitter=0.0)
        ).run(tasks)
        result = report.results[0]
        assert result.status == "failed"
        kinds = [f["kind"] for f in result.failures]
        assert kinds == [FAILURE_TIMEOUT] * len(DEFAULT_LADDER) + [
            FAILURE_EXHAUSTED_RETRIES
        ]
        assert report.exit_code == 1

    def test_garbage_reply_is_an_invalid_result(self):
        tasks = [task("a", faults={"1": {"kind": "garbage"}})]
        report = supervisor().run(tasks)
        result = report.results[0]
        assert result.status == "ok"
        assert result.failures[0]["kind"] == FAILURE_INVALID_RESULT

    def test_worker_exception_is_a_structured_crash(self):
        tasks = [task("a", faults={"1": {"kind": "raise", "message": "boom"}})]
        report = supervisor().run(tasks)
        result = report.results[0]
        assert result.status == "ok"
        assert result.failures[0]["kind"] == FAILURE_CRASHED
        assert "boom" in result.failures[0]["message"]


class TestDegradationLadder:
    def test_budget_failures_descend_and_tag_the_level(self):
        # The runner reports in-worker budget exhaustion at full and tight;
        # the decide rung succeeds and the result is tagged with it.
        tasks = [task("a", fail_levels=["full", "tight"], deadline=8.0, max_work=1000)]
        report = supervisor(isolation="inline").run(tasks)
        result = report.results[0]
        assert result.status == "ok"
        assert result.level == "decide"
        assert result.result["mode"] == "decide"
        kinds = [f["kind"] for f in result.failures]
        assert kinds == [FAILURE_TIMEOUT] * 4  # 2 attempts at full + 2 at tight
        # The degraded rungs actually got the scaled-down caps.
        assert result.result["deadline"] == pytest.approx(8.0 * 0.25)
        assert result.result["max_work"] == 250

    def test_exhausted_ladder_is_recorded_failed(self):
        tasks = [task("a", fail_levels=["full", "tight", "decide"])]
        report = supervisor(isolation="inline").run(tasks)
        result = report.results[0]
        assert result.status == "failed"
        assert result.failures[-1]["kind"] == FAILURE_EXHAUSTED_RETRIES
        assert result.attempts == 2 * len(DEFAULT_LADDER)
        assert report.exit_code == 1

    def test_fallback_work_cap_applies_when_task_has_none(self):
        tasks = [task("a", fail_levels=["full"])]
        report = supervisor(isolation="inline").run(tasks)
        result = report.results[0]
        assert result.level == "tight"
        assert result.result["max_work"] == DEFAULT_LADDER[1].fallback_max_work

    def test_custom_single_level_ladder(self):
        ladder = (DegradationLevel("only", mode="ranked"),)
        tasks = [task("a", fail_levels=["only"])]
        report = supervisor(isolation="inline", ladder=ladder).run(tasks)
        assert report.results[0].status == "failed"
        assert report.results[0].attempts == FAST_RETRY.max_attempts


class TestBackoff:
    def test_delay_is_deterministic_and_jitter_bounded(self):
        policy = RetryPolicy(base_delay=0.5, factor=2.0, max_delay=4.0, jitter=0.25)
        for attempt in range(1, 6):
            raw = min(0.5 * 2.0 ** (attempt - 1), 4.0)
            delay = policy.delay("fp", attempt)
            assert delay == policy.delay("fp", attempt)  # deterministic
            assert raw <= delay <= raw * 1.25
        # Distinct fingerprints de-correlate.
        assert policy.delay("fp-a", 1) != policy.delay("fp-b", 1)

    def test_zero_jitter_is_pure_exponential(self):
        policy = RetryPolicy(base_delay=0.1, factor=3.0, max_delay=10.0, jitter=0.0)
        assert [policy.delay("fp", n) for n in (1, 2, 3)] == pytest.approx(
            [0.1, 0.3, 0.9]
        )
        assert policy.delay("fp", 10) == 10.0  # capped

    def test_supervisor_sleeps_follow_the_schedule(self):
        # Inline isolation + FakeClock: every failure's backoff wait is
        # observable and must match RetryPolicy.delay exactly.
        clock = FakeClock()
        sleeps = []

        def sleep(seconds):
            sleeps.append(seconds)
            clock.advance(seconds)

        policy = RetryPolicy(max_attempts=2, base_delay=0.2, factor=2.0, jitter=0.25)
        spec = task("a", fail_levels=["full", "tight", "decide"])
        report = supervisor(
            isolation="inline", retry=policy, clock=clock, sleep=sleep
        ).run([spec])
        assert report.results[0].status == "failed"
        fingerprint = task_fingerprint(spec)
        # 6 failures; the last one exhausts the ladder, so 5 waits.
        assert sleeps == pytest.approx(
            [policy.delay(fingerprint, n) for n in range(1, 6)]
        )


class TestCertification:
    def test_rejected_result_is_quarantined_and_retried(self, tmp_path):
        verdicts = iter(
            [Certification(False, ("injected rejection",)), Certification(True)]
        )

        def certifier(spec, result):
            return next(verdicts)

        ledger = BatchLedger(str(tmp_path / "ledger.jsonl"))
        report = supervisor(isolation="inline", certifier=certifier).run(
            [task("a")], ledger=ledger
        )
        result = report.results[0]
        assert result.status == "ok" and result.attempts == 2
        assert result.failures[0]["kind"] == FAILURE_INVALID_RESULT
        quarantined = BatchLedger(str(tmp_path / "ledger.jsonl")).quarantined()
        assert len(quarantined) == 1
        assert "injected rejection" in quarantined[0]["reason"]

    def test_cached_results_are_recertified_on_resume(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        accept = lambda spec, result: Certification(True)
        report = supervisor(isolation="inline", certifier=accept).run(
            [task("a")], ledger=BatchLedger(path)
        )
        assert report.results[0].status == "ok"
        # A certifier that now rejects the ledger's record forces a re-run.
        verdicts = iter([Certification(False, ("bit rot",)), Certification(True)])
        report2 = supervisor(
            isolation="inline", certifier=lambda s, r: next(verdicts)
        ).run([task("a")], ledger=BatchLedger(path))
        assert report2.results[0].status == "ok"
        assert not report2.results[0].cached


class TestCheckpointResume:
    def test_resume_after_crash_equals_uninterrupted_run(self, tmp_path):
        counter = str(tmp_path / "count.txt")
        specs = [task(n, counter_path=counter) for n in ("a", "b", "c")]

        # Reference: an uninterrupted run.
        reference = supervisor(max_workers=2).run(
            specs, ledger=BatchLedger(str(tmp_path / "ref.jsonl"))
        )

        # Crashing run: task b dies on every attempt (fault directives are
        # non-semantic, so the fingerprint matches the healthy spec).
        path = str(tmp_path / "ledger.jsonl")
        crashing = [
            specs[0],
            dict(specs[1], faults={"*": {"kind": "sigkill"}}),
            specs[2],
        ]
        first = supervisor(
            max_workers=2,
            retry=RetryPolicy(max_attempts=1, base_delay=0.01, jitter=0.0),
        ).run(crashing, ledger=BatchLedger(path))
        assert [r.status for r in first.results] == ["ok", "failed", "ok"]

        runs_before = len(open(counter, encoding="utf-8").readlines())
        resumed = supervisor(max_workers=2).run(specs, ledger=BatchLedger(path))
        assert [r.status for r in resumed.results] == ["ok", "ok", "ok"]
        assert [r.cached for r in resumed.results] == [True, False, True]
        # Only the failed task was re-run...
        runs_after = len(open(counter, encoding="utf-8").readlines())
        assert runs_after == runs_before + 1
        # ...and the final result set equals the uninterrupted run's.
        assert [r.result for r in resumed.results] == [
            r.result for r in reference.results
        ]

    def test_interrupt_lands_as_a_clean_checkpoint(self, tmp_path):
        flag = str(tmp_path / "interrupt.flag")
        open(flag, "w").close()
        path = str(tmp_path / "ledger.jsonl")
        specs = [task("a"), task("b", interrupt_flag=flag)]
        report = supervisor(isolation="inline").run(specs, ledger=BatchLedger(path))
        assert report.interrupted
        assert report.exit_code == 130
        statuses = {r.fingerprint: r.status for r in report.results}
        assert sorted(statuses.values()) == ["interrupted", "ok"]
        # The interrupted task is retried on resume; the completed one is not.
        os.unlink(flag)
        resumed = supervisor(isolation="inline").run(specs, ledger=BatchLedger(path))
        assert not resumed.interrupted
        assert [r.status for r in resumed.results] == ["ok", "ok"]
        assert [r.cached for r in resumed.results] == [True, False]

    def test_duplicate_specs_collapse_to_one_task(self):
        report = supervisor(isolation="inline").run([task("a"), task("a")])
        assert len(report.results) == 1


class TestReport:
    def test_describe_summarises_outcomes_and_kinds(self):
        failure = TaskFailure(FAILURE_TIMEOUT, "too slow", level="full", attempt=1)
        report = BatchReport(
            [
                TaskResult(task("a"), "f1", "ok", level="full", attempts=1),
                TaskResult(
                    task("b"),
                    "f2",
                    "failed",
                    level="decide",
                    attempts=6,
                    failures=[failure.as_record()],
                ),
            ]
        )
        text = report.describe()
        assert "1 ok" in text and "1 failed" in text
        assert "timeout=1" in text
        assert report.failure_kinds() == {"timeout": 1}
        assert report.exit_code == 1

    def test_task_failure_round_trip(self):
        failure = TaskFailure(
            FAILURE_CRASHED, "died", fingerprint="f", level="tight", attempt=3,
            detail="signal 9",
        )
        rebuilt = TaskFailure.from_record(failure.as_record())
        assert rebuilt.kind == FAILURE_CRASHED
        assert rebuilt.level == "tight" and rebuilt.attempt == 3
        assert rebuilt.detail == "signal 9"

    def test_unknown_failure_kind_is_rejected(self):
        with pytest.raises(ValueError):
            TaskFailure("melted", "?")


class TestCacheSeam:
    """The pre-spawn cache probe: hits skip the worker, anything else
    falls through to a normal launch without burning an attempt."""

    def test_hit_satisfies_the_task_without_a_worker(self, tmp_path):
        counter = str(tmp_path / "ran")
        hit = {"ok": True, "query": "a", "level": "cache"}
        report = supervisor(
            isolation="inline", cache_lookup=lambda task: dict(hit)
        ).run([task("a", counter_path=counter)])
        result = report.results[0]
        assert result.status == "ok" and result.level == "cache"
        assert result.attempts == 0 and not result.failures
        assert result.result["query"] == "a"
        assert not result.cached  # "cached" is the ledger-resume flag
        assert not os.path.exists(counter)  # the runner never executed
        assert report.exit_code == 0

    def test_miss_and_lookup_error_fall_through(self, tmp_path):
        for probe in (lambda t: None, lambda t: {"ok": False}, None):
            report = supervisor(isolation="inline", cache_lookup=probe).run(
                [task("a")]
            )
            result = report.results[0]
            assert result.status == "ok" and result.level == "full"
            assert result.attempts == 1 and not result.failures

        def explode(t):
            raise RuntimeError("cache directory on fire")

        report = supervisor(isolation="inline", cache_lookup=explode).run([task("a")])
        result = report.results[0]
        assert result.status == "ok" and result.level == "full"
        assert result.attempts == 1 and not result.failures

    def test_certifier_rejected_hit_burns_no_attempt(self):
        def probe(t):
            return {"ok": True, "query": t.get("query"), "poisoned": True}

        def certifier(spec, payload):
            return Certification(
                not payload.get("poisoned"), ("stale cache entry",)
            )

        report = supervisor(
            isolation="inline", cache_lookup=probe, certifier=certifier
        ).run([task("a")])
        result = report.results[0]
        # The poisoned hit was silently discarded: the real run happened on
        # attempt 1 at the top rung with no recorded failure.
        assert result.status == "ok" and result.level == "full"
        assert result.attempts == 1 and not result.failures

    def test_only_virgin_tasks_consult_the_cache(self):
        calls = []

        def probe(t):
            calls.append(t.get("query"))
            return None

        report = supervisor(isolation="inline", cache_lookup=probe).run(
            [task("a", fail_levels=["full"])]
        )
        result = report.results[0]
        assert result.status == "ok" and result.level == "tight"
        # Retries and degraded rungs re-enter the pending queue, but only
        # the first (virgin) pick probed the cache.
        assert calls == ["a"]


PID = "tests.test_supervisor:pid_runner"


def pid_runner(payload):
    """:func:`toy_runner` plus the serving worker's pid (and ``blob_bytes``
    of padding, to outgrow the pipe buffer)."""
    result = dict(toy_runner(payload), pid=os.getpid())
    if payload.get("blob_bytes"):
        result["blob"] = "x" * int(payload["blob_bytes"])
    return result


def _reject_corrupted(spec, result):
    return Certification("decomposition" not in result, ("corrupted result",))


class TestPersistentWorkers:
    """One worker serves attempts until one fails; every retry runs in a
    fresh process, and no worker outlives ``run()``."""

    def test_one_worker_serves_the_whole_batch(self):
        tasks = [task(f"t{i}") for i in range(8)]
        for workers, most in ((1, 1), (2, 2)):
            report = supervisor(task_runner=PID, max_workers=workers).run(tasks)
            assert [r.status for r in report.results] == ["ok"] * 8
            assert all(r.attempts == 1 for r in report.results)
            pids = {r.result["pid"] for r in report.results}
            assert 1 <= len(pids) <= most
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "kind", ["raise", "garbage", "bad_result", "hang", "sigkill"]
    )
    def test_every_retry_runs_in_a_fresh_worker(self, kind):
        # Task a's worker is the only one; b's first attempt fails on it.
        tasks = [task("a"), task("b", faults={"1": {"kind": kind, "seconds": 60}})]
        report = supervisor(
            task_runner=PID,
            certifier=_reject_corrupted if kind == "bad_result" else None,
            hard_timeout=2.0 if kind == "hang" else 30.0,
        ).run(tasks)
        first, retried = report.results
        assert first.status == "ok" and first.attempts == 1
        assert retried.status == "ok" and retried.attempts == 2
        assert len(retried.failures) == 1
        assert retried.result["pid"] != first.result["pid"]
        assert multiprocessing.active_children() == []

    def test_reply_larger_than_the_pipe_buffer(self):
        report = supervisor(task_runner=PID, hard_timeout=5.0).run(
            [task("a", blob_bytes=256 * 1024)]
        )
        result = report.results[0]
        assert result.status == "ok" and result.attempts == 1
        assert not result.failures and result.elapsed < 5.0
        assert len(result.result["blob"]) == 256 * 1024

    def test_worker_that_died_idle_is_replaced_not_charged(self):
        def kill_the_worker(spec, result):
            if spec["query"] == "a":
                os.kill(result["pid"], signal.SIGKILL)
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline and any(
                    p.pid == result["pid"] for p in multiprocessing.active_children()
                ):
                    time.sleep(0.01)
            return Certification(True)

        report = supervisor(task_runner=PID, certifier=kill_the_worker).run(
            [task("a"), task("b")]
        )
        first, second = report.results
        assert second.status == "ok"
        assert second.attempts == 1 and not second.failures
        assert second.result["pid"] != first.result["pid"]

    def test_no_worker_outlives_an_interrupted_run(self, tmp_path):
        # The interrupt lands in the parent (the certifier of task b) while
        # task slow's worker is still busy.
        path = str(tmp_path / "ledger.jsonl")

        def interrupt_on_b(spec, result):
            if spec["query"] == "b":
                raise KeyboardInterrupt
            return Certification(True)

        specs = [task("slow", work_seconds=60), task("b")]
        report = supervisor(
            task_runner=PID, certifier=interrupt_on_b, max_workers=2
        ).run(specs, ledger=BatchLedger(path))
        assert report.interrupted and report.exit_code == 130
        assert [r.status for r in report.results] == ["interrupted"] * 2
        assert multiprocessing.active_children() == []
        resumed = supervisor(task_runner=PID, max_workers=2).run(
            [task("b")], ledger=BatchLedger(path)
        )
        assert [r.status for r in resumed.results] == ["ok"]

    def test_wire_payloads_match_inline_at_one_and_two_workers(self):
        from repro.experiments import harness

        specs = harness.batch_task_specs(scale=0.3)

        def wire(**options):
            report = Supervisor(certifier=harness.BatchCertifier(), **options).run(
                specs
            )
            records = []
            for result in report.results:
                record = dict(result.as_record(), elapsed=None)
                record["result"] = dict(
                    record["result"],
                    outcome=dict(record["result"]["outcome"], elapsed=None),
                )
                records.append(record)
            return records

        inline = wire(isolation="inline")
        assert [r["status"] for r in inline] == ["ok"] * len(specs)
        assert wire(max_workers=1) == inline
        assert wire(max_workers=2) == inline
