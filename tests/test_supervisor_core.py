"""Policy tests of the supervised batch runtime, without processes.

Every decision of the supervisor — the degradation ladder, retries and
their backoff, certification verdicts, ledger resume and quarantine, the
interrupted status, the report — is made by
:class:`~repro.runtime.supervisor.BatchCore`, a pure state machine.  These
tests drive it with synthetic events at explicit times, or through
:func:`tests.batch_driver.drive`, which answers each attempt in this
process with :func:`tests.test_supervisor.toy_runner` (never with its
``sigkill`` or ``hang`` faults, which would act on this process).  A
hypothesis state machine checks the core's invariants under arbitrary
event interleavings.  What only real processes show is tested in
``tests/test_supervisor.py``.
"""

import json
from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.certify import Certification
from repro.runtime.budget import EXIT_CODES, STATUS_INTERRUPTED
from repro.runtime.checkpoint import BatchLedger, task_fingerprint
from repro.runtime.errors import (
    FAILURE_CRASHED,
    FAILURE_EXHAUSTED_RETRIES,
    FAILURE_INVALID_RESULT,
    FAILURE_KINDS,
    FAILURE_TIMEOUT,
)
from repro.runtime.supervisor import (
    DEFAULT_LADDER,
    BatchCore,
    BatchReport,
    DegradationLevel,
    Finish,
    Launch,
    Record,
    Retire,
    RetryPolicy,
    Supervisor,
    TaskResult,
)
from tests.batch_driver import drive
from tests.test_supervisor import FAST_RETRY, TOY, supervisor, task

PLAIN = "tests.test_supervisor:plain_runner"


def reject_bad(spec, result):
    """Certifies every result but the ones a test marks ``bad``."""
    return Certification(not result.get("bad"), ("injected rejection",))


def launches(actions):
    return [action for action in actions if isinstance(action, Launch)]


class TestDegradationLadder:
    def test_budget_failures_descend_and_tag_the_level(self):
        # The runner reports in-worker budget exhaustion at full and tight;
        # the decide rung succeeds and the result is tagged with it.
        tasks = [task("a", fail_levels=["full", "tight"], deadline=8.0, max_work=1000)]
        result = drive(supervisor(), tasks).results[0]
        assert result.status == "ok"
        assert result.level == "decide"
        assert result.result["mode"] == "decide"
        kinds = [f["kind"] for f in result.failures]
        assert kinds == [FAILURE_TIMEOUT] * 4  # 2 attempts at full + 2 at tight
        # The degraded rungs actually got the scaled-down caps.
        assert result.result["deadline"] == pytest.approx(8.0 * 0.25)
        assert result.result["max_work"] == 250

    def test_exhausted_ladder_is_recorded_failed(self):
        report = drive(supervisor(), [task("a", fail_levels=["full", "tight", "decide"])])
        result = report.results[0]
        assert result.status == "failed"
        assert result.failures[-1]["kind"] == FAILURE_EXHAUSTED_RETRIES
        assert result.attempts == 2 * len(DEFAULT_LADDER)
        assert report.exit_code == 1

    def test_fallback_work_cap_applies_when_task_has_none(self):
        result = drive(supervisor(), [task("a", fail_levels=["full"])]).results[0]
        assert result.level == "tight"
        assert result.result["max_work"] == DEFAULT_LADDER[1].fallback_max_work

    def test_custom_single_level_ladder(self):
        ladder = (DegradationLevel("only", mode="ranked"),)
        report = drive(supervisor(ladder=ladder), [task("a", fail_levels=["only"])])
        assert report.results[0].status == "failed"
        assert report.results[0].attempts == FAST_RETRY.max_attempts

    def test_hard_timeouts_walk_the_whole_ladder(self):
        # Every attempt overruns: each is timed out exactly at its hard
        # deadline, its worker retired, and the task descends to failed.
        retry = RetryPolicy(max_attempts=1, base_delay=0.25, jitter=0.0)
        core = BatchCore(supervisor(hard_timeout=2.0, retry=retry))
        core.add(task("a"))
        fingerprint = task_fingerprint(task("a"))
        now, levels = 0.0, []
        actions = core.advance(now)
        while not isinstance(actions[-1], Finish):
            (launch,) = launches(actions)
            levels.append(launch.payload["level"])
            assert core.advance(now + 1.999) == []
            now += 2.0
            actions = core.advance(now)
            assert actions[0] == Retire(fingerprint)
            if not isinstance(actions[-1], Finish):
                now += retry.delay(fingerprint, len(levels))
                assert core.wake_at() == now
                actions = core.advance(now)
        assert levels == [level.name for level in DEFAULT_LADDER]
        result = actions[-1].report.results[0]
        assert [f["kind"] for f in result.failures] == [FAILURE_TIMEOUT] * 3 + [
            FAILURE_EXHAUSTED_RETRIES
        ]
        assert "hard wall-clock timeout (2s)" in result.failures[0]["message"]
        assert result.elapsed == pytest.approx(6.0)


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

    def test_retries_wait_out_the_schedule(self):
        # Each retry launches exactly when RetryPolicy.delay says, and not
        # a moment before.
        policy = RetryPolicy(max_attempts=2, base_delay=0.2, factor=2.0, jitter=0.25)
        core = BatchCore(supervisor(retry=policy))
        core.add(task("a"))
        fingerprint = task_fingerprint(task("a"))
        now, waits = 0.0, []
        actions = core.advance(now)
        while launches(actions):
            now += 0.5  # the attempt's own run time
            core.reply(fingerprint, {"ok": False, "reason": "deadline"}, now)
            if core.pending:
                wake = core.wake_at()
                assert launches(core.advance(wake - 1e-9)) == []
                waits.append(wake - now)
                now = wake
            actions = core.advance(now)
        assert isinstance(actions[-1], Finish)
        # 6 failures; the last one exhausts the ladder, so 5 waits.
        assert waits == pytest.approx([policy.delay(fingerprint, n) for n in range(1, 6)])

    def test_a_full_worker_pool_waits_on_deadlines_only(self):
        # With every slot busy, a ready task cannot launch, so the next
        # wake-up is the running attempt's hard deadline, not "now".
        core = BatchCore(supervisor(hard_timeout=30.0))
        core.add(task("a"))
        core.add(task("b"))
        assert len(launches(core.advance(5.0))) == 1
        assert core.wake_at() == 35.0


    def test_the_hard_timeout_is_the_supervisors_alone(self):
        # A task key named hard_timeout is data like any other: it sets no
        # allowance, and a non-numeric one raises nothing mid-batch.
        core = BatchCore(supervisor(hard_timeout=30.0))
        core.add(task("a", hard_timeout="soon"))
        (launch,) = launches(core.advance(0.0))
        assert launch.payload["hard_timeout"] == "soon"
        assert core.wake_at() == 30.0


class TestCertification:
    def test_rejected_result_is_quarantined_and_retried(self, tmp_path):
        verdicts = iter(
            [Certification(False, ("injected rejection",)), Certification(True)]
        )
        ledger = BatchLedger(str(tmp_path / "ledger.jsonl"))
        report = drive(supervisor(certifier=lambda s, r: next(verdicts)), [task("a")], ledger)
        result = report.results[0]
        assert result.status == "ok" and result.attempts == 2
        assert result.failures[0]["kind"] == FAILURE_INVALID_RESULT
        quarantined = BatchLedger(str(tmp_path / "ledger.jsonl")).quarantined()
        assert len(quarantined) == 1
        assert "injected rejection" in quarantined[0]["reason"]

    def test_cached_results_are_recertified_on_resume(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        accept = lambda spec, result: Certification(True)
        report = drive(supervisor(certifier=accept), [task("a")], BatchLedger(path))
        assert report.results[0].status == "ok"
        # A certifier that now rejects the ledger's record forces a re-run.
        verdicts = iter([Certification(False, ("bit rot",)), Certification(True)])
        rerun = supervisor(certifier=lambda s, r: next(verdicts))
        report2 = drive(rerun, [task("a")], BatchLedger(path))
        assert report2.results[0].status == "ok"
        assert not report2.results[0].cached

    def test_ok_record_without_a_result_is_quarantined_and_rerun(self, tmp_path):
        # A hand-written (or truncated) ok record with "result": null must
        # not resume: it holds no answer to certify.
        path = str(tmp_path / "ledger.jsonl")
        spec = task("a")
        fingerprint = task_fingerprint(spec)
        with BatchLedger(path) as ledger:
            ledger.append(TaskResult(spec, fingerprint, "ok", "full", 1).as_record())
        calls = []

        def certifier(spec, result):
            calls.append(result)
            return Certification(isinstance(result, dict) and result.get("ok") is True)

        config = supervisor(certifier=certifier)
        core = BatchCore(config, BatchLedger(path).completed())
        (quarantine,) = core.add(spec)
        assert quarantine.record["type"] == "quarantine"
        assert quarantine.record["attempt"] == 0
        assert "ledger result failed re-certification" in quarantine.record["reason"]
        assert [state.fingerprint for state in core.pending] == [fingerprint]
        report = drive(config, [spec], BatchLedger(path))
        (result,) = report.results
        assert (result.status, result.cached, result.attempts) == ("ok", False, 1)
        assert len(calls) == 1 and calls[0]["query"] == "a"
        assert len(BatchLedger(path).quarantined()) == 1

    def test_a_certifier_that_raises_rejects(self, tmp_path):
        calls = []

        def certifier(spec, result):
            calls.append(spec["mode"])
            if len(calls) == 1:
                raise RuntimeError("checker on fire")
            return Certification(True)

        path = str(tmp_path / "ledger.jsonl")
        report = drive(supervisor(certifier=certifier), [task("a")], BatchLedger(path))
        result = report.results[0]
        assert result.status == "ok" and result.attempts == 2
        (failure,) = result.failures
        assert failure["kind"] == FAILURE_INVALID_RESULT
        assert "certifier raised RuntimeError: checker on fire" in failure["message"]
        (quarantined,) = BatchLedger(path).quarantined()
        assert quarantined["attempt"] == 1 and quarantined["level"] == "full"
        assert calls == [DEFAULT_LADDER[0].mode] * 2

    def test_a_certifier_interrupt_leaves_the_attempt_to_the_checkpoint(self):
        def interrupt(spec, result):
            raise KeyboardInterrupt

        core = BatchCore(supervisor(certifier=interrupt))
        core.add(task("a"))
        (launch,) = launches(core.advance(0.0))
        with pytest.raises(KeyboardInterrupt):
            core.reply(launch.fingerprint, {"ok": True}, 1.0)
        actions = core.interrupt(2.0)
        report = actions[-1].report
        assert [r.status for r in report.results] == [STATUS_INTERRUPTED]
        assert report.results[0].elapsed == 2.0 and report.results[0].attempts == 0


class TestCheckpointResume:
    def test_resume_after_crash_equals_uninterrupted_run(self, tmp_path):
        counter = str(tmp_path / "count.txt")
        specs = [task(n, counter_path=counter) for n in ("a", "b", "c")]
        reference = drive(supervisor(max_workers=2), specs, BatchLedger(str(tmp_path / "r")))

        # Crashing run: task b crashes on every attempt (fault directives
        # are non-semantic, so the fingerprint matches the healthy spec).
        path = str(tmp_path / "ledger.jsonl")
        crashing = [specs[0], dict(specs[1], faults={"*": {"kind": "raise"}}), specs[2]]
        once = RetryPolicy(max_attempts=1, base_delay=0.01, jitter=0.0)
        first = drive(supervisor(max_workers=2, retry=once), crashing, BatchLedger(path))
        assert [r.status for r in first.results] == ["ok", "failed", "ok"]

        runs_before = len(open(counter, encoding="utf-8").readlines())
        resumed = drive(supervisor(max_workers=2), specs, BatchLedger(path))
        assert [r.status for r in resumed.results] == ["ok", "ok", "ok"]
        assert [r.cached for r in resumed.results] == [True, False, True]
        # Only the failed task was re-run...
        assert len(open(counter, encoding="utf-8").readlines()) == runs_before + 1
        # ...and the final result set equals the uninterrupted run's.
        assert [r.result for r in resumed.results] == [r.result for r in reference.results]

    def test_interrupt_lands_as_a_clean_checkpoint(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        specs = [task("a"), task("b")]
        ledger = BatchLedger(path)

        def journal(actions):
            for action in actions:
                if isinstance(action, Record):
                    ledger.append(action.record)
            return actions

        core = BatchCore(supervisor())
        for spec in specs:
            journal(core.add(spec))
        (launch,) = launches(journal(core.advance(0.0)))
        journal(core.reply(launch.fingerprint, {"ok": True, "query": "a"}, 1.0))
        (launch,) = launches(journal(core.advance(1.0)))
        actions = journal(core.interrupt(1.5))  # task b is still running
        ledger.close()
        report = actions[-1].report
        assert report.interrupted
        assert report.exit_code == 130
        assert [r.status for r in report.results] == ["ok", "interrupted"]
        assert actions[-2] == Record({"type": "batch", "event": "interrupted"})
        # The interrupted task is retried on resume; the completed one is not.
        resumed = drive(supervisor(), specs, BatchLedger(path))
        assert not resumed.interrupted
        assert [r.status for r in resumed.results] == ["ok", "ok"]
        assert [r.cached for r in resumed.results] == [True, False]
        assert resumed.results[0].result == {"ok": True, "query": "a"}

    def test_interrupt_during_a_backoff_finishes_at_once(self):
        core = BatchCore(supervisor(retry=RetryPolicy(base_delay=60.0, max_delay=60.0, jitter=0.0)))
        core.add(task("a"))
        (launch,) = launches(core.advance(0.0))
        core.reply(launch.fingerprint, {"ok": False, "reason": "deadline"}, 1.0)
        assert core.wake_at() == 61.0
        actions = core.interrupt(3.0)
        assert isinstance(actions[-1], Finish)
        (result,) = actions[-1].report.results
        assert (result.status, result.level, result.attempts) == ("interrupted", "full", 1)

    def test_duplicate_specs_collapse_to_one_task(self):
        assert len(drive(supervisor(), [task("a"), task("a")]).results) == 1


class TestReport:
    def test_describe_summarises_outcomes_and_kinds(self):
        def failures(*kinds):
            return [{"kind": k, "message": "m", "fingerprint": "x", "attempt": 1} for k in kinds]

        report = BatchReport(
            [
                TaskResult({"query": "a"}, "fa", "ok", "full", 1, cached=True),
                TaskResult({"query": "b", "label": "B"}, "fb", "ok", "tight", 3,
                           failures=failures("timeout", "timeout")),
                TaskResult({}, "fc", "failed", "decide", 6,
                           failures=failures(*["crashed"] * 5, "invalid_result",
                                             "exhausted_retries")),
                TaskResult({"query": "d"}, "fd", "interrupted", "full"),
            ],
            interrupted=True,
        )
        assert report.describe() == (
            "a: ok  attempts=1  (resumed from ledger)\n"
            "B: ok  level=tight  attempts=3  failures=timeoutx2\n"
            "fc: failed  level=decide  attempts=6  "
            "failures=crashedx5,exhausted_retriesx1,invalid_resultx1\n"
            "d: interrupted  attempts=0\n"
            "4 task(s): 2 ok, 1 failed, 1 interrupted; failure kinds: crashed=5, "
            "exhausted_retries=1, invalid_result=1, timeout=2; "
            "batch interrupted — resume with the same ledger"
        )
        assert report.failure_kinds() == {
            "crashed": 5, "exhausted_retries": 1, "invalid_result": 1, "timeout": 2
        }
        assert report.exit_code == 130
        assert BatchReport(report.results[:3]).exit_code == 1

    def test_interrupted_exit_code_is_the_budget_code(self):
        interrupted = TaskResult(task("a"), "f1", STATUS_INTERRUPTED)
        report = BatchReport([interrupted], interrupted=True)
        assert report.exit_code == EXIT_CODES[STATUS_INTERRUPTED]
        assert report.counts() == {STATUS_INTERRUPTED: 1}


class TestAttemptAccounting:
    """Every attempt runs through the task runner; every failure is charged
    to its task, rung and attempt number; and every outcome carries the
    task's whole history."""

    def test_every_failure_names_its_task_rung_and_attempt(self):
        rejected = []

        def certifier(spec, result):
            if result["level"] == "tight" and not rejected:
                rejected.append(result["attempt"])
                return Certification(False, ("injected rejection",))
            return Certification(True)

        spec = task("a", fail_levels=["full"])
        result = drive(supervisor(certifier=certifier), [spec]).results[0]
        assert (result.status, result.level, result.attempts) == ("ok", "tight", 4)
        assert result.result["attempt"] == 4 and rejected == [3]
        assert [
            (f["kind"], f["level"], f["attempt"], f["fingerprint"])
            for f in result.failures
        ] == [
            (FAILURE_TIMEOUT, "full", 1, task_fingerprint(spec)),
            (FAILURE_TIMEOUT, "full", 2, task_fingerprint(spec)),
            (FAILURE_INVALID_RESULT, "tight", 3, task_fingerprint(spec)),
        ]
        assert result.failures[0]["detail"] == "budget_exhausted"
        assert result.failures[2]["detail"] == "injected rejection"

    def test_failed_outcome_round_trips_through_the_ledger(self, tmp_path):
        spec = task("a", fail_levels=["full", "tight", "decide"])
        path = str(tmp_path / "ledger.jsonl")
        result = drive(supervisor(), [spec], BatchLedger(path)).results[0]
        assert result.status == "failed" and result.level == DEFAULT_LADDER[-1].name
        assert result.result is None and result.fingerprint == task_fingerprint(spec)
        exhausted = result.failures[-1]
        assert exhausted["kind"] == FAILURE_EXHAUSTED_RETRIES
        assert exhausted["attempt"] == result.attempts == 2 * len(DEFAULT_LADDER)
        (record,) = BatchLedger(path).task_records().values()
        restored = TaskResult.from_record(record)
        assert restored.as_record() == result.as_record()

    def test_worker_exception_is_a_structured_crash(self):
        # The worker's own wrapper (run here in-process) turns what the
        # runner raises into an ok: False reply, charged as a crash.
        spec = task("a", faults={"1": {"kind": "raise", "message": "boom"}})
        result = drive(supervisor(), [spec]).results[0]
        assert result.status == "ok" and result.attempts == 2
        assert result.failures[0]["kind"] == FAILURE_CRASHED
        assert result.failures[0]["message"] == "RuntimeError: boom"

    def test_workers_ignore_fault_keys(self):
        # Fault directives are played by test runners only: a spec that
        # carries them cannot make a production-shaped runner fail.
        spec = task("a", faults={"*": {"kind": "sigkill"}, "1": {"kind": "raise"}})
        result = drive(supervisor(task_runner=PLAIN), [spec]).results[0]
        assert (result.status, result.level, result.attempts) == ("ok", "full", 1)
        assert not result.failures

    @pytest.mark.parametrize(
        "event, kind",
        [
            (["garbage"], FAILURE_INVALID_RESULT),
            ({"ok": False, "error": "RuntimeError: boom"}, FAILURE_CRASHED),
            ({"ok": False, "reason": "budget_exhausted"}, FAILURE_TIMEOUT),
            ({"ok": True, "bad": True}, FAILURE_INVALID_RESULT),
            (None, FAILURE_CRASHED),  # the worker died
        ],
    )
    def test_every_failed_attempt_retires_its_worker(self, event, kind):
        # Only an accepted reply leaves its worker serving: every retry
        # runs in a fresh process.
        core = BatchCore(supervisor(certifier=reject_bad))
        core.add(task("a"))
        (launch,) = launches(core.advance(0.0))
        if event is None:
            actions = core.death(launch.fingerprint, "worker killed by signal 9 (SIGKILL)", 1.0)
        else:
            actions = core.reply(launch.fingerprint, event, 1.0)
        assert actions[0] == Retire(launch.fingerprint)
        quarantined = [a for a in actions if isinstance(a, Record)]
        assert len(quarantined) == (kind == FAILURE_INVALID_RESULT)
        (failure,) = core.pending[0].failures
        assert failure["kind"] == kind
        (launch,) = launches(core.advance(core.wake_at()))
        assert not any(isinstance(a, Retire) for a in core.reply(launch.fingerprint, {}, 2.0))


# -- the state machine -------------------------------------------------------

HARD = 5.0

#: The replies a scripted attempt can end with (``death`` and ``timeout``
#: end it without one).
REPLIES = {
    "ok": lambda p: {"ok": True, "query": p["query"], "level": p["level"], "attempt": p["attempt"]},
    "reject": lambda p: {"ok": True, "query": p["query"], "bad": True},
    "gave_up": lambda p: {"ok": False, "reason": "budget_exhausted"},
    "raised": lambda p: {"ok": False, "error": "RuntimeError: boom"},
    "garbage": lambda p: ["garbage"],
}


def deliver(core, fingerprint, payload, event, now):
    if event == "death":
        return core.death(fingerprint, "worker killed by signal 9 (SIGKILL)", now)
    return core.reply(fingerprint, REPLIES[event](payload), now)


def replay(config, tasks, script, completed):
    """Run ``tasks`` to the end through a fresh core resuming from
    ``completed``; attempt ``n`` of a task ends as ``script[(fingerprint,
    n)]`` says (``ok`` when it says nothing)."""
    core = BatchCore(config, completed)
    now = 0.0
    actions = [action for spec in tasks for action in core.add(spec)] + core.advance(now)
    while not (actions and isinstance(actions[-1], Finish)):
        delivered = []
        for launch in launches(actions):
            event = script.get((launch.fingerprint, launch.payload["attempt"]), "ok")
            if event != "timeout":
                delivered += deliver(core, launch.fingerprint, launch.payload, event, now)
        if not launches(actions):
            now = core.wake_at()
        actions = delivered + core.advance(now)
    return actions[-1].report


def outcomes(report):
    return [
        (r.fingerprint, r.status, r.level, r.attempts, r.result, r.failures)
        for r in report.results
    ]


class BatchCoreMachine(RuleBasedStateMachine):
    """Arbitrary interleavings of replies, deaths, timeouts and an
    interrupt, against the invariants the batch runtime promises."""

    @initialize(
        count=st.integers(1, 4),
        workers=st.integers(1, 2),
        max_attempts=st.integers(1, 2),
        ladder=st.sampled_from([DEFAULT_LADDER, DEFAULT_LADDER[:1], DEFAULT_LADDER[1:]]),
    )
    def start(self, count, workers, max_attempts, ladder):
        retry = RetryPolicy(max_attempts=max_attempts, base_delay=0.5, jitter=0.25)
        self.config = Supervisor(
            task_runner=TOY, certifier=reject_bad, max_workers=workers,
            hard_timeout=HARD, retry=retry, ladder=ladder,
        )
        self.tasks = [task(f"t{i}") for i in range(count)]
        self.core = BatchCore(self.config)
        self.now = 0.0
        self.journal = []  # every ledger record, in order
        self.script = {}  # (fingerprint, attempt number) -> how it ended
        self.running = {}  # fingerprint -> (payload, started at)
        self.settled = Counter()
        self.report = None
        self.apply([a for spec in self.tasks for a in self.core.add(spec)])
        self.apply(self.core.advance(self.now))

    def apply(self, actions):
        for action in actions:
            assert self.report is None, "an action after Finish"
            if isinstance(action, Launch):
                assert action.fingerprint not in self.running
                self.running[action.fingerprint] = (action.payload, self.now)
            elif isinstance(action, Retire):
                assert action.fingerprint not in self.running
            elif isinstance(action, Record):
                self.journal.append(json.loads(json.dumps(action.record)))
                if action.record["type"] == "task":
                    self.settled[action.record["fingerprint"]] += 1
            else:
                self.report = action.report

    @precondition(lambda self: self.report is None and self.running)
    @rule(data=st.data(), event=st.sampled_from(sorted(REPLIES) + ["death"]))
    def attempt_ends(self, data, event):
        fingerprint = data.draw(st.sampled_from(sorted(self.running)))
        payload, _ = self.running.pop(fingerprint)
        self.script[(fingerprint, payload["attempt"])] = event
        self.apply(deliver(self.core, fingerprint, payload, event, self.now))
        self.apply(self.core.advance(self.now))

    @rule(seconds=st.sampled_from([0.25, 1.0, HARD]))
    def time_passes(self, seconds):
        if self.report is not None:
            return  # the batch is over; time passing changes nothing
        self.now += seconds
        for fingerprint, (payload, started) in list(self.running.items()):
            if self.now >= started + HARD:
                del self.running[fingerprint]
                self.script[(fingerprint, payload["attempt"])] = "timeout"
        self.apply(self.core.advance(self.now))

    @precondition(lambda self: self.report is None and self.now > 0)
    @rule()
    def interrupt(self):
        self.running.clear()
        self.apply(self.core.interrupt(self.now))

    @invariant()
    def bounded_and_accounted(self):
        total = len(self.config.ladder) * self.config.retry.max_attempts
        names = {level.name for level in self.config.ladder}
        assert len(self.running) <= self.config.max_workers
        assert all(n == 1 for n in self.settled.values())  # ends exactly once
        states = list(self.core.pending) + list(self.core.running.values())
        for fingerprint, attempts, failures in [
            (s.fingerprint, s.total_attempts, s.failures) for s in states
        ] + [(r.fingerprint, r.attempts, r.failures) for r in self.core.results.values()]:
            assert attempts <= total
            for failure in failures:
                assert failure["kind"] in FAILURE_KINDS
                assert failure["fingerprint"] == fingerprint
                assert 1 <= failure["attempt"] <= attempts
                # The exhausted marker is task-level: the outcome names its rung.
                assert failure["kind"] == FAILURE_EXHAUSTED_RETRIES or failure["level"] in names
        for result in self.core.results.values():  # an ok outcome is a certified answer
            assert result.status != "ok" or REPLIES["ok"](result.result) == result.result

    @invariant()
    def finished_batches_account_for_every_task(self):
        if self.report is None:
            return
        fingerprints = [task_fingerprint(spec) for spec in self.tasks]
        assert [r.fingerprint for r in self.report.results] == fingerprints
        assert sorted(self.settled) == sorted(fingerprints)
        statuses = [r.status for r in self.report.results]
        expected = 130 if self.report.interrupted else int(statuses != ["ok"] * len(statuses))
        assert self.report.exit_code == expected
        assert BatchReport(self.report.results, self.report.interrupted).exit_code == expected

    def teardown(self):
        if not hasattr(self, "core"):
            return
        reference = replay(self.config, self.tasks, self.script, {})
        if self.report is not None:  # the outcome of a task is its script's
            pairs = zip(self.report.results, outcomes(self.report), outcomes(reference))
            for result, mine, expected in pairs:
                if result.status != STATUS_INTERRUPTED:
                    assert mine == expected
        # A ledger cut at any prefix resumes to the same final report.
        for cut in range(len(self.journal) + 1):
            latest = {r["fingerprint"]: r for r in self.journal[:cut] if r["type"] == "task"}
            completed = {f: r for f, r in latest.items() if r["status"] == "ok"}
            resumed = replay(self.config, self.tasks, self.script, completed)
            assert outcomes(resumed) == outcomes(reference)


BatchCoreMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, derandomize=True, deadline=None
)
TestBatchCoreMachine = BatchCoreMachine.TestCase
