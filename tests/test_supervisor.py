"""Real-process tests of the supervised batch runtime's shell.

Each test here checks what only real processes show: a worker SIGKILLed
mid-attempt, a hang killed at the hard timeout, garbage on the pipe, a
reply the pipe cannot carry, a worker that died while idle, a reply larger than the pipe buffer, no
worker outliving an interrupted run or the death of its parent, what a
forked worker does not inherit from the parent, a signal acted on during
a retry's backoff, a compacted ledger that keeps task order while two
workers finish out of order, and the production runner's wire payloads
at one and two workers.  The policy — ladder, retries, backoff,
certification, resume, interrupt — is tested without processes against
the supervisor's core (:class:`~repro.runtime.supervisor.BatchCore`) in
``tests/test_supervisor_core.py``.

:func:`toy_runner` is an instant, scriptable task runner resolved inside
the worker, so a test here costs a fork, not a decomposition solve.  A
fresh worker is a copy of the parent and sheds the parent's worker pipes,
its SIGTERM handler and any fault plan before it serves.  The worker
faults the supervisor must contain are scripted there too: the supervisor
and its workers read no fault directives themselves.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings
from contextlib import suppress

from repro.core.certify import Certification
from repro.experiments import harness
from repro.runtime import faults
from repro.runtime.checkpoint import BatchLedger, task_fingerprint
from repro.runtime.errors import FAILURE_CRASHED, FAILURE_INVALID_RESULT, FAILURE_TIMEOUT
from repro.runtime.supervisor import RetryPolicy, Supervisor, TaskResult

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOY = "tests.test_supervisor:toy_runner"

FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.01, jitter=0.0)


def toy_runner(payload):
    """A scriptable stand-in for the harness runner (importable by path).

    ``faults`` maps a global attempt number (or ``"*"``) to the worker
    fault that attempt plays: ``sigkill`` (the worker SIGKILLs itself),
    ``hang`` (sleeps past the hard timeout), ``raise``, ``garbage`` (a
    non-dict reply), ``unpicklable`` (a reply the pipe cannot carry) or
    ``bad_result`` (a well-formed reply carrying a
    wrong decomposition, which only certification catches).
    """
    import time as _time

    if payload.get("pid_path"):  # which worker runs the attempt, as it starts
        with open(payload["pid_path"], "a", encoding="utf-8") as handle:
            handle.write(f"{payload.get('query', '?')} {os.getpid()}\n")
    script = payload.get("faults") or {}
    fault = script.get(str(payload["attempt"]), script.get("*")) or {}
    kind = fault.get("kind")
    if kind == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
    if kind == "hang":
        _time.sleep(float(fault.get("seconds", 3600.0)))
    if kind == "raise":
        raise RuntimeError(str(fault.get("message", "injected worker fault")))
    if kind == "garbage":
        return ["this", "is", "not", "a", "result"]
    if kind == "unpicklable":
        return {"ok": True, "result": lambda: None}
    if payload.get("work_seconds"):
        _time.sleep(float(payload["work_seconds"]))
    if payload.get("delays_path"):  # per-query seconds, read when the attempt runs
        with open(payload["delays_path"], encoding="utf-8") as handle:
            _time.sleep(float(json.load(handle).get(payload.get("query"), 0.0)))
    if payload.get("counter_path"):
        with open(payload["counter_path"], "a", encoding="utf-8") as handle:
            handle.write(f"{payload.get('query', '?')}\n")
    if payload["level"] in (payload.get("fail_levels") or ()):
        return {
            "ok": False,
            "reason": "budget_exhausted",
            "error": f"simulated exhaustion at {payload['level']}",
        }
    result = {
        "ok": True,
        "query": payload.get("query"),
        "level": payload["level"],
        "mode": payload["mode"],
        "deadline": payload.get("deadline"),
        "max_work": payload.get("max_work"),
        "attempt": payload.get("attempt"),
    }
    if kind == "bad_result":
        result.update(decided=True, decomposition={"bags": [[]], "parents": [None]})
    return result


def task(name="t1", **overrides):
    spec = {"kind": "toy", "query": name}
    spec.update(overrides)
    return spec


def supervisor(**overrides):
    options = dict(task_runner=TOY, hard_timeout=30.0, retry=FAST_RETRY)
    options.update(overrides)
    return Supervisor(**options)




PID = "tests.test_supervisor:pid_runner"


def plain_runner(payload):
    """A production-shaped runner: it answers and reads no fault keys."""
    return {"ok": True, "query": payload.get("query"), "level": payload["level"]}


def pid_runner(payload):
    """:func:`toy_runner` plus the serving worker's pid (and ``blob_bytes``
    of padding, to outgrow the pipe buffer)."""
    reply = toy_runner(payload)
    if not isinstance(reply, dict):
        return reply
    result = dict(reply, pid=os.getpid())
    if payload.get("blob_bytes"):
        result["blob"] = "x" * int(payload["blob_bytes"])
    return result


INHERIT = "tests.test_supervisor:inheritance_runner"

#: Set by the failing first attempt of :func:`inheritance_runner`.
_LEFT_BY_AN_ATTEMPT = None


def inheritance_runner(payload):
    """Fail the first attempt after setting a module global; later attempts
    report what their worker holds of the parent's state."""
    global _LEFT_BY_AN_ATTEMPT
    if payload["attempt"] == 1:
        _LEFT_BY_AN_ATTEMPT = "set by attempt 1"
        raise RuntimeError("attempt 1 fails after setting the global")
    return {
        "ok": True,
        "sigterm": getattr(signal.getsignal(signal.SIGTERM), "name", "handler"),
        "sigint": getattr(signal.getsignal(signal.SIGINT), "name", "handler"),
        "fault_plan": faults._active_plan is not None,
        "global": _LEFT_BY_AN_ATTEMPT,
    }


def _child_env():
    """The environment of a child interpreter that imports ``tests`` and ``repro``."""
    path = os.pathsep.join(filter(None, [ROOT, os.path.join(ROOT, "src"),
                                         os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _running(pid):
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            return handle.read().rsplit(b")", 1)[1].split()[0] != b"Z"
    except FileNotFoundError:
        return False


class TestProcessIsolation:
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
        assert multiprocessing.active_children() == []

    def test_garbage_reply_is_an_invalid_result(self):
        # The worker that sent garbage is alive but untrusted: it is
        # SIGKILLed, and the retry runs in a fresh process.
        tasks = [task("a"), task("b", faults={"1": {"kind": "garbage"}})]
        report = supervisor(task_runner=PID).run(tasks)
        first, retried = report.results
        assert retried.status == "ok" and retried.attempts == 2
        assert [f["kind"] for f in retried.failures] == [FAILURE_INVALID_RESULT]
        assert retried.result["pid"] != first.result["pid"]
        assert multiprocessing.active_children() == []

    def test_unpicklable_reply_is_an_error_reply(self):
        # The worker cannot send the result, but its pipe is fine: it says so.
        report = supervisor().run([task("a", faults={"1": {"kind": "unpicklable"}})])
        result = report.results[0]
        assert result.status == "ok" and result.attempts == 2
        assert [f["kind"] for f in result.failures] == [FAILURE_CRASHED]
        assert "pickle" in result.failures[0]["message"].lower()

    def test_a_forked_worker_sheds_the_parents_state(self):
        # The parent runs the batch under its SIGTERM handler and a fault
        # plan; the first attempt fails after setting a global, so the retry
        # runs in a fresh copy of the parent.  Warnings are recorded, not
        # raised: Python >= 3.12 warns of a fork with threads only after the
        # child exists, so recording is what shows it.
        with warnings.catch_warnings(record=True) as caught, faults.inject() as plan:
            warnings.simplefilter("always")
            report = supervisor(task_runner=INHERIT).run([task("a")])
            assert faults._active_plan is plan
        result = report.results[0]
        assert result.status == "ok" and result.attempts == 2
        assert [f["kind"] for f in result.failures] == [FAILURE_CRASHED]
        assert {k: result.result[k] for k in ("sigterm", "sigint", "fault_plan", "global")} == {
            "sigterm": "SIG_DFL", "sigint": "SIG_IGN", "fault_plan": False, "global": None
        }
        assert [str(w.message) for w in caught] == []


#: A batch whose one task fails at every rung, so that after its first
#: attempt it waits out a 60 s backoff; it prints its report as JSON.
BACKOFF_SCRIPT = """
import json, sys
from repro.runtime.supervisor import RetryPolicy, Supervisor
spec = {"kind": "toy", "query": "a", "counter_path": sys.argv[1],
        "fail_levels": ["full", "tight", "decide"]}
retry = RetryPolicy(max_attempts=2, base_delay=60.0, max_delay=60.0, jitter=0.0)
report = Supervisor(task_runner="tests.test_supervisor:toy_runner", retry=retry).run([spec])
print(json.dumps({"interrupted": report.interrupted, "exit_code": report.exit_code,
                  "statuses": [r.status for r in report.results]}))
"""


#: Two workers: one idles after a quick task, the other is in a 2 s attempt;
#: each attempt appends "<query> <worker pid>" to argv[1] as it starts.
ORPHAN_SCRIPT = """
import sys
from repro.runtime.supervisor import Supervisor
specs = [{"kind": "toy", "query": "quick", "pid_path": sys.argv[1]},
         {"kind": "toy", "query": "slow", "pid_path": sys.argv[1], "work_seconds": 2}]
Supervisor(task_runner="tests.test_supervisor:toy_runner", max_workers=2).run(specs)
"""


class TestPersistentWorkers:
    """One worker serves attempts until one fails, and no worker outlives
    ``run()``."""

    def test_one_worker_serves_the_whole_batch(self):
        tasks = [task(f"t{i}") for i in range(8)]
        for workers, most in ((1, 1), (2, 2)):
            report = supervisor(task_runner=PID, max_workers=workers).run(tasks)
            assert [r.status for r in report.results] == ["ok"] * 8
            assert all(r.attempts == 1 for r in report.results)
            pids = {r.result["pid"] for r in report.results}
            assert 1 <= len(pids) <= most
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

    def test_sigint_during_a_backoff_is_acted_on_at_once(self, tmp_path):
        # Signal handlers are installed on the main thread only, so the
        # batch runs in a child interpreter of its own.
        counter = tmp_path / "attempts.txt"
        child = subprocess.Popen(
            [sys.executable, "-c", BACKOFF_SCRIPT, str(counter)],
            stdout=subprocess.PIPE,
            env=_child_env(),
        )
        try:
            deadline = time.monotonic() + 60.0
            while not counter.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            time.sleep(0.5)  # the first attempt's failure lands; the backoff starts
            signalled = time.monotonic()
            child.send_signal(signal.SIGINT)
            out, _ = child.communicate(timeout=60.0)
            waited = time.monotonic() - signalled
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        assert counter.read_text().splitlines() == ["a"]
        report = json.loads(out.decode().splitlines()[-1])
        assert report == {"interrupted": True, "exit_code": 130, "statuses": ["interrupted"]}
        assert waited < 5.0

    def test_workers_end_quietly_when_the_parent_is_killed(self, tmp_path):
        # A SIGKILLed parent cannot kill its workers: each must see its pipe
        # close and end without a traceback.  The idle worker ends at once,
        # before the busy one's attempt does: no sibling holds its pipe open.
        pids_path, stderr_path = tmp_path / "pids.txt", tmp_path / "stderr.txt"
        with open(stderr_path, "wb") as stderr:
            child = subprocess.Popen(
                [sys.executable, "-c", ORPHAN_SCRIPT, str(pids_path)],
                stderr=stderr,
                env=_child_env(),
            )
        pids, ended = {}, []  # query -> worker pid; queries gone, per poll
        try:
            deadline = time.monotonic() + 60.0
            while len(pids) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
                if pids_path.exists():
                    lines = [line.split() for line in pids_path.read_text().splitlines()]
                    pids = {fields[0]: int(fields[1]) for fields in lines if len(fields) == 2}
            time.sleep(0.3)  # the quick task's reply lands; its worker idles
            child.kill()
            child.wait()
            deadline = time.monotonic() + 10.0
            while sum(map(len, ended)) < len(pids) and time.monotonic() < deadline:
                seen = {query for queries in ended for query in queries}
                gone = sorted(q for q, pid in pids.items() if q not in seen and not _running(pid))
                if gone:
                    ended.append(gone)
                time.sleep(0.05)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            for pid in pids.values():
                with suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        assert ended == [["quick"], ["slow"]]
        assert "Traceback" not in stderr_path.read_text()

    def test_compacted_ledger_does_not_depend_on_completion_order(self, tmp_path):
        # The same batch twice at two workers, each time with the other task
        # finishing first: the compacted ledgers list both in task order.
        delays = tmp_path / "delays.json"
        specs = [task("a", delays_path=str(delays)), task("b", delays_path=str(delays))]
        ledgers = []
        for slow in ("a", "b"):
            delays.write_text(json.dumps({slow: 0.5}))
            path = tmp_path / f"slow-{slow}.jsonl"
            supervisor(max_workers=2).run(specs, ledger=BatchLedger(str(path)))
            records = [json.loads(line) for line in path.read_text().splitlines()]
            for record in records:
                record.pop("elapsed", None)
            ledgers.append(records)
        assert ledgers[0] == ledgers[1]
        assert [r.get("task", {}).get("query") for r in ledgers[0][1:]] == ["a", "b"]

    def test_wire_payloads_match_direct_calls_at_one_and_two_workers(self):
        # The spec: one execute_batch_task call per task at the top rung,
        # certified by BatchCertifier, recorded as a one-attempt ok outcome.
        specs = harness.batch_task_specs(scale=0.3)
        certifier = harness.BatchCertifier()

        def masked(record):
            result = dict(record["result"], outcome=dict(record["result"]["outcome"], elapsed=None))
            return dict(record, elapsed=None, result=result)

        expected = []
        for spec in specs:
            wire = harness.execute_batch_task(dict(spec, level="full", mode="ranked", attempt=1))
            assert certifier(dict(spec, mode="ranked"), wire)
            outcome = TaskResult(spec, task_fingerprint(spec), "ok", "full", 1, wire)
            expected.append(masked(outcome.as_record()))
        for workers in (1, 2):
            report = Supervisor(certifier=certifier, max_workers=workers).run(specs)
            assert [masked(r.as_record()) for r in report.results] == expected
        assert multiprocessing.active_children() == []
