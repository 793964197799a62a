"""Supervised, fault-tolerant execution of batch solve tasks.

One :class:`Supervisor` runs a batch of independent tasks on up to
``max_workers`` **persistent worker processes** that live for one
:meth:`Supervisor.run`, and survives anything a worker can do.  A worker
serves attempts until one does not end in an accepted result; that worker
is then SIGKILLed, so every retry runs in a fresh process and a worker only
carries state from successful attempts.  A fresh worker is a ``fork`` of
the parent, which never runs an attempt itself, and before it serves it
sheds what it inherited: the parent's ends of every worker pipe (so it sees
EOF once the parent is gone), the parent's SIGTERM handler and any
:mod:`repro.runtime.faults` plan.

* **hard wall-clock timeout** — enforced from the parent: a worker that
  overruns its allowance is SIGKILLed and the attempt becomes a
  ``timeout`` failure.  This is the backstop behind the in-worker
  :class:`~repro.runtime.budget.Budget` (cooperative, can be defeated by
  a wedged C loop or a kernel bug); the parent's kill cannot be.
* **crash containment** — a worker that segfaults, is OOM-killed, raises,
  or returns garbage becomes a structured failure record (a ``kind`` from
  :data:`~repro.runtime.errors.FAILURE_KINDS`) and the batch keeps going.
* **bounded retries** — each failure schedules a retry after an
  exponential backoff with deterministic jitter (:class:`RetryPolicy`);
  other tasks keep the worker slots busy during the wait.
* **degradation ladder** — when a level's retries are exhausted the task
  descends: full solve → tighter budget → decide-only → recorded
  ``failed``.  Every result is tagged with the level that produced it.
* **independent certification** — every result crossing the process
  boundary (a fresh solve, or a hit the worker served from the
  decomposition cache) is checked by the parent-side ``certifier``
  against the question the parent asked — the task with ``mode`` set to
  the mode of the rung the parent ran (see :meth:`BatchCore._rejection`);
  a result that fails is quarantined into the ledger as an
  ``invalid_result`` failure and the attempt retried.
* **checkpoint/resume** — with a :class:`~repro.runtime.checkpoint.BatchLedger`
  every terminal outcome is durably journaled; a re-run skips tasks with
  recorded ``ok`` results (every one re-certified, returned byte-for-byte)
  and retries ``failed``/``interrupted`` ones.  SIGINT/SIGTERM mid-batch
  — during an attempt or a retry's backoff alike — kills the workers
  within a second and lands as a clean ``interrupted`` checkpoint (batch
  exit code ``EXIT_CODES[STATUS_INTERRUPTED]``, 130, as for a
  ``SolveOutcome``).

Every decision above is made by one pure core, :class:`BatchCore`, which
turns events into actions and never touches a process, a signal, a clock
or a file; :meth:`Supervisor.run` is the one shell that carries the
actions out.

The supervisor is agnostic about what a task computes: ``task_runner``
names a ``module:function`` resolved *inside the worker* that maps a task
payload dict to a JSON-able result dict (the default is the experiment
harness's :func:`repro.experiments.harness.execute_batch_task`, whose
solve probes the persistent decomposition cache first).  Every task runs
through that runner, and every reply crosses the pipe once and is
certified once.  The worker reads no fault directives: the fault suites
script crashes, hangs and wrong answers inside their own task runners.
"""

from __future__ import annotations

import importlib
import random
import signal
import threading
import time
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from multiprocessing import get_context
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.runtime import faults
from repro.runtime.budget import EXIT_CODES, STATUS_INTERRUPTED
from repro.runtime.checkpoint import STATUS_FAILED, STATUS_OK, BatchLedger, task_fingerprint
from repro.runtime.errors import (
    FAILURE_CRASHED,
    FAILURE_EXHAUSTED_RETRIES,
    FAILURE_INVALID_RESULT,
    FAILURE_TIMEOUT,
)

__all__ = [
    "RetryPolicy",
    "DegradationLevel",
    "DEFAULT_LADDER",
    "TaskResult",
    "BatchReport",
    "BatchCore",
    "Launch",
    "Retire",
    "Record",
    "Finish",
    "Supervisor",
]

#: The default worker-side task runner (resolved inside the worker).
DEFAULT_TASK_RUNNER = "repro.experiments.harness:execute_batch_task"


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    The delay before retry ``attempt`` (1-based count of *failures so
    far*) is ``min(base * factor**(attempt-1), max_delay)`` plus up to
    ``jitter`` of itself, drawn from a PRNG seeded with
    ``(seed, fingerprint, attempt)`` — so two supervisors replaying the
    same batch produce the same schedule, while distinct tasks de-correlate
    (no thundering-herd retry waves).
    """

    max_attempts: int = 2
    base_delay: float = 0.25
    factor: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.25
    seed: int = 0

    def delay(self, fingerprint: str, attempt: int) -> float:
        """Backoff before the retry following failure number ``attempt``."""
        raw = min(self.base_delay * self.factor ** max(0, attempt - 1), self.max_delay)
        if self.jitter <= 0:
            return raw
        rng = random.Random(f"{self.seed}:{fingerprint}:{attempt}")
        return raw * (1.0 + self.jitter * rng.random())


@dataclass(frozen=True)
class DegradationLevel:
    """One rung of the degradation ladder.

    ``mode`` is passed to the task runner (the harness maps ``ranked`` to
    the constrained/preference solve and ``decide`` to the plain
    Algorithm 1 path).  ``budget_scale`` multiplies the task's configured
    ``deadline``/``max_work`` caps; ``fallback_max_work`` imposes a work
    cap when the task configured none, so a degraded attempt is actually
    cheaper than the one that failed.
    """

    name: str
    mode: str = "ranked"
    budget_scale: float = 1.0
    fallback_max_work: Optional[int] = None


#: full solve → tighter budget → decide-only → (recorded ``failed``).
DEFAULT_LADDER: Tuple[DegradationLevel, ...] = (
    DegradationLevel("full", mode="ranked", budget_scale=1.0),
    DegradationLevel("tight", mode="ranked", budget_scale=0.25, fallback_max_work=2_000_000),
    DegradationLevel("decide", mode="decide", budget_scale=0.25, fallback_max_work=2_000_000),
)


@dataclass
class TaskResult:
    """The terminal outcome of one task within a batch."""

    task: Dict[str, object]
    fingerprint: str
    status: str  # ok | failed | interrupted
    level: Optional[str] = None  # degradation level that produced the result
    attempts: int = 0
    result: Optional[Dict[str, object]] = None
    failures: List[Dict[str, object]] = field(default_factory=list)
    elapsed: float = 0.0
    cached: bool = False  # satisfied from the ledger on resume

    def as_record(self) -> Dict[str, object]:
        return {
            "type": "task",
            "fingerprint": self.fingerprint,
            "task": self.task,
            "status": self.status,
            "level": self.level,
            "attempts": self.attempts,
            "result": self.result,
            "failures": self.failures,
            "elapsed": round(self.elapsed, 6),
        }

    @classmethod
    def from_record(cls, record: Mapping[str, object], cached: bool = False) -> "TaskResult":
        return cls(
            task=dict(record.get("task") or {}),
            fingerprint=str(record.get("fingerprint")),
            status=str(record.get("status")),
            level=record.get("level"),  # type: ignore[arg-type]
            attempts=int(record.get("attempts") or 0),
            result=record.get("result"),  # type: ignore[arg-type]
            failures=list(record.get("failures") or []),
            elapsed=float(record.get("elapsed") or 0.0),
            cached=cached,
        )


@dataclass
class BatchReport:
    """Every task outcome of a batch run, plus the failure summary."""

    results: List[TaskResult]
    interrupted: bool = False
    torn_tail: bool = False

    @property
    def exit_code(self) -> int:
        if self.interrupted:
            return EXIT_CODES[STATUS_INTERRUPTED]
        return 1 if any(r.status != STATUS_OK for r in self.results) else 0

    def counts(self) -> Dict[str, int]:
        return dict(Counter(r.status for r in self.results))

    def failure_kinds(self) -> Dict[str, int]:
        """How often each failure kind occurred, across all attempts."""
        return dict(Counter(str(f.get("kind", "?")) for r in self.results for f in r.failures))

    def describe(self) -> str:
        """The failure-summary report printed by ``repro batch``."""
        lines = []
        for result in self.results:
            label = result.task.get("label") or result.task.get("query", result.fingerprint)
            parts = [f"{label}: {result.status}"]
            if result.level and result.level != "full":
                parts.append(f"level={result.level}")
            parts.append(f"attempts={result.attempts}")
            if result.cached:
                parts.append("(resumed from ledger)")
            if result.failures:
                kinds = Counter(str(f.get("kind", "?")) for f in result.failures)
                parts.append("failures=" + ",".join(f"{k}x{n}" for k, n in sorted(kinds.items())))
            lines.append("  ".join(parts))
        counts, kinds = self.counts(), self.failure_kinds()
        statuses = (STATUS_OK, STATUS_FAILED, STATUS_INTERRUPTED)
        summary = f"{len(self.results)} task(s): "
        summary += ", ".join(f"{counts.get(s, 0)} {s}" for s in statuses)
        if kinds:
            summary += "; failure kinds: " + ", ".join(f"{k}={n}" for k, n in sorted(kinds.items()))
        if self.interrupted:
            summary += "; batch interrupted — resume with the same ledger"
        lines.append(summary)
        return "\n".join(lines)


# -- worker side -------------------------------------------------------------


def _resolve_runner(path: str) -> Callable[[Dict[str, object]], Dict[str, object]]:
    module_name, _, attribute = path.partition(":")
    if not attribute:
        raise ValueError(f"task runner {path!r} is not of the form 'module:function'")
    return getattr(importlib.import_module(module_name), attribute)


def _error_reply(exc: BaseException) -> Dict[str, object]:
    return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


def _run_attempt(runner_path: str, payload: Dict[str, object]) -> object:
    """Run one attempt; everything the runner can *catch* becomes a
    structured ``{"ok": False}`` reply (failure kind ``crashed``)."""
    try:
        return _resolve_runner(runner_path)(payload)
    except Exception as exc:
        return _error_reply(exc)


def _serve(conn, inherited) -> None:
    """Worker process entry point: reply to each ``(runner_path, payload)``
    request on the same pipe until ``None``, EOF or a broken pipe, which
    end it quietly.  What the worker cannot catch (SIGKILL, segfault, OOM,
    a wedged loop) the parent detects through the worker's sentinel or its
    hard deadline.  ``inherited`` are the parent's ends of the worker pipes,
    this one's included, which the fork copied."""
    for end in inherited:
        end.close()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent owns Ctrl-C
    faults._active_plan = None  # fault plans are process-local
    try:
        for runner_path, payload in iter(conn.recv, None):
            reply = _run_attempt(runner_path, payload)
            try:
                conn.send(reply)
            except OSError:  # the pipe failed, not the result: never send again
                raise
            except Exception as exc:  # e.g. an unpicklable result
                conn.send(_error_reply(exc))
    except (OSError, EOFError):
        pass  # the parent is gone


# -- the policy core ---------------------------------------------------------


#: The core's actions, carried out in order by the shell: send ``payload``
#: (the task at one rung) to a worker; SIGKILL the worker that ran the task's
#: last attempt; append ``record`` to the ledger, if the batch has one; end
#: the batch with ``report``.
Launch = NamedTuple("Launch", [("fingerprint", str), ("payload", Dict[str, object])])
Retire = NamedTuple("Retire", [("fingerprint", str)])
Record = NamedTuple("Record", [("record", Dict[str, object])])
Finish = NamedTuple("Finish", [("report", BatchReport)])


def _failure(kind, message, fingerprint, attempt, level=None, detail=None) -> Dict[str, object]:
    """The one failure record (``kind`` from
    :data:`~repro.runtime.errors.FAILURE_KINDS`) the ledger and report store."""
    record = dict(kind=kind, message=message, fingerprint=fingerprint, level=level)
    record.update(attempt=attempt, detail=detail)
    return {key: value for key, value in record.items() if value is not None}


@dataclass(eq=False)
class _TaskState:
    """Mutable per-task bookkeeping inside one batch run."""

    task: Dict[str, object]
    fingerprint: str
    order: int
    level_index: int = 0
    level_failures: int = 0  # failures at the current rung
    total_attempts: int = 0
    failures: List[Dict[str, object]] = field(default_factory=list)
    ready_at: float = 0.0  # when the next attempt may start
    started_at: float = 0.0  # when the attempt in flight started
    elapsed: float = 0.0

    def outcome(self, status: str, level: Optional[str], result=None) -> TaskResult:
        """This task's terminal :class:`TaskResult` as it stands."""
        return TaskResult(self.task, self.fingerprint, status, level, self.total_attempts,
                          result, self.failures, self.elapsed)


class BatchCore:
    """The supervisor's decisions for one batch run, as a pure state machine.

    ``config`` is the :class:`Supervisor` whose settings the run follows;
    ``completed`` maps fingerprints to the ledger's ``ok`` records.  Each
    event — :meth:`add`, :meth:`reply`, :meth:`death`, :meth:`advance`
    (time reaching ``now``, which times out overdue attempts),
    :meth:`interrupt` — returns the actions the shell carries out, in
    order.  The caller supplies every time: the core never touches a
    process, a signal, a clock or a file.
    """

    def __init__(self, config: "Supervisor", completed: Mapping = (), torn_tail: bool = False):
        self.config = config
        self.completed = dict(completed)
        self.torn_tail = torn_tail
        self.order: List[str] = []
        self.results: Dict[str, TaskResult] = {}
        self.pending: List[_TaskState] = []
        self.running: Dict[str, _TaskState] = {}  # in launch order
        self.interrupted = False

    # -- events ------------------------------------------------------------

    def add(self, task: Mapping[str, object]) -> List[object]:
        """A task of the batch.  An ``ok`` ledger record whose result
        re-certifies finishes it; any other record is quarantined and the
        task queued like a new one."""
        task = dict(task)
        fingerprint = task_fingerprint(task)
        if fingerprint in self.order:
            return []  # duplicate spec: one outcome per fingerprint
        self.order.append(fingerprint)
        actions: List[object] = []
        if fingerprint in self.completed:
            cached = TaskResult.from_record(self.completed[fingerprint], cached=True)
            detail = self._rejection(task, cached.result, cached.level)
            if detail is None:
                self.results[fingerprint] = cached
                return actions
            # The ledger lied (bit rot, version skew): quarantine the
            # record and re-run the task.
            reason = f"ledger result failed re-certification: {detail}"
            actions.append(Record(self._quarantine(fingerprint, 0, cached.level, reason)))
        self.pending.append(_TaskState(task, fingerprint, len(self.order)))
        return actions

    def reply(self, fingerprint: str, payload: object, now: float) -> List[object]:
        """The worker running ``fingerprint``'s attempt replied ``payload``.

        A certifier that raises ``KeyboardInterrupt`` leaves the attempt
        running, so that :meth:`interrupt` records it.
        """
        state = self.running[fingerprint]
        level = self.config.ladder[state.level_index].name
        failure = self._verdict(state.task, payload, level)
        self._end(fingerprint, now)
        if failure is not None:
            return self._fail(state, now, *failure)
        state.total_attempts += 1
        return self._settle(state.outcome(STATUS_OK, level, payload))

    def death(self, fingerprint: str, message: str, now: float) -> List[object]:
        """The worker running ``fingerprint``'s attempt died without a reply."""
        return self._fail(self._end(fingerprint, now), now, FAILURE_CRASHED, message)

    def advance(self, now: float) -> List[object]:
        """Time reaches ``now``: attempts past the hard timeout fail, free
        worker slots take the ready tasks in task order, and a batch with
        nothing left to run finishes."""
        actions: List[object] = []
        hard = self.config.hard_timeout
        for fingerprint, state in list(self.running.items()):
            if now >= state.started_at + hard:
                message = (
                    f"worker exceeded the hard wall-clock timeout ({hard:.3g}s) and was killed"
                )
                actions += self._fail(self._end(fingerprint, now), now, FAILURE_TIMEOUT, message)
        while len(self.running) < self.config.max_workers:
            ready = [s for s in self.pending if s.ready_at <= now]
            if not ready:
                break
            state = min(ready, key=lambda s: s.order)
            self.pending.remove(state)
            state.started_at = now
            self.running[state.fingerprint] = state
            actions.append(Launch(state.fingerprint, self._attempt_payload(state)))
        if not self.pending and not self.running:
            actions.append(Finish(self._report()))
        return actions

    def interrupt(self, now: float) -> List[object]:
        """SIGINT/SIGTERM: every unfinished task is recorded ``interrupted``
        (a resumed batch retries it) and the batch finishes."""
        self.interrupted = True
        states = self.pending + [self._end(f, now) for f in list(self.running)]
        self.pending = []
        actions: List[object] = []
        for state in states:
            level = self.config.ladder[min(state.level_index, len(self.config.ladder) - 1)]
            actions += self._settle(state.outcome(STATUS_INTERRUPTED, level.name))
        actions.append(Record({"type": "batch", "event": "interrupted"}))
        return actions + [Finish(self._report())]

    def wake_at(self) -> float:
        """When :meth:`advance` next has work: the earliest hard timeout
        or, while a worker slot is free, the earliest retry."""
        times = [s.started_at + self.config.hard_timeout for s in self.running.values()]
        if len(self.running) < self.config.max_workers:
            times += [s.ready_at for s in self.pending]
        return min(times)

    # -- policy ------------------------------------------------------------

    def _attempt_payload(self, state: _TaskState) -> Dict[str, object]:
        """The task at its rung: the rung's mode and scaled budget caps."""
        level = self.config.ladder[state.level_index]
        deadline, max_work = state.task.get("deadline"), state.task.get("max_work")
        if deadline is not None:
            deadline = float(deadline) * level.budget_scale
        if max_work is not None:
            max_work = max(1, int(int(max_work) * level.budget_scale))
        elif level.fallback_max_work is not None and level.budget_scale < 1.0:
            max_work = level.fallback_max_work
        return dict(state.task, level=level.name, mode=level.mode, deadline=deadline,
                    max_work=max_work, attempt=state.total_attempts + 1)

    def _verdict(self, task, payload: object, level: str) -> Optional[Tuple]:
        """``(kind, message, detail)`` of a reply that fails, else ``None``."""
        if not isinstance(payload, dict):
            message = f"worker returned {type(payload).__name__}, not a result dict"
            return FAILURE_INVALID_RESULT, message, None
        if payload.get("ok") is False:
            reason = str(payload.get("reason", ""))
            gave_up = reason in ("deadline", "budget_exhausted")
            kind = FAILURE_TIMEOUT if gave_up else FAILURE_CRASHED
            message = payload.get("error") or f"worker gave up: {reason or 'unspecified'}"
            return kind, message, reason or None
        detail = self._rejection(task, payload, level)
        if detail is not None:
            return FAILURE_INVALID_RESULT, f"result failed certification: {detail}", detail
        return None

    def _rejection(self, task, payload: object, level: Optional[str]) -> Optional[str]:
        """Why ``payload`` fails as the answer of rung ``level``, or ``None``.

        Anything but a result dict fails.  The certifier sees
        ``task["mode"]`` set to that rung's mode, so the parent, never the
        reply, says which question was asked.  Unknown levels read as the
        top rung: among them ``cache``, the level older ledgers recorded
        for a cache hit served without a worker.  A certifier that raises
        rejects.
        """
        if not isinstance(payload, dict):
            return f"{type(payload).__name__} is not a result dict"
        certifier, ladder = self.config.certifier, self.config.ladder
        if certifier is None:
            return None
        rung = next((r for r in ladder if r.name == level), ladder[0])
        try:
            certification = certifier(dict(task, mode=rung.mode), payload)
        except Exception as exc:
            return f"certifier raised {type(exc).__name__}: {exc}"
        return None if certification else certification.describe()

    def _fail(self, state: _TaskState, now: float, kind, message, detail=None) -> List[object]:
        """Charge the attempt that just ended with a failure of ``kind``.

        Its worker is retired and a rejected result quarantined.  A rung
        whose retries are spent hands over to the next one, and the retry
        waits out its backoff; past the last rung the task is ``failed``.
        """
        ladder, fingerprint = self.config.ladder, state.fingerprint
        level = ladder[state.level_index].name
        state.total_attempts += 1
        state.level_failures += 1
        attempt = state.total_attempts
        state.failures.append(_failure(kind, message, fingerprint, attempt, level, detail))
        actions: List[object] = [Retire(fingerprint)]
        if kind == FAILURE_INVALID_RESULT:
            actions.append(Record(self._quarantine(fingerprint, attempt, level, message)))
        if state.level_failures >= self.config.retry.max_attempts:
            state.level_index += 1
            state.level_failures = 0
        if state.level_index < len(ladder):
            state.ready_at = now + self.config.retry.delay(fingerprint, len(state.failures))
            self.pending.append(state)
            return actions
        message = f"task {fingerprint} failed at every degradation level"
        state.failures.append(_failure(FAILURE_EXHAUSTED_RETRIES, message, fingerprint, attempt))
        return actions + self._settle(state.outcome(STATUS_FAILED, ladder[-1].name))

    @staticmethod
    def _quarantine(fingerprint, attempt, level, reason) -> Dict[str, object]:
        return dict(
            type="quarantine", fingerprint=fingerprint, attempt=attempt, level=level, reason=reason
        )

    def _end(self, fingerprint: str, now: float) -> _TaskState:
        state = self.running.pop(fingerprint)
        state.elapsed += now - state.started_at
        return state

    def _settle(self, outcome: TaskResult) -> List[object]:
        self.results[outcome.fingerprint] = outcome
        return [Record(outcome.as_record())]

    def _report(self) -> BatchReport:
        results = [self.results[f] for f in self.order]
        return BatchReport(results, interrupted=self.interrupted, torn_tail=self.torn_tail)


# -- the process shell -------------------------------------------------------


class _Worker(NamedTuple):
    """One persistent worker process and the parent's end of its pipe."""

    process: Any
    conn: Any

    def retire(self) -> None:
        self.process.kill()
        self.process.join()
        self.conn.close()


def _death_message(exitcode: Optional[int]) -> str:
    if exitcode and exitcode < 0:
        known = -exitcode in signal.Signals.__members__.values()
        name = f" ({signal.Signals(-exitcode).name})" if known else ""
        return f"worker killed by signal {-exitcode}{name}"
    if exitcode:
        return f"worker exited with code {exitcode}"
    return "worker exited without delivering a result"


class Supervisor:
    """Runs a batch of tasks in supervised worker processes.

    ``certifier`` is a callable ``(task, result_payload) ->``
    :class:`repro.core.certify.Certification` applied to every delivered
    result and to every ``ok`` ledger record on resume, with
    ``task["mode"]`` set to the rung's mode; ``None`` disables
    certification, for test harnesses.  ``hard_timeout`` is each
    attempt's wall-clock allowance.  Workers are forked as the batch
    needs them and all killed when :meth:`run` ends; a fork copies only
    the calling thread, so no other thread may hold a lock a worker needs
    (Python >= 3.12 warns when a process with threads forks).  Every
    decision is :class:`BatchCore`'s; :meth:`run` is the shell that
    carries it out.
    """

    def __init__(
        self,
        task_runner: str = DEFAULT_TASK_RUNNER,
        certifier: Optional[Callable] = None,
        max_workers: int = 1,
        hard_timeout: float = 300.0,
        retry: Optional[RetryPolicy] = None,
        ladder: Sequence[DegradationLevel] = DEFAULT_LADDER,
    ):
        if not ladder:
            raise ValueError("the degradation ladder needs at least one level")
        self.task_runner = task_runner
        self.certifier = certifier
        self.max_workers = max(1, int(max_workers))
        self.hard_timeout = float(hard_timeout)
        self.retry = retry if retry is not None else RetryPolicy()
        self.ladder = tuple(ladder)
        self._context = get_context("fork")
        self._interrupt_requested = False

    def run(
        self, tasks: Sequence[Mapping[str, object]], ledger: Optional[BatchLedger] = None
    ) -> BatchReport:
        """Run ``tasks`` to terminal outcomes; never raises for task failures.

        With a ``ledger``, terminal outcomes are journaled as they land and
        recorded ``ok`` results are reused (re-certified) instead of
        re-running their tasks.  Each turn waits once, at most a second, on
        the busy workers' pipes and sentinels, so a signal is acted on within
        a second, even while a retry waits out its backoff."""
        completed: Dict[str, Dict[str, object]] = {}
        torn_tail = False
        if ledger is not None and ledger.exists():
            _, torn_tail = ledger.records()
            completed = ledger.completed()
        core = BatchCore(self, completed, torn_tail)
        busy: Dict[str, _Worker] = {}
        idle: List[_Worker] = []
        reports: List[BatchReport] = []

        def apply(actions: List[object]) -> None:
            for action in actions:
                if isinstance(action, Launch):
                    busy[action.fingerprint] = self._launch(action.payload, idle, busy)
                elif isinstance(action, Retire):
                    busy.pop(action.fingerprint).retire()
                elif isinstance(action, Record):
                    if ledger is not None:
                        ledger.append(action.record)
                else:
                    reports.append(action.report)

        for task in tasks:
            apply(core.add(task))
        self._interrupt_requested = False
        previous_handlers = self._install_signal_handlers()
        try:
            apply(core.advance(time.monotonic()))
            while not reports:
                ready = mp_connection.wait(
                    [w.conn for w in busy.values()] + [w.process.sentinel for w in busy.values()],
                    timeout=min(1.0, max(0.0, core.wake_at() - time.monotonic())),
                )
                now = time.monotonic()
                for fingerprint, worker in list(busy.items()):
                    if worker.conn in ready or worker.process.sentinel in ready:
                        apply(self._collect(core, fingerprint, worker, now))
                        if fingerprint in busy:  # accepted: the worker serves on
                            idle.append(busy.pop(fingerprint))
                apply(core.interrupt(now) if self._interrupt_requested else core.advance(now))
        except KeyboardInterrupt:
            apply(core.interrupt(time.monotonic()))
        finally:
            self._restore_signal_handlers(previous_handlers)
            for worker in idle + list(busy.values()):
                worker.retire()
        if ledger is not None:
            ledger.compact(core.order)
            ledger.close()
        return reports[0]

    def _launch(self, payload: Dict[str, object], idle: List[_Worker], busy) -> _Worker:
        """Send the attempt to an idle worker, or to a fresh one.  An idle
        worker that died since its last reply is replaced without charging
        the task; a fresh one that dies before reading is a crash.  ``busy``
        maps fingerprints to the workers running attempts."""
        request = (self.task_runner, payload)
        while idle:
            worker = idle.pop()
            try:
                if worker.process.is_alive():
                    worker.conn.send(request)
                    return worker
            except OSError:
                pass
            worker.retire()
        conn, child_conn = self._context.Pipe()
        inherited = [conn] + [w.conn for w in busy.values()]  # no worker is idle now
        process = self._context.Process(target=_serve, args=(child_conn, inherited), daemon=True)
        process.start()
        child_conn.close()  # EOF on ``conn`` then tracks the child
        with suppress(OSError):  # a worker that died at start is reported as a crash
            conn.send(request)
        return _Worker(process, conn)

    @staticmethod
    def _collect(core: BatchCore, fingerprint: str, worker: _Worker, now: float) -> List[object]:
        """The event of a busy worker whose pipe or sentinel is ready."""
        try:
            delivered = worker.conn.poll()
            payload = worker.conn.recv() if delivered else None
        except (EOFError, OSError):
            delivered = False
        if delivered:
            return core.reply(fingerprint, payload, now)
        worker.process.join()
        return core.death(fingerprint, _death_message(worker.process.exitcode), now)

    def _install_signal_handlers(self):
        if threading.current_thread() is not threading.main_thread():
            return None

        def handler(signum, frame):
            self._interrupt_requested = True

        return {s: signal.signal(s, handler) for s in (signal.SIGINT, signal.SIGTERM)}

    @staticmethod
    def _restore_signal_handlers(previous) -> None:
        for signum, old in (previous or {}).items():
            signal.signal(signum, old)
