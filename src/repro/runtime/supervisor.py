"""Supervised, fault-tolerant execution of batch solve tasks.

One :class:`Supervisor` runs a batch of independent tasks on up to
``max_workers`` **persistent worker processes** (``multiprocessing`` spawn
context) that live for one :meth:`Supervisor.run`, and survives anything a
worker can do.  A worker serves attempts until one does not end in an
accepted result; that worker is then SIGKILLed, so every retry runs in a
fresh process and a worker only carries state from successful attempts.

* **hard wall-clock timeout** — enforced from the parent: a worker that
  overruns its allowance is SIGKILLed and the attempt becomes a
  ``timeout`` failure.  This is the backstop behind the in-worker
  :class:`~repro.runtime.budget.Budget` (cooperative, can be defeated by
  a wedged C loop or a kernel bug); the parent's kill cannot be.
* **crash containment** — a worker that segfaults, is OOM-killed, raises,
  or returns garbage becomes a structured
  :class:`~repro.runtime.errors.TaskFailure` and the batch keeps going.
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
  the mode of the rung the parent ran (see :meth:`Supervisor._rejection`);
  a result that fails is quarantined into the ledger as an
  ``invalid_result`` failure and the attempt retried.
* **checkpoint/resume** — with a :class:`~repro.runtime.checkpoint.BatchLedger`
  every terminal outcome is durably journaled; a re-run skips tasks with
  recorded ``ok`` results (re-certified, returned byte-for-byte) and
  retries ``failed``/``interrupted`` ones.  SIGINT/SIGTERM mid-batch
  kills the workers and lands as a clean ``interrupted`` checkpoint
  (batch exit code ``EXIT_CODES[STATUS_INTERRUPTED]``, 130, as for a
  ``SolveOutcome``).

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
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from multiprocessing import get_context
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.runtime.budget import EXIT_CODES, STATUS_INTERRUPTED
from repro.runtime.checkpoint import (
    STATUS_FAILED,
    STATUS_OK,
    BatchLedger,
    task_fingerprint,
)
from repro.runtime.errors import (
    FAILURE_CRASHED,
    FAILURE_EXHAUSTED_RETRIES,
    FAILURE_INVALID_RESULT,
    FAILURE_TIMEOUT,
    TaskFailure,
)

__all__ = [
    "RetryPolicy",
    "DegradationLevel",
    "DEFAULT_LADDER",
    "TaskResult",
    "BatchReport",
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
    DegradationLevel(
        "tight", mode="ranked", budget_scale=0.25, fallback_max_work=2_000_000
    ),
    DegradationLevel(
        "decide", mode="decide", budget_scale=0.25, fallback_max_work=2_000_000
    ),
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

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

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
    def from_record(
        cls, record: Mapping[str, object], cached: bool = False
    ) -> "TaskResult":
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
    def ok(self) -> List[TaskResult]:
        return [r for r in self.results if r.status == STATUS_OK]

    @property
    def failed(self) -> List[TaskResult]:
        return [r for r in self.results if r.status == STATUS_FAILED]

    @property
    def exit_code(self) -> int:
        if self.interrupted:
            return EXIT_CODES[STATUS_INTERRUPTED]
        return 1 if any(r.status != STATUS_OK for r in self.results) else 0

    def counts(self) -> Dict[str, int]:
        return dict(Counter(r.status for r in self.results))

    def failure_kinds(self) -> Dict[str, int]:
        """How often each failure kind occurred, across all attempts."""
        return dict(
            Counter(
                str(f.get("kind", "?")) for r in self.results for f in r.failures
            )
        )

    def describe(self) -> str:
        """The failure-summary report printed by ``repro batch``."""
        lines = []
        for result in self.results:
            label = result.task.get("label") or result.task.get(
                "query", result.fingerprint
            )
            parts = [f"{label}: {result.status}"]
            if result.level and result.level != "full":
                parts.append(f"level={result.level}")
            parts.append(f"attempts={result.attempts}")
            if result.cached:
                parts.append("(resumed from ledger)")
            if result.failures:
                kinds = Counter(str(f.get("kind", "?")) for f in result.failures)
                parts.append(
                    "failures=" + ",".join(f"{k}x{n}" for k, n in sorted(kinds.items()))
                )
            lines.append("  ".join(parts))
        counts = self.counts()
        summary = [
            f"{len(self.results)} task(s):",
            ", ".join(f"{counts.get(s, 0)} {s}" for s in (STATUS_OK, STATUS_FAILED, STATUS_INTERRUPTED)),
        ]
        kinds = self.failure_kinds()
        if kinds:
            summary.append(
                "failure kinds: "
                + ", ".join(f"{k}={n}" for k, n in sorted(kinds.items()))
            )
        if self.interrupted:
            summary.append("batch interrupted — resume with the same ledger")
        lines.append(" ".join(summary[:2]) + ("; " + "; ".join(summary[2:]) if summary[2:] else ""))
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


def _serve(conn) -> None:
    """Worker process entry point: serve ``(runner_path, payload)`` requests.

    Replies to each request on the same pipe until it receives ``None``
    or hits EOF.  What the worker cannot catch (SIGKILL, segfault, OOM, a
    wedged loop) the parent detects through the worker's sentinel or its
    hard deadline.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent owns Ctrl-C
    try:
        for runner_path, payload in iter(conn.recv, None):
            reply = _run_attempt(runner_path, payload)
            try:
                conn.send(reply)
            except Exception as exc:  # e.g. an unpicklable result
                conn.send(_error_reply(exc))
    except EOFError:
        pass


# -- parent side -------------------------------------------------------------


class _TaskState:
    """Mutable per-task bookkeeping inside one batch run."""

    __slots__ = (
        "task",
        "fingerprint",
        "order",
        "level_index",
        "level_failures",
        "total_attempts",
        "failures",
        "ready_at",
        "elapsed",
    )

    def __init__(self, task: Dict[str, object], fingerprint: str, order: int):
        self.task = task
        self.fingerprint = fingerprint
        self.order = order
        self.level_index = 0
        self.level_failures = 0  # failures at the current ladder level
        self.total_attempts = 0
        self.failures: List[Dict[str, object]] = []
        self.ready_at = 0.0
        self.elapsed = 0.0

    def outcome(
        self,
        status: str,
        level: Optional[str],
        result: Optional[Dict[str, object]] = None,
    ) -> TaskResult:
        """This task's terminal :class:`TaskResult` as it stands."""
        return TaskResult(
            task=self.task,
            fingerprint=self.fingerprint,
            status=status,
            level=level,
            attempts=self.total_attempts,
            result=result,
            failures=self.failures,
            elapsed=self.elapsed,
        )


class _Worker:
    """One persistent worker process and the parent's end of its pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn

    def retire(self) -> None:
        self.process.kill()
        self.process.join()
        self.conn.close()


class _Attempt:
    """One attempt in flight on a worker."""

    __slots__ = ("state", "worker", "started_at", "deadline")

    def __init__(self, state, worker, started_at, deadline):
        self.state = state
        self.worker = worker
        self.started_at = started_at
        self.deadline = deadline


class Supervisor:
    """Runs a batch of tasks in supervised worker processes.

    ``certifier`` is a callable ``(task, result_payload) ->``
    :class:`repro.core.certify.Certification` applied to every delivered
    result (and to ledger-cached results on resume), with
    ``task["mode"]`` set to the rung's mode; ``None`` disables
    certification, for test harnesses.
    ``isolation`` is ``"process"`` (the default: spawned
    workers started lazily and all killed when :meth:`run` ends, each
    serving attempts until one times out, crashes, replies ``ok: False``
    or garbage, or fails certification — then it is SIGKILLed and the
    retry gets a fresh worker) or ``"inline"`` (the attempt runs in this
    process — no crash containment or timeout enforcement, used by
    deterministic scheduling tests and overhead baselines).

    ``clock``/``sleep`` are injectable for the fault suites
    (:class:`repro.runtime.faults.FakeClock` drives the backoff schedule
    deterministically); real batches use ``time.monotonic``/``time.sleep``.
    """

    def __init__(
        self,
        task_runner: str = DEFAULT_TASK_RUNNER,
        certifier: Optional[Callable] = None,
        max_workers: int = 1,
        hard_timeout: float = 300.0,
        retry: Optional[RetryPolicy] = None,
        ladder: Sequence[DegradationLevel] = DEFAULT_LADDER,
        isolation: str = "process",
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if isolation not in ("process", "inline"):
            raise ValueError(f"unknown isolation {isolation!r}")
        if not ladder:
            raise ValueError("the degradation ladder needs at least one level")
        self.task_runner = task_runner
        self.certifier = certifier
        self.max_workers = max(1, int(max_workers))
        self.hard_timeout = float(hard_timeout)
        self.retry = retry if retry is not None else RetryPolicy()
        self.ladder = tuple(ladder)
        self.isolation = isolation
        self._clock = clock
        self._sleep = sleep
        self._context = get_context("spawn")
        self._interrupt_requested = False

    # -- budget shaping ----------------------------------------------------

    def _level_caps(
        self, task: Mapping[str, object], level: DegradationLevel
    ) -> Tuple[Optional[float], Optional[int]]:
        deadline = task.get("deadline")
        max_work = task.get("max_work")
        if deadline is not None:
            deadline = float(deadline) * level.budget_scale
        if max_work is not None:
            max_work = max(1, int(int(max_work) * level.budget_scale))
        elif level.fallback_max_work is not None and level.budget_scale < 1.0:
            max_work = level.fallback_max_work
        return deadline, max_work

    def _attempt_payload(self, state: _TaskState) -> Dict[str, object]:
        level = self.ladder[state.level_index]
        deadline, max_work = self._level_caps(state.task, level)
        return dict(
            state.task,
            level=level.name,
            mode=level.mode,
            deadline=deadline,
            max_work=max_work,
            attempt=state.total_attempts + 1,
        )

    # -- failure accounting ------------------------------------------------

    def _record_failure(
        self,
        state: _TaskState,
        ledger: Optional[BatchLedger],
        kind: str,
        message: str,
        detail: Optional[str] = None,
    ) -> None:
        """Charge the attempt in flight with a failure of ``kind``.

        A rejected result is journaled as quarantined; a rung whose
        retries are spent is left for the next one; the retry waits out
        its backoff.
        """
        level = self.ladder[state.level_index].name
        state.total_attempts += 1
        state.level_failures += 1
        failure = TaskFailure(
            kind,
            message,
            fingerprint=state.fingerprint,
            level=level,
            attempt=state.total_attempts,
            detail=detail,
        )
        state.failures.append(failure.as_record())
        if kind == FAILURE_INVALID_RESULT and ledger is not None:
            ledger.append(
                {
                    "type": "quarantine",
                    "fingerprint": state.fingerprint,
                    "attempt": state.total_attempts,
                    "level": level,
                    "reason": str(failure),
                }
            )
        if state.level_failures >= self.retry.max_attempts:
            # Exhausted this rung: descend the ladder.
            state.level_index += 1
            state.level_failures = 0
        state.ready_at = self._clock() + self.retry.delay(
            state.fingerprint, len(state.failures)
        )

    def _exhausted(self, state: _TaskState) -> bool:
        return state.level_index >= len(self.ladder)

    def _finalise_failure(self, state: _TaskState) -> TaskResult:
        failure = TaskFailure(
            FAILURE_EXHAUSTED_RETRIES,
            f"task {state.fingerprint} failed at every degradation level",
            fingerprint=state.fingerprint,
            attempt=state.total_attempts,
        )
        state.failures.append(failure.as_record())
        return state.outcome(STATUS_FAILED, self.ladder[-1].name)

    # -- result handling ---------------------------------------------------

    def _rejection(
        self, task: Dict[str, object], payload: object, level: Optional[str]
    ) -> Optional[str]:
        """Why ``payload`` fails as the answer of rung ``level``, or ``None``.

        The certifier sees ``task["mode"]`` set to that rung's mode, so the
        parent, never the reply, says which question was asked.  Unknown
        levels read as the top rung: among them ``cache``, the level older
        ledgers recorded for a cache hit served without a worker.  A
        certifier that raises rejects.
        """
        if self.certifier is None:
            return None
        rung = next((r for r in self.ladder if r.name == level), self.ladder[0])
        try:
            certification = self.certifier(dict(task, mode=rung.mode), payload)
        except Exception as exc:
            return f"certifier raised {type(exc).__name__}: {exc}"
        return None if certification else certification.describe()

    def _accept_payload(
        self,
        state: _TaskState,
        payload: object,
        ledger: Optional[BatchLedger],
    ) -> Optional[TaskResult]:
        """Validate + certify a delivered payload; a ``TaskResult`` when
        accepted, ``None`` when the attempt failed (failure recorded)."""
        if not isinstance(payload, dict):
            self._record_failure(
                state,
                ledger,
                FAILURE_INVALID_RESULT,
                f"worker returned {type(payload).__name__}, not a result dict",
            )
            return None
        if payload.get("ok") is False:
            reason = str(payload.get("reason", ""))
            kind = (
                FAILURE_TIMEOUT
                if reason in ("deadline", "budget_exhausted")
                else FAILURE_CRASHED
            )
            self._record_failure(
                state,
                ledger,
                kind,
                payload.get("error") or f"worker gave up: {reason or 'unspecified'}",
                detail=reason or None,
            )
            return None
        level = self.ladder[state.level_index].name
        detail = self._rejection(state.task, payload, level)
        if detail is not None:
            self._record_failure(
                state,
                ledger,
                FAILURE_INVALID_RESULT,
                f"result failed certification: {detail}",
                detail=detail,
            )
            return None
        state.total_attempts += 1
        return state.outcome(STATUS_OK, level, payload)

    # -- process plumbing --------------------------------------------------

    def _spawn(self) -> _Worker:
        conn, child_conn = self._context.Pipe()
        process = self._context.Process(target=_serve, args=(child_conn,), daemon=True)
        process.start()
        child_conn.close()  # EOF on ``conn`` then tracks the child
        return _Worker(process, conn)

    def _launch(self, state: _TaskState, idle: List[_Worker]) -> _Attempt:
        """Send the attempt to an idle worker, or to a fresh one.

        An idle worker that died since its last reply is replaced without
        charging the task; a fresh worker that dies before reading is
        reported by :meth:`_reap` like any crash.
        """
        request = (self.task_runner, self._attempt_payload(state))
        while idle:
            worker = idle.pop()
            try:
                if worker.process.is_alive():
                    worker.conn.send(request)
                    break
            except OSError:
                pass
            worker.retire()
        else:
            worker = self._spawn()
            try:
                worker.conn.send(request)
            except OSError:
                pass
        started = self._clock()
        hard = float(state.task.get("hard_timeout", self.hard_timeout))
        return _Attempt(state, worker, started, started + hard)

    def _reap(self, attempt: _Attempt, ledger: Optional[BatchLedger]):
        """Collect an attempt whose worker replied or died; returns a
        TaskResult, or None when the attempt failed (failure recorded)."""
        state = attempt.state
        state.elapsed += self._clock() - attempt.started_at
        payload = None
        delivered = False
        try:
            if attempt.worker.conn.poll():
                payload = attempt.worker.conn.recv()
                delivered = True
        except (EOFError, OSError):
            delivered = False
        if not delivered:
            attempt.worker.process.join()
            exitcode = attempt.worker.process.exitcode
            if exitcode and exitcode < 0:
                message = (
                    f"worker killed by signal {-exitcode}"
                    f" ({signal.Signals(-exitcode).name})"
                    if -exitcode in signal.Signals.__members__.values()
                    else f"worker killed by signal {-exitcode}"
                )
            elif exitcode:
                message = f"worker exited with code {exitcode}"
            else:
                message = "worker exited without delivering a result"
            self._record_failure(state, ledger, FAILURE_CRASHED, message)
            return None
        return self._accept_payload(state, payload, ledger)

    def _overrun(self, attempt: _Attempt, ledger: Optional[BatchLedger]) -> None:
        """Hard-timeout enforcement: record the failure; the caller SIGKILLs
        the worker, as it does after every failed attempt."""
        state = attempt.state
        state.elapsed += self._clock() - attempt.started_at
        self._record_failure(
            state,
            ledger,
            FAILURE_TIMEOUT,
            f"worker exceeded the hard wall-clock timeout "
            f"({attempt.deadline - attempt.started_at:.3g}s) and was killed",
        )

    def _run_inline(self, state: _TaskState, ledger: Optional[BatchLedger]):
        """The ``inline`` isolation path: no process, no timeout backstop."""
        started = self._clock()
        result = _run_attempt(self.task_runner, self._attempt_payload(state))
        state.elapsed += self._clock() - started
        return self._accept_payload(state, result, ledger)

    # -- signals -----------------------------------------------------------

    def _install_signal_handlers(self):
        if threading.current_thread() is not threading.main_thread():
            return None

        def handler(signum, frame):
            self._interrupt_requested = True

        previous = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, handler)
        return previous

    @staticmethod
    def _restore_signal_handlers(previous) -> None:
        if previous:
            for signum, old in previous.items():
                signal.signal(signum, old)

    # -- the batch loop ----------------------------------------------------

    def run(
        self,
        tasks: Sequence[Mapping[str, object]],
        ledger: Optional[BatchLedger] = None,
    ) -> BatchReport:
        """Run ``tasks`` to terminal outcomes; never raises for task failures.

        With a ``ledger``, terminal outcomes are journaled as they land and
        recorded ``ok`` results are reused (re-certified) instead of
        re-running their tasks.
        """
        self._interrupt_requested = False
        results: Dict[str, TaskResult] = {}
        order: List[str] = []
        states: List[_TaskState] = []
        completed: Dict[str, Dict[str, object]] = {}
        torn_tail = False
        if ledger is not None and ledger.exists():
            _, torn_tail = ledger.records()
            completed = ledger.completed()
        for task in tasks:
            task = dict(task)
            fingerprint = task_fingerprint(task)
            if fingerprint in results or any(
                s.fingerprint == fingerprint for s in states
            ):
                continue  # duplicate spec: one outcome per fingerprint
            order.append(fingerprint)
            record = completed.get(fingerprint)
            if record is not None:
                cached = TaskResult.from_record(record, cached=True)
                detail = None
                if cached.result is not None:
                    detail = self._rejection(task, cached.result, cached.level)
                if detail is None:
                    results[fingerprint] = cached
                    continue
                # The ledger lied (bit rot, version skew): quarantine the
                # record and re-run the task.
                ledger.append(
                    {
                        "type": "quarantine",
                        "fingerprint": fingerprint,
                        "attempt": 0,
                        "level": cached.level,
                        "reason": f"ledger result failed re-certification: {detail}",
                    }
                )
            states.append(_TaskState(task, fingerprint, len(order)))

        previous_handlers = self._install_signal_handlers()
        pending: List[_TaskState] = list(states)
        running: List[_Attempt] = []
        idle: List[_Worker] = []
        try:
            while (pending or running) and not self._interrupt_requested:
                now = self._clock()
                # Fill free worker slots with ready tasks (FIFO by order).
                while len(running) < self.max_workers:
                    ready = [s for s in pending if s.ready_at <= now]
                    if not ready:
                        break
                    state = min(ready, key=lambda s: s.order)
                    pending.remove(state)
                    try:
                        if self.isolation == "inline":
                            outcome = self._run_inline(state, ledger)
                            self._settle(state, outcome, pending, results, ledger)
                            now = self._clock()
                        else:
                            running.append(self._launch(state, idle))
                    except KeyboardInterrupt:
                        # Mid-attempt interrupt: the task is neither pending
                        # nor running — put it back so the checkpoint below
                        # records it as interrupted.
                        pending.append(state)
                        raise
                if self._interrupt_requested:
                    break
                if not running:
                    if not pending:
                        break
                    wake_at = min(s.ready_at for s in pending)
                    delay = wake_at - self._clock()
                    if delay > 0:
                        self._sleep(delay)
                    continue
                # Wait for a reply, a worker death or the earliest deadline.
                horizon = min(a.deadline for a in running)
                for state in pending:
                    horizon = min(horizon, state.ready_at)
                timeout = max(0.0, horizon - self._clock())
                events = mp_connection.wait(
                    [a.worker.conn for a in running]
                    + [a.worker.process.sentinel for a in running],
                    timeout=min(timeout, 1.0),
                )
                now = self._clock()
                for attempt in list(running):
                    worker = attempt.worker
                    if worker.conn in events or worker.process.sentinel in events:
                        outcome = self._reap(attempt, ledger)
                    elif now >= attempt.deadline:
                        self._overrun(attempt, ledger)
                        outcome = None
                    else:
                        continue
                    running.remove(attempt)
                    # Only an accepted result returns its worker to the pool:
                    # every retry runs in a fresh process.
                    if outcome is None:
                        worker.retire()
                    else:
                        idle.append(worker)
                    self._settle(attempt.state, outcome, pending, results, ledger)
        except KeyboardInterrupt:
            self._interrupt_requested = True
        finally:
            self._restore_signal_handlers(previous_handlers)
            for worker in idle + [a.worker for a in running]:
                worker.retire()

        interrupted = self._interrupt_requested
        if interrupted:
            pending.extend(a.state for a in running)
            for state in pending:
                result = state.outcome(
                    STATUS_INTERRUPTED,
                    self.ladder[min(state.level_index, len(self.ladder) - 1)].name,
                )
                results[state.fingerprint] = result
                if ledger is not None:
                    ledger.append(result.as_record())
            if ledger is not None:
                ledger.append({"type": "batch", "event": "interrupted"})

        if ledger is not None:
            ledger.compact()
            ledger.close()
        ordered = [results[f] for f in order if f in results]
        return BatchReport(ordered, interrupted=interrupted, torn_tail=torn_tail)

    def _settle(
        self,
        state: _TaskState,
        outcome: Optional[TaskResult],
        pending: List[_TaskState],
        results: Dict[str, TaskResult],
        ledger: Optional[BatchLedger],
    ) -> None:
        """Route one attempt's outcome: done, retry, or terminal failure."""
        if outcome is None and self._exhausted(state):
            outcome = self._finalise_failure(state)
        if outcome is None:
            pending.append(state)  # retry after its backoff delay
            return
        results[state.fingerprint] = outcome
        if ledger is not None:
            ledger.append(outcome.as_record())
