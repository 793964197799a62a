"""The ``ReproError`` exception taxonomy.

Every failure the system can *expect* — a missing input file, a corrupt
batch ledger, a worker process that crashed or timed out — is represented
by a :class:`ReproError` subclass carrying a process exit code, so the CLI
can catch the whole family at one boundary and turn it into a structured
one-line error instead of a traceback.  Programming errors keep raising
their natural exceptions and keep their tracebacks.

Exit-code conventions:

* ``2`` — user-level errors (bad arguments, missing files, corrupt
  ledgers): the same code ``argparse`` uses for unusable invocations.
* ``1`` — task/batch failures: the run worked as designed but some result
  could not be produced.
* The governed-solve codes (124/125/130) stay with
  :mod:`repro.runtime.budget`; a :class:`TaskFailure` of kind ``timeout``
  describes one *task* inside a surviving batch, not the process itself.

:class:`TaskFailure` doubles as the supervisor's structured failure
*record*: one instance describes one failed attempt-or-task with a ``kind``
from :data:`FAILURE_KINDS`, and :meth:`TaskFailure.as_record` is what the
batch ledger and the failure-summary report store.
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = [
    "ReproError",
    "UserError",
    "LedgerError",
    "TaskFailure",
    "FAILURE_TIMEOUT",
    "FAILURE_CRASHED",
    "FAILURE_INVALID_RESULT",
    "FAILURE_EXHAUSTED_RETRIES",
    "FAILURE_KINDS",
]


class ReproError(Exception):
    """Base class of all expected, user-reportable failures.

    ``exit_code`` is the process exit code the CLI uses when this error
    terminates a run; subclasses override the class attribute.
    """

    exit_code = 1


class UserError(ReproError):
    """The invocation cannot be carried out: missing hypergraph file, bad
    query or workload name, unusable flag combination.  Exit code 2, like
    ``argparse`` rejections."""

    exit_code = 2


class LedgerError(ReproError):
    """A batch ledger exists but cannot be trusted: corrupt records in the
    middle of the journal, a foreign file, an incompatible version.  The
    safe reaction is a clean refusal (exit 2) — resuming from a lying
    ledger could silently drop or duplicate tasks."""

    exit_code = 2


#: The failure kinds a supervised task can report.
FAILURE_TIMEOUT = "timeout"
FAILURE_CRASHED = "crashed"
FAILURE_INVALID_RESULT = "invalid_result"
FAILURE_EXHAUSTED_RETRIES = "exhausted_retries"

FAILURE_KINDS = (
    FAILURE_TIMEOUT,
    FAILURE_CRASHED,
    FAILURE_INVALID_RESULT,
    FAILURE_EXHAUSTED_RETRIES,
)


class TaskFailure(ReproError):
    """One supervised task (or task attempt) failed, in a structured way.

    ``kind`` is one of :data:`FAILURE_KINDS`:

    * ``timeout`` — the worker overran its hard wall-clock allowance and
      was killed from the parent;
    * ``crashed`` — the worker died (segfault, OOM kill, unhandled
      exception, ``kill -9``) without delivering a result;
    * ``invalid_result`` — the worker delivered something that is not a
      well-formed result, or a result that failed independent
      certification;
    * ``exhausted_retries`` — every attempt at every degradation level
      failed; the task is recorded as ``failed`` and the batch moves on.

    The supervisor *contains* these: per-task failures are collected into
    the batch report and the ledger, never raised across the batch loop.
    """

    exit_code = 1

    def __init__(
        self,
        kind: str,
        message: str,
        *,
        fingerprint: Optional[str] = None,
        level: Optional[str] = None,
        attempt: Optional[int] = None,
        detail: Optional[str] = None,
    ):
        if kind not in FAILURE_KINDS:
            raise ValueError(f"unknown failure kind {kind!r}; known: {FAILURE_KINDS}")
        super().__init__(message)
        self.kind = kind
        self.fingerprint = fingerprint
        self.level = level
        self.attempt = attempt
        self.detail = detail

    def as_record(self) -> Dict[str, object]:
        """The JSON-able form stored in the batch ledger."""
        record: Dict[str, object] = {"kind": self.kind, "message": str(self)}
        if self.fingerprint is not None:
            record["fingerprint"] = self.fingerprint
        if self.level is not None:
            record["level"] = self.level
        if self.attempt is not None:
            record["attempt"] = self.attempt
        if self.detail is not None:
            record["detail"] = self.detail
        return record

    def __repr__(self) -> str:
        return f"TaskFailure(kind={self.kind!r}, message={str(self)!r})"
