"""The ``ReproError`` exception taxonomy.

Every failure the system can *expect* to end a run — a missing input
file, an unknown query, a corrupt batch ledger — is represented by a
:class:`ReproError` subclass carrying a process exit code, so the CLI
can catch the whole family at one boundary and turn it into a structured
one-line error instead of a traceback.  Programming errors keep raising
their natural exceptions and keep their tracebacks.

Exit-code conventions:

* ``2`` — user-level errors (bad arguments, missing files, corrupt
  ledgers): the same code ``argparse`` uses for unusable invocations.
* ``1`` — task/batch failures: the run worked as designed but some result
  could not be produced.
* The governed-solve codes (124/125/130) stay with
  :mod:`repro.runtime.budget`.

A failed task *attempt* inside a surviving batch is not an exception: the
supervisor records it as a plain dict whose ``kind`` is one of
:data:`FAILURE_KINDS` — a ``timeout`` there describes one attempt, not the
process itself.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "UserError",
    "LedgerError",
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


#: The failure kinds a supervised task attempt can report:
#:
#: * ``timeout`` — the worker overran its hard wall-clock allowance and was
#:   killed from the parent, or reported an exhausted in-worker budget;
#: * ``crashed`` — the worker died (segfault, OOM kill, unhandled exception,
#:   ``kill -9``) without delivering a result;
#: * ``invalid_result`` — the worker delivered something that is not a
#:   well-formed result, or a result that failed independent certification;
#: * ``exhausted_retries`` — every attempt at every degradation level failed;
#:   the task is recorded as ``failed`` and the batch moves on.
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
