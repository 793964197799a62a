"""Resource governance, fault tolerance, and fault injection.

See :mod:`repro.runtime.budget` for deadlines/work budgets/outcomes,
:mod:`repro.runtime.errors` for the ``ReproError`` taxonomy,
:mod:`repro.runtime.checkpoint` for the durable batch ledger,
:mod:`repro.runtime.supervisor` for the supervised batch runtime, and
:mod:`repro.runtime.faults` for the deterministic fault-injection harness;
``docs/ROBUSTNESS.md`` documents the anytime guarantees per solver and the
batch runtime's failure semantics.
"""

from repro.runtime.budget import (
    EXIT_CODES,
    STATUS_BUDGET,
    STATUS_COMPLETE,
    STATUS_DEADLINE,
    STATUS_INTERRUPTED,
    Budget,
    BudgetExceeded,
    SolveOutcome,
    completed_outcome,
)
from repro.runtime.errors import (
    FAILURE_CRASHED,
    FAILURE_EXHAUSTED_RETRIES,
    FAILURE_INVALID_RESULT,
    FAILURE_KINDS,
    FAILURE_TIMEOUT,
    LedgerError,
    ReproError,
    UserError,
)

__all__ = [
    "Budget",
    "BudgetExceeded",
    "SolveOutcome",
    "completed_outcome",
    "EXIT_CODES",
    "STATUS_BUDGET",
    "STATUS_COMPLETE",
    "STATUS_DEADLINE",
    "STATUS_INTERRUPTED",
    "ReproError",
    "UserError",
    "LedgerError",
    "FAILURE_TIMEOUT",
    "FAILURE_CRASHED",
    "FAILURE_INVALID_RESULT",
    "FAILURE_EXHAUSTED_RETRIES",
    "FAILURE_KINDS",
]
