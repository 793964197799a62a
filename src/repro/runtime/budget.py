"""Resource governance for the solver stack: deadlines, work budgets, outcomes.

Every potentially-exponential loop in the repository — candidate-bag
enumeration, the block dynamic program of Algorithms 1 and 2, the any-k
deviation heaps and Yannakakis execution — accepts an optional
:class:`Budget` and calls :meth:`Budget.tick` (or the non-raising
:meth:`Budget.try_tick`) once per unit of work.  A budget bounds a run two
ways:

* ``max_work`` — a hard cap on work units; detection is *exact*: the tick
  that reaches the cap is the one that reports exhaustion.
* ``deadline`` — a wall-clock allowance in seconds.  Time is only read
  every ``check_interval`` work units (amortised: the hot loop pays one
  integer decrement per iteration, a clock call every N units), so a
  deadline is honoured within one *amortization window* of
  ``check_interval`` units — plus at most one in-flight batch for loops
  that aggregate their ticks (each batch is capped at ``check_interval``).
  Chunky call sites (one relational operator, one vectorised batch) use
  :meth:`charge`, which always reads the clock.

Exhaustion is recorded on the budget (:attr:`Budget.status`) and, for the
raising entry points, signalled with :class:`BudgetExceeded`.  The solvers
catch it at their own boundary and degrade to an *anytime* answer — the
best fragment/prefix they have — accompanied by an honest
:class:`SolveOutcome`.  A budget that has exhausted stays exhausted: every
further tick fails immediately, so partially-unwound call stacks cannot
resume work.

The clock is injectable (``clock=``) so tests and the fault harness
(:mod:`repro.runtime.faults`) can drive deadlines deterministically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = [
    "Budget",
    "BudgetExceeded",
    "SolveOutcome",
    "EXIT_CODES",
    "STATUS_COMPLETE",
    "STATUS_DEADLINE",
    "STATUS_BUDGET",
    "STATUS_INTERRUPTED",
]

STATUS_COMPLETE = "complete"
STATUS_DEADLINE = "deadline"
STATUS_BUDGET = "budget_exhausted"
STATUS_INTERRUPTED = "interrupted"

#: Process exit codes per outcome status, following the Unix conventions of
#: ``timeout(1)`` (124) and 128+SIGINT (130); 125 is the work-budget twin
#: of 124.  Used by the CLI's governed verbs.
EXIT_CODES = {
    STATUS_COMPLETE: 0,
    STATUS_DEADLINE: 124,
    STATUS_BUDGET: 125,
    STATUS_INTERRUPTED: 130,
}

#: Default number of ticks between wall-clock reads.
DEFAULT_CHECK_INTERVAL = 1024


@dataclass(frozen=True)
class SolveOutcome:
    """How a governed run ended: status plus its resource counters.

    ``status`` is one of ``complete`` / ``deadline`` / ``budget_exhausted``
    / ``interrupted``.  Any status other than ``complete`` means the
    accompanying result is an *anytime* answer: valid as far as it goes
    (a prefix of the enumeration, the best fragment found so far, a sound
    under-approximation of a bag set) but not necessarily the full answer.
    """

    status: str
    work: int = 0
    elapsed: float = 0.0
    deadline: Optional[float] = None
    max_work: Optional[int] = None

    @property
    def complete(self) -> bool:
        return self.status == STATUS_COMPLETE

    @property
    def partial(self) -> bool:
        """True when the run stopped early and the result is anytime."""
        return not self.complete

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.status]

    def describe(self) -> str:
        """One status line, as printed by the CLI."""
        parts = [f"outcome: {self.status}", f"work={self.work}"]
        parts.append(f"elapsed={self.elapsed:.3f}s")
        if self.deadline is not None:
            parts.append(f"deadline={self.deadline:g}s")
        if self.max_work is not None:
            parts.append(f"max_work={self.max_work}")
        return " ".join(parts)


class BudgetExceeded(RuntimeError):
    """Raised by :meth:`Budget.tick` when the budget is exhausted.

    Carries the exhaustion ``status`` (``deadline`` or
    ``budget_exhausted``) and the counters at the point of exhaustion.
    Governed solvers catch this at their boundary and return their anytime
    result with the matching :class:`SolveOutcome`.
    """

    def __init__(self, status: str, work: int, elapsed: float):
        super().__init__(f"{status} after {work} work units ({elapsed:.3f}s)")
        self.status = status
        self.work = work
        self.elapsed = elapsed


class Budget:
    """A wall-clock deadline and/or work-unit cap shared across a run.

    One budget instance governs one logical run and may be threaded
    through several components (bag generation, then the solver, then
    execution): the counters accumulate across all of them.
    """

    __slots__ = (
        "deadline",
        "max_work",
        "work",
        "check_interval",
        "_clock",
        "_start",
        "_deadline_at",
        "_countdown",
        "_status",
    )

    def __init__(
        self,
        deadline: Optional[float] = None,
        max_work: Optional[int] = None,
        clock: Optional[Callable[[], float]] = None,
        check_interval: int = DEFAULT_CHECK_INTERVAL,
    ):
        if deadline is not None and deadline < 0:
            raise ValueError("deadline must be non-negative")
        if max_work is not None and max_work < 0:
            raise ValueError("max_work must be non-negative")
        self.deadline = deadline
        self.max_work = max_work
        self.work = 0
        self.check_interval = max(1, int(check_interval))
        self._clock = clock if clock is not None else time.monotonic
        self._start = self._clock()
        self._deadline_at = None if deadline is None else self._start + deadline
        self._countdown = self.check_interval
        self._status = STATUS_COMPLETE

    # -- state -------------------------------------------------------------

    @property
    def status(self) -> str:
        """``complete`` while within budget, else the exhaustion status."""
        return self._status

    @property
    def exhausted(self) -> bool:
        return self._status != STATUS_COMPLETE

    def elapsed(self) -> float:
        return self._clock() - self._start

    def remaining_work(self) -> Optional[int]:
        if self.max_work is None:
            return None
        return max(0, self.max_work - self.work)

    # -- ticking -----------------------------------------------------------

    def try_tick(self, units: int = 1) -> bool:
        """Count ``units`` of work; ``False`` once the budget is exhausted.

        The non-raising twin of :meth:`tick`, for cooperative loops that
        prefer to unwind by hand (e.g. recursive enumeration keeping a
        partial result set).  Exhaustion is sticky: once this returns
        ``False`` it returns ``False`` forever, without counting further
        work.
        """
        if self._status != STATUS_COMPLETE:
            return False
        self.work += units
        if self.max_work is not None and self.work >= self.max_work:
            self._status = STATUS_BUDGET
            return False
        # The countdown is denominated in work units, not calls, so hot
        # loops may aggregate up to ``check_interval`` units per call
        # without widening the deadline's amortization window.
        self._countdown -= units
        if self._countdown <= 0:
            self._countdown = self.check_interval
            if self._deadline_at is not None and self._clock() >= self._deadline_at:
                self._status = STATUS_DEADLINE
                return False
        return True

    def tick(self, units: int = 1) -> None:
        """Count ``units`` of work, raising :class:`BudgetExceeded` on exhaustion."""
        if not self.try_tick(units):
            raise BudgetExceeded(self._status, self.work, self.elapsed())

    def charge(self, units: int) -> None:
        """Like :meth:`tick` for chunky units — always reads the clock.

        Call sites that account for one relational operator or one
        vectorised batch at a time are coarse enough that a clock read per
        call is free; skipping the amortisation keeps the deadline honest
        across big charges.
        """
        self._countdown = 0
        self.tick(units)

    def check(self) -> None:
        """Force a deadline check without counting work; raises on exhaustion."""
        if self._status == STATUS_COMPLETE:
            if self._deadline_at is not None and self._clock() >= self._deadline_at:
                self._status = STATUS_DEADLINE
        if self._status != STATUS_COMPLETE:
            raise BudgetExceeded(self._status, self.work, self.elapsed())

    def mark_interrupted(self) -> None:
        """Record a user interrupt (Ctrl-C) as this run's exhaustion status."""
        if self._status == STATUS_COMPLETE:
            self._status = STATUS_INTERRUPTED

    # -- reporting ---------------------------------------------------------

    def outcome(self) -> SolveOutcome:
        """The run's :class:`SolveOutcome` as of now."""
        return SolveOutcome(
            status=self._status,
            work=self.work,
            elapsed=self.elapsed(),
            deadline=self.deadline,
            max_work=self.max_work,
        )

    def __repr__(self) -> str:
        return (
            f"Budget(deadline={self.deadline}, max_work={self.max_work}, "
            f"work={self.work}, status={self._status!r})"
        )


def completed_outcome(work: int = 0, elapsed: float = 0.0) -> SolveOutcome:
    """The outcome of an ungoverned (budget-less) run: trivially complete."""
    return SolveOutcome(status=STATUS_COMPLETE, work=work, elapsed=elapsed)
