"""Deterministic fault injection for the robustness test harness.

Three injection mechanisms, all deterministic and process-local:

* :class:`FakeClock` — an injectable clock for :class:`repro.runtime.Budget`
  (``Budget(clock=FakeClock(...))``).  Time only moves when the test says
  so (``advance``) or by a fixed amount per read (``auto_advance``), which
  makes deadline behaviour — including the amortization window — exactly
  reproducible.
* :class:`FaultPlan` — scripted failures at named *sites*.  Production
  code marks its fault points with :func:`maybe_fail("site.name")`; when no
  plan is installed that is a single global ``is None`` check.  A test
  installs a plan with :func:`inject` and schedules which call to a site
  should raise which exception (``plan.fail("ledger.append",
  exc=OSError(errno.ENOSPC, ...))``).  The batch ledger exposes
  ``ledger.append`` and ``ledger.read``; the decomposition cache exposes
  ``ctdcache.read`` and ``ctdcache.write``.
* Scripted budget exhaustion needs no machinery of its own:
  ``Budget(max_work=N)`` exhausts *exactly* at the Nth tick, and
  ``Budget(deadline=d, clock=FakeClock(auto_advance=...), check_interval=c)``
  exhausts at the first clock read past the deadline.

File-corruption helpers (:func:`truncate_file`, :func:`flip_byte`) fabricate
torn and bit-rotted ledger and decomposition-cache files.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "FakeClock",
    "FaultPlan",
    "inject",
    "maybe_fail",
    "truncate_file",
    "flip_byte",
]


class FakeClock:
    """A deterministic, manually-advanced monotonic clock.

    Calling the instance returns the current fake time; ``auto_advance``
    moves time forward by that amount on *every* read, which models "each
    deadline check costs dt" and lets a test hit a deadline after an exact
    number of checks.
    """

    def __init__(self, start: float = 0.0, auto_advance: float = 0.0):
        self.now = float(start)
        self.auto_advance = float(auto_advance)
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        current = self.now
        self.now += self.auto_advance
        return current

    def advance(self, seconds: float) -> None:
        self.now += float(seconds)


class FaultPlan:
    """A script of which call to which site raises which exception.

    Sites are plain strings (``"ledger.append"``).  Calls to a site are
    counted from 1; :meth:`fail` schedules an exception for specific call
    numbers.  Unconsumed failures can be asserted on via
    :meth:`remaining`.
    """

    def __init__(self) -> None:
        # site -> list of (call_number, exception instance)
        self._scheduled: Dict[str, List[Tuple[int, BaseException]]] = {}
        self._calls: Dict[str, int] = {}

    def fail(
        self,
        site: str,
        exc: Optional[BaseException] = None,
        call: int = 1,
        times: int = 1,
    ) -> "FaultPlan":
        """Schedule ``exc`` on the ``call``-th .. ``call+times-1``-th hit of ``site``."""
        if exc is None:
            exc = OSError(f"injected fault at {site!r}")
        schedule = self._scheduled.setdefault(site, [])
        for offset in range(times):
            schedule.append((call + offset, exc))
        return self

    def fire(self, site: str) -> None:
        """Count one call to ``site``; raise if a failure is scheduled for it."""
        count = self._calls.get(site, 0) + 1
        self._calls[site] = count
        for index, (call_number, exc) in enumerate(self._scheduled.get(site, ())):
            if call_number == count:
                del self._scheduled[site][index]
                raise exc

    def calls(self, site: str) -> int:
        """How many times ``site`` has been hit under this plan."""
        return self._calls.get(site, 0)

    def remaining(self) -> Dict[str, int]:
        """Sites with scheduled-but-unfired failures (for test assertions)."""
        return {
            site: len(schedule)
            for site, schedule in self._scheduled.items()
            if schedule
        }


# The active plan is process-global (guarded for concurrent test runners);
# `maybe_fail` is on hot-ish IO paths, so the no-plan case is one load + is-None.
_active_plan: Optional[FaultPlan] = None
_plan_lock = threading.Lock()


def maybe_fail(site: str) -> None:
    """Production-side fault point: no-op unless a plan is installed."""
    plan = _active_plan
    if plan is not None:
        plan.fire(site)


@contextmanager
def inject(plan: Optional[FaultPlan] = None) -> Iterator[FaultPlan]:
    """Install ``plan`` (a fresh one by default) for the duration of the block."""
    global _active_plan
    if plan is None:
        plan = FaultPlan()
    with _plan_lock:
        if _active_plan is not None:
            raise RuntimeError("a fault plan is already active")
        _active_plan = plan
    try:
        yield plan
    finally:
        with _plan_lock:
            _active_plan = None


# -- file corruption helpers -------------------------------------------------


def truncate_file(path: str, keep_bytes: Optional[int] = None, fraction: float = 0.5) -> int:
    """Tear a file mid-write: keep only a prefix.  Returns the new size."""
    with open(path, "rb") as handle:
        data = handle.read()
    keep = keep_bytes if keep_bytes is not None else int(len(data) * fraction)
    keep = max(0, min(keep, len(data)))
    with open(path, "wb") as handle:
        handle.write(data[:keep])
    return keep


def flip_byte(path: str, offset: int) -> None:
    """Corrupt one byte of a file in place (bit-rot simulation)."""
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        if not byte:
            raise ValueError(f"offset {offset} is past the end of {path!r}")
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))
