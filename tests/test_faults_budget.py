"""Unit tests for the resource-governance primitives.

Covers :mod:`repro.runtime.budget` (Budget / SolveOutcome / BudgetExceeded)
and :mod:`repro.runtime.faults` (FakeClock / FaultPlan / file corruption
helpers).  The solver-facing behaviour — every governed loop honouring its
budget — lives in ``test_faults_solvers.py``.
"""

import os

import pytest

from repro.runtime.budget import (
    Budget,
    BudgetExceeded,
    DEFAULT_CHECK_INTERVAL,
    EXIT_CODES,
    STATUS_BUDGET,
    STATUS_COMPLETE,
    STATUS_DEADLINE,
    STATUS_INTERRUPTED,
    SolveOutcome,
    completed_outcome,
)
from repro.runtime.faults import (
    FakeClock,
    FaultPlan,
    flip_byte,
    inject,
    maybe_fail,
    truncate_file,
)


class TestWorkBudget:
    def test_work_cap_is_exact(self):
        budget = Budget(max_work=5)
        for _ in range(4):
            budget.tick()
        assert not budget.exhausted
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.tick()
        assert budget.work == 5
        assert budget.status == STATUS_BUDGET
        assert excinfo.value.status == STATUS_BUDGET
        assert excinfo.value.work == 5

    def test_exhaustion_is_sticky(self):
        budget = Budget(max_work=3)
        assert budget.try_tick(3) is False
        work_at_exhaustion = budget.work
        for _ in range(10):
            assert budget.try_tick() is False
        # No further work is counted once exhausted: a partially unwound
        # call stack cannot silently resume.
        assert budget.work == work_at_exhaustion

    def test_zero_work_budget_fails_first_tick(self):
        budget = Budget(max_work=0)
        assert budget.try_tick() is False
        assert budget.status == STATUS_BUDGET

    def test_multi_unit_ticks_accumulate(self):
        budget = Budget(max_work=100)
        budget.tick(30)
        budget.tick(30)
        assert budget.work == 60
        assert not budget.exhausted
        with pytest.raises(BudgetExceeded):
            budget.tick(40)

    def test_unlimited_budget_never_exhausts(self):
        budget = Budget()
        for _ in range(5000):
            budget.tick()
        assert budget.status == STATUS_COMPLETE
        assert budget.work == 5000

    def test_negative_limits_rejected(self):
        with pytest.raises(ValueError):
            Budget(max_work=-1)
        with pytest.raises(ValueError):
            Budget(deadline=-0.5)


class TestDeadline:
    def test_deadline_detected_on_amortised_clock_read(self):
        clock = FakeClock(auto_advance=1.0)
        budget = Budget(deadline=10.0, clock=clock, check_interval=4)
        ticks = 0
        with pytest.raises(BudgetExceeded) as excinfo:
            while True:
                budget.tick()
                ticks += 1
        assert excinfo.value.status == STATUS_DEADLINE
        # Clock reads only happen every check_interval ticks, so detection
        # lands on a multiple of the interval (the raising tick itself is
        # not counted by the loop).
        assert (ticks + 1) % 4 == 0

    def test_detection_within_one_amortization_window(self):
        clock = FakeClock()
        interval = 8
        budget = Budget(deadline=10.0, clock=clock, check_interval=interval)
        for _ in range(100):
            budget.tick()
        clock.advance(20.0)  # the deadline is now long gone
        extra = 0
        with pytest.raises(BudgetExceeded):
            while True:
                budget.tick()
                extra += 1
        # At most one window of ticks passes between the deadline being
        # crossed and the budget noticing.
        assert extra <= interval

    def test_hot_loop_reads_clock_sparingly(self):
        clock = FakeClock()
        budget = Budget(deadline=100.0, clock=clock, check_interval=64)
        reads_at_start = clock.reads
        for _ in range(64 * 10):
            budget.tick()
        assert clock.reads - reads_at_start == 10

    def test_charge_always_reads_the_clock(self):
        clock = FakeClock()
        budget = Budget(deadline=5.0, clock=clock, check_interval=1000)
        clock.advance(10.0)
        # A plain tick would coast for ~1000 iterations; charge must not.
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.charge(1)
        assert excinfo.value.status == STATUS_DEADLINE

    def test_default_check_interval_is_amortised(self):
        assert DEFAULT_CHECK_INTERVAL >= 256

    def test_zero_deadline_exhausts_at_first_clock_read(self):
        clock = FakeClock(auto_advance=0.001)
        budget = Budget(deadline=0.0, clock=clock, check_interval=1)
        with pytest.raises(BudgetExceeded):
            budget.tick()


class TestOutcome:
    def test_outcome_reflects_budget_state(self):
        clock = FakeClock()
        budget = Budget(deadline=30.0, max_work=100, clock=clock)
        budget.tick(7)
        clock.advance(1.5)
        outcome = budget.outcome()
        assert outcome.status == STATUS_COMPLETE
        assert outcome.complete and not outcome.partial
        assert outcome.work == 7
        assert outcome.elapsed == pytest.approx(1.5)
        assert outcome.deadline == 30.0
        assert outcome.max_work == 100
        assert outcome.exit_code == 0

    def test_mark_interrupted(self):
        budget = Budget(max_work=100)
        budget.mark_interrupted()
        assert budget.status == STATUS_INTERRUPTED
        assert budget.outcome().exit_code == 130
        # An interrupt does not overwrite an earlier exhaustion status.
        exhausted = Budget(max_work=0)
        exhausted.try_tick()
        exhausted.mark_interrupted()
        assert exhausted.status == STATUS_BUDGET

    def test_exit_codes_follow_unix_conventions(self):
        assert EXIT_CODES[STATUS_COMPLETE] == 0
        assert EXIT_CODES[STATUS_DEADLINE] == 124  # timeout(1)
        assert EXIT_CODES[STATUS_BUDGET] == 125
        assert EXIT_CODES[STATUS_INTERRUPTED] == 130  # 128 + SIGINT
        assert len(set(EXIT_CODES.values())) == len(EXIT_CODES)

    def test_describe_is_one_line(self):
        outcome = SolveOutcome(
            status=STATUS_DEADLINE, work=42, elapsed=1.25, deadline=1.0
        )
        line = outcome.describe()
        assert "\n" not in line
        assert "outcome: deadline" in line
        assert "work=42" in line
        assert "deadline=1" in line

    def test_completed_outcome(self):
        outcome = completed_outcome(work=3, elapsed=0.5)
        assert outcome.complete
        assert outcome.work == 3
        assert outcome.exit_code == 0


class TestFakeClock:
    def test_manual_and_auto_advance(self):
        clock = FakeClock(start=5.0, auto_advance=0.25)
        assert clock() == 5.0
        assert clock() == 5.25
        clock.advance(10.0)
        assert clock() == pytest.approx(15.5)
        assert clock.reads == 3


class TestFaultPlan:
    def test_scheduled_call_fails_others_pass(self):
        plan = FaultPlan()
        boom = OSError("boom")
        plan.fail("io.read", exc=boom, call=2)
        plan.fire("io.read")  # call 1: fine
        with pytest.raises(OSError):
            plan.fire("io.read")  # call 2: scheduled
        plan.fire("io.read")  # call 3: fine again
        assert plan.calls("io.read") == 3
        assert plan.remaining() == {}

    def test_times_schedules_a_range_of_calls(self):
        plan = FaultPlan().fail("s", call=1, times=3)
        for _ in range(3):
            with pytest.raises(OSError):
                plan.fire("s")
        plan.fire("s")
        assert plan.remaining() == {}

    def test_remaining_reports_unfired_faults(self):
        plan = FaultPlan().fail("never.hit", call=5)
        assert plan.remaining() == {"never.hit": 1}

    def test_maybe_fail_is_noop_without_plan(self):
        maybe_fail("anything.at.all")

    def test_inject_installs_and_removes_plan(self):
        with inject() as plan:
            plan.fail("site", call=1)
            with pytest.raises(OSError):
                maybe_fail("site")
        maybe_fail("site")  # plan uninstalled: no-op

    def test_nested_inject_rejected(self):
        with inject():
            with pytest.raises(RuntimeError):
                with inject():
                    pass


class TestFileCorruptionHelpers:
    def test_truncate_file(self, tmp_path):
        path = tmp_path / "data.bin"
        path.write_bytes(b"0123456789")
        assert truncate_file(str(path), fraction=0.5) == 5
        assert path.read_bytes() == b"01234"
        assert truncate_file(str(path), keep_bytes=2) == 2
        assert path.read_bytes() == b"01"

    def test_flip_byte(self, tmp_path):
        path = tmp_path / "data.bin"
        path.write_bytes(bytes([0x00, 0xAB, 0xFF]))
        flip_byte(str(path), 1)
        assert path.read_bytes() == bytes([0x00, 0x54, 0xFF])
        flip_byte(str(path), 1)
        assert path.read_bytes() == bytes([0x00, 0xAB, 0xFF])
        with pytest.raises(ValueError):
            flip_byte(str(path), 99)
