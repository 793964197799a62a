"""Fault-injection tests: every governed loop honours its budget.

For each unbounded loop in the stack — candidate-bag generation, the block
dynamic program (Algorithm 1 as its trivial case, and Algorithm 2), the
any-k enumerator and Yannakakis execution — these tests prove three things
with deterministic budgets
(scripted work caps, fake clocks):

1. *Termination*: the loop stops within one amortization window of
   exhaustion, whatever the budget.
2. *Anytime validity*: whatever an exhausted run returns is a valid
   prefix/subset/witness with respect to the unbudgeted answer — never a
   wrong answer dressed up as a real one.
3. *Transparency*: a generous budget changes nothing — same answers as the
   ungoverned run, with a ``complete`` outcome.

A clock that raises ``KeyboardInterrupt`` doubles as the Ctrl-C fault
injector: governed solvers must convert the interrupt into an
``interrupted`` outcome instead of losing their partial state.
"""

import pytest

from repro.core.candidate_bags import SoftBagGenerator, soft_candidate_bags
from repro.core.constrained import ConstrainedCTDSolver, constrained_candidate_td
from repro.core.constraints import ConnectedCoverConstraint
from repro.core.ctd import candidate_td
from repro.core.enumerate import CTDEnumerator, enumerate_ctds
from repro.core.preferences import NodeCountPreference
from repro.core.soft import soft_hypertree_width
from repro.db.yannakakis import run_yannakakis
from repro.hypergraph.generators import (
    random_cyclic_query_hypergraph,
    random_hypergraph,
)
from repro.hypergraph.library import cycle_hypergraph, hypergraph_h2
from repro.runtime.budget import (
    Budget,
    STATUS_BUDGET,
    STATUS_COMPLETE,
    STATUS_DEADLINE,
    STATUS_INTERRUPTED,
)
from repro.runtime.faults import FakeClock

GENEROUS = 10**9

#: Work-cap sweep used by the anytime tests: from "exhaust immediately"
#: through "exhaust somewhere in the middle" to "barely constrained".
WORK_CAPS = [0, 1, 2, 5, 10, 25, 50, 100, 250, 1000, 5000]


class InterruptingClock:
    """A clock that raises KeyboardInterrupt on its ``n``-th read.

    Models one Ctrl-C press landing mid-loop: exactly one read raises,
    later reads (e.g. the outcome's elapsed-time stamp) proceed normally.
    """

    def __init__(self, interrupt_at: int):
        self.interrupt_at = interrupt_at
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        if self.reads == self.interrupt_at:
            raise KeyboardInterrupt
        return float(self.reads)


def forms(decompositions):
    return [d.canonical_form() for d in decompositions]


class TestCandidateBagsGoverned:
    def test_budgeted_bags_are_a_subset(self, h3):
        full = soft_candidate_bags(h3, 2)
        for cap in WORK_CAPS:
            budget = Budget(max_work=cap)
            bags = soft_candidate_bags(h3, 2, budget=budget)
            assert bags <= full

    def test_generous_budget_changes_nothing(self, h3):
        budget = Budget(max_work=GENEROUS)
        assert soft_candidate_bags(h3, 2, budget=budget) == soft_candidate_bags(h3, 2)
        assert budget.status == STATUS_COMPLETE
        assert budget.work > 0

    def test_truncated_flag_reports_exhaustion(self, h3):
        generator = SoftBagGenerator(h3, 2, budget=Budget(max_work=3))
        generator.candidate_bags(0)
        assert generator.truncated
        full = SoftBagGenerator(h3, 2, budget=Budget(max_work=GENEROUS))
        full.candidate_bags(0)
        assert not full.truncated

    def test_iterated_generation_is_governed(self, h3):
        full = SoftBagGenerator(h3, 2).candidate_bags(2)
        budget = Budget(max_work=50)
        bags = SoftBagGenerator(h3, 2, budget=budget).candidate_bags(2)
        assert bags <= full


class TestAlgorithm1Governed:
    """The trivial (𝒞, ≤) case: one tick per visited block and per probe."""

    def test_anytime_answer_is_sound(self, h2):
        bags = soft_candidate_bags(h2, 2)
        reference = ConstrainedCTDSolver(h2, bags).solve()
        assert reference is not None
        for cap in WORK_CAPS:
            solver = ConstrainedCTDSolver(h2, bags, budget=Budget(max_work=cap))
            decomposition, outcome = solver.solve_with_outcome()
            if decomposition is not None:
                # A witness from an exhausted run is still a real witness.
                assert decomposition.is_valid()
                assert decomposition.uses_bags_from(bags)
            else:
                # "None" from a partial run is inconclusive, and the
                # outcome says so.
                assert outcome.partial

    def test_generous_budget_matches_ungoverned(self, h2):
        bags = soft_candidate_bags(h2, 2)
        budget = Budget(max_work=GENEROUS)
        solver = ConstrainedCTDSolver(h2, bags, budget=budget)
        decomposition, outcome = solver.solve_with_outcome()
        assert decomposition is not None
        assert outcome.complete
        assert outcome.work > 0
        reference = ConstrainedCTDSolver(h2, bags).solve()
        assert decomposition.canonical_form() == reference.canonical_form()

    def test_expired_deadline_stops_within_one_window(self, h2):
        bags = soft_candidate_bags(h2, 2)
        interval = 16
        budget = Budget(
            deadline=0.0,
            clock=FakeClock(auto_advance=0.001),
            check_interval=interval,
        )
        solver = ConstrainedCTDSolver(h2, bags, budget=budget)
        decomposition, outcome = solver.solve_with_outcome()
        assert outcome.status == STATUS_DEADLINE
        # The resolution did at most one window of ticks — plus the one
        # in-flight probe batch, itself capped at ``check_interval`` —
        # before the first clock read exposed the expired deadline.
        assert budget.work <= 2 * interval

    def test_keyboard_interrupt_becomes_outcome(self, h2):
        bags = soft_candidate_bags(h2, 2)
        budget = Budget(
            deadline=GENEROUS, clock=InterruptingClock(3), check_interval=1
        )
        solver = ConstrainedCTDSolver(h2, bags, budget=budget)
        decomposition, outcome = solver.solve_with_outcome()
        assert outcome.status == STATUS_INTERRUPTED
        assert outcome.exit_code == 130

    def test_interrupt_without_budget_propagates(self, h2):
        # Ungoverned runs must not swallow Ctrl-C.  (Simulating it on a
        # budget-less path is not possible, so this guards the
        # governed-only conversion contract.)
        bags = soft_candidate_bags(h2, 2)
        solver = ConstrainedCTDSolver(h2, bags)
        assert solver.solve() is not None  # sanity: no budget, no outcome magic
        assert solver.outcome.complete


class TestAlgorithm2Governed:
    def _solver(self, hypergraph, bags, budget=None):
        constraint = ConnectedCoverConstraint(hypergraph, 2)
        preference = NodeCountPreference()
        return ConstrainedCTDSolver(
            hypergraph, bags, constraint, preference, budget=budget
        )

    def test_anytime_answer_is_sound(self, four_cycle):
        bags = soft_candidate_bags(four_cycle, 2)
        constraint = ConnectedCoverConstraint(four_cycle, 2)
        reference = self._solver(four_cycle, bags).solve()
        assert reference is not None
        for cap in WORK_CAPS:
            solver = self._solver(four_cycle, bags, budget=Budget(max_work=cap))
            decomposition, outcome = solver.solve_with_outcome()
            if decomposition is not None:
                assert decomposition.is_valid()
                assert decomposition.uses_bags_from(bags)
                assert constraint.holds_recursively(decomposition)
            else:
                assert outcome.partial

    def test_generous_budget_finds_the_optimum(self, four_cycle):
        bags = soft_candidate_bags(four_cycle, 2)
        budget = Budget(max_work=GENEROUS)
        governed = self._solver(four_cycle, bags, budget=budget)
        decomposition, outcome = governed.solve_with_outcome()
        assert outcome.complete
        reference = self._solver(four_cycle, bags)
        reference.solve()
        assert governed.optimal_key() == reference.optimal_key()
        assert decomposition.canonical_form() is not None

    def test_expired_deadline_stops_within_one_window(self, four_cycle):
        bags = soft_candidate_bags(four_cycle, 2)
        interval = 16
        budget = Budget(
            deadline=0.0,
            clock=FakeClock(auto_advance=0.001),
            check_interval=interval,
        )
        solver = self._solver(four_cycle, bags, budget=budget)
        _, outcome = solver.solve_with_outcome()
        assert outcome.status == STATUS_DEADLINE
        assert budget.work <= interval

    def test_keyboard_interrupt_becomes_outcome(self, four_cycle):
        bags = soft_candidate_bags(four_cycle, 2)
        budget = Budget(
            deadline=GENEROUS, clock=InterruptingClock(4), check_interval=1
        )
        solver = self._solver(four_cycle, bags, budget=budget)
        _, outcome = solver.solve_with_outcome()
        assert outcome.status == STATUS_INTERRUPTED

    def test_budget_cannot_be_swapped_after_solving(self, four_cycle):
        bags = soft_candidate_bags(four_cycle, 2)
        solver = self._solver(four_cycle, bags)
        solver.solve()
        with pytest.raises(RuntimeError):
            solver.solve(budget=Budget(max_work=10))


class TestEnumeratorGoverned:
    def test_budgeted_enumeration_is_an_exact_prefix(self, four_cycle):
        bags = soft_candidate_bags(four_cycle, 2)
        preference = NodeCountPreference()
        full = enumerate_ctds(four_cycle, bags, preference=preference, limit=10)
        assert len(full) >= 2
        lengths = set()
        for cap in WORK_CAPS:
            budget = Budget(max_work=cap)
            budgeted = enumerate_ctds(
                four_cycle, bags, preference=preference, limit=10, budget=budget
            )
            assert forms(budgeted) == forms(full)[: len(budgeted)]
            lengths.add(len(budgeted))
        # Some cap cuts the ranking after a non-empty, proper prefix.
        assert any(0 < length < len(full) for length in lengths)

    def test_generous_budget_matches_ungoverned(self, four_cycle):
        bags = soft_candidate_bags(four_cycle, 2)
        preference = NodeCountPreference()
        full = enumerate_ctds(four_cycle, bags, preference=preference, limit=10)
        budget = Budget(max_work=GENEROUS)
        governed = enumerate_ctds(
            four_cycle, bags, preference=preference, limit=10, budget=budget
        )
        assert forms(governed) == forms(full)
        assert budget.status == STATUS_COMPLETE

    def test_outcome_reports_exhaustion(self, four_cycle):
        bags = soft_candidate_bags(four_cycle, 2)
        enumerator = CTDEnumerator(
            four_cycle, bags, preference=NodeCountPreference(), budget=Budget(max_work=5)
        )
        results = list(enumerator.iter_decompositions())
        assert enumerator.outcome.status == STATUS_BUDGET
        assert enumerator.outcome.partial

    def test_expired_deadline_stops_within_one_window(self, four_cycle):
        bags = soft_candidate_bags(four_cycle, 2)
        interval = 16
        budget = Budget(
            deadline=0.0,
            clock=FakeClock(auto_advance=0.001),
            check_interval=interval,
        )
        results = enumerate_ctds(four_cycle, bags, limit=10, budget=budget)
        assert budget.status == STATUS_DEADLINE
        assert budget.work <= interval

    def test_keyboard_interrupt_becomes_outcome(self, four_cycle):
        bags = soft_candidate_bags(four_cycle, 2)
        budget = Budget(
            deadline=GENEROUS, clock=InterruptingClock(5), check_interval=1
        )
        enumerator = CTDEnumerator(four_cycle, bags, budget=budget)
        results = list(enumerator.iter_decompositions())
        assert enumerator.outcome.status == STATUS_INTERRUPTED


class TestYannakakisGoverned:
    def _decomposition(self, query):
        hypergraph = query.hypergraph()
        tds = enumerate_ctds(
            hypergraph, [frozenset(hypergraph.vertices)], limit=1
        )
        assert tds
        return tds[0]

    def test_partial_run_returns_no_result(self, triangle_database, triangle_query):
        decomposition = self._decomposition(triangle_query)
        run = run_yannakakis(
            triangle_database,
            triangle_query,
            decomposition,
            budget=Budget(max_work=3),
        )
        assert run.outcome.status == STATUS_BUDGET
        assert run.outcome.partial
        # Never a silently wrong partial answer.
        assert run.result is None
        assert run.work > 0

    def test_generous_budget_matches_ungoverned(
        self, triangle_database, triangle_query
    ):
        decomposition = self._decomposition(triangle_query)
        reference = run_yannakakis(triangle_database, triangle_query, decomposition)
        budget = Budget(max_work=GENEROUS)
        governed = run_yannakakis(
            triangle_database, triangle_query, decomposition, budget=budget
        )
        assert governed.result == reference.result
        assert governed.work == reference.work
        assert governed.outcome.complete
        assert governed.outcome.work == reference.work

    def test_expired_deadline_stops_before_any_stage(
        self, triangle_database, triangle_query
    ):
        decomposition = self._decomposition(triangle_query)
        budget = Budget(
            deadline=0.0, clock=FakeClock(auto_advance=0.001), check_interval=4
        )
        run = run_yannakakis(
            triangle_database, triangle_query, decomposition, budget=budget
        )
        assert run.outcome.status == STATUS_DEADLINE
        assert run.result is None

    def test_keyboard_interrupt_becomes_outcome(
        self, triangle_database, triangle_query
    ):
        decomposition = self._decomposition(triangle_query)
        budget = Budget(
            deadline=GENEROUS, clock=InterruptingClock(2), check_interval=1
        )
        run = run_yannakakis(
            triangle_database, triangle_query, decomposition, budget=budget
        )
        assert run.outcome.status == STATUS_INTERRUPTED
        assert run.result is None


def _kernel_task(hypergraph, budget=None):
    bags = soft_candidate_bags(hypergraph, 2, budget=budget)
    td = candidate_td(hypergraph, bags, budget=budget)
    return bags, None if td is None else frozenset(td.bags())


def _constrained_task(hypergraph, budget=None):
    bags = soft_candidate_bags(hypergraph, 2, budget=budget)
    td = constrained_candidate_td(
        hypergraph,
        bags,
        ConnectedCoverConstraint(hypergraph, 2),
        NodeCountPreference(),
        budget=budget,
    )
    return None if td is None else frozenset(td.bags())


def _enumerate_task(hypergraph, budget=None):
    bags = soft_candidate_bags(hypergraph, 2, budget=budget)
    tds = enumerate_ctds(
        hypergraph, bags, preference=NodeCountPreference(), limit=10, budget=budget
    )
    return [frozenset(td.bags()) for td in tds]


class TestGenerousBudgetOnLargerInstances:
    """Bags, then a solve, both governed by one generous budget, on shapes
    larger than the fixtures above: the same answer as the ungoverned run."""

    @pytest.mark.parametrize(
        "task,hypergraph",
        [
            pytest.param(_kernel_task, cycle_hypergraph(24), id="decide-cycle24"),
            pytest.param(
                _kernel_task,
                random_hypergraph(26, 18, max_edge_size=3, seed=3),
                id="decide-random26",
            ),
            pytest.param(
                _constrained_task,
                random_cyclic_query_hypergraph(12, 3, seed=5),
                id="concov-nodecount-cyclic12",
            ),
            pytest.param(_enumerate_task, cycle_hypergraph(12), id="top10-cycle12"),
            pytest.param(_enumerate_task, hypergraph_h2(), id="top10-h2"),
        ],
    )
    def test_same_answer_as_ungoverned(self, task, hypergraph):
        budget = Budget(max_work=GENEROUS)
        assert task(hypergraph, budget=budget) == task(hypergraph)
        assert budget.status == STATUS_COMPLETE


class TestPipelineGoverned:
    def test_soft_hypertree_width_stops_searching_when_exhausted(self, h2):
        budget = Budget(max_work=5)
        with pytest.raises(ValueError):
            soft_hypertree_width(h2, budget=budget)
        assert budget.status == STATUS_BUDGET

    def test_soft_hypertree_width_with_generous_budget(self, h2):
        budget = Budget(max_work=GENEROUS)
        k, decomposition = soft_hypertree_width(h2, budget=budget)
        reference_k, _ = soft_hypertree_width(h2)
        assert k == reference_k
        assert decomposition.is_valid()
        assert budget.status == STATUS_COMPLETE

    def test_one_budget_spans_the_whole_experiment(
        self, triangle_database, triangle_query
    ):
        from repro.experiments.harness import QueryExperiment

        budget = Budget(max_work=GENEROUS)
        experiment = QueryExperiment(
            triangle_database, triangle_query, width=2, budget=budget
        )
        decompositions, _ = experiment.ranked_decompositions(cost="none", limit=3)
        assert decompositions
        work_after_enumeration = budget.work
        assert work_after_enumeration > 0
        reference = QueryExperiment(triangle_database, triangle_query, width=2)
        assert forms(decompositions) == forms(
            reference.ranked_decompositions(cost="none", limit=3)[0]
        )

    def test_exhausted_experiment_degrades_gracefully(
        self, triangle_database, triangle_query
    ):
        from repro.experiments.harness import QueryExperiment

        budget = Budget(max_work=2)
        experiment = QueryExperiment(
            triangle_database, triangle_query, width=2, budget=budget
        )
        decompositions, _ = experiment.ranked_decompositions(cost="none", limit=3)
        assert decompositions == []
        assert budget.status == STATUS_BUDGET
