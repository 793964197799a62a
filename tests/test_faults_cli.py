"""CLI-level tests for resource governance.

The governed verbs must print a one-line ``outcome:`` status and exit with
the status' distinct code (0 complete / 124 deadline / 125 budget /
130 interrupted).
"""

import io

import pytest

from repro.cli import main
from repro.hypergraph.io import to_hyperbench
from repro.hypergraph.library import four_cycle_query, triangle_hypergraph


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.hg"
    path.write_text(to_hyperbench(triangle_hypergraph()))
    return str(path)


@pytest.fixture
def four_cycle_file(tmp_path):
    path = tmp_path / "c4.hg"
    path.write_text(to_hyperbench(four_cycle_query()))
    return str(path)


def run_cli(arguments):
    out = io.StringIO()
    code = main(arguments, out=out)
    return code, out.getvalue()


class TestGovernedDecompose:
    def test_generous_budget_is_complete(self, triangle_file):
        code, output = run_cli(
            ["decompose", triangle_file, "-k", "2", "--max-work", "1000000000"]
        )
        assert code == 0
        assert "outcome: complete" in output

    def test_exhausted_budget_exits_125(self, triangle_file):
        code, output = run_cli(
            ["decompose", triangle_file, "-k", "2", "--max-work", "1"]
        )
        assert code == 125
        assert "outcome: budget_exhausted" in output
        assert "inconclusive" in output

    def test_generous_deadline_is_complete(self, triangle_file):
        code, output = run_cli(
            ["decompose", triangle_file, "-k", "2", "--timeout", "3600"]
        )
        assert code == 0
        assert "outcome: complete" in output
        assert "deadline=3600" in output

    def test_ungoverned_run_prints_no_outcome(self, triangle_file):
        code, output = run_cli(["decompose", triangle_file, "-k", "2"])
        assert code == 0
        assert "outcome:" not in output

    def test_infeasible_width_keeps_exit_1_when_complete(self, triangle_file):
        code, output = run_cli(
            ["decompose", triangle_file, "-k", "1", "--max-work", "1000000000"]
        )
        assert code == 1
        assert "no decomposition" in output
        assert "outcome: complete" in output


class TestEnumerateVerb:
    def test_enumerates_ranked_decompositions(self, four_cycle_file):
        code, output = run_cli(["enumerate", four_cycle_file, "-k", "2", "--limit", "3"])
        assert code == 0
        assert "# decomposition 1" in output

    def test_concov_flag(self, four_cycle_file):
        code, output = run_cli(
            ["enumerate", four_cycle_file, "-k", "2", "--limit", "2", "--concov"]
        )
        assert code == 0
        assert "# decomposition 1" in output

    def test_budgeted_enumeration_prints_prefix_and_exits_125(self, four_cycle_file):
        full_code, full_output = run_cli(
            ["enumerate", four_cycle_file, "-k", "2", "--limit", "10"]
        )
        assert full_code == 0
        code, output = run_cli(
            ["enumerate", four_cycle_file, "-k", "2", "--limit", "10", "--max-work", "40"]
        )
        assert code == 125
        assert "outcome: budget_exhausted" in output
        # Whatever was printed is a prefix of the unbudgeted enumeration —
        # or the honest admission that nothing was produced in time.
        printed = output.split("outcome:")[0]
        assert (
            full_output.startswith(printed)
            or "stopped early before the first decomposition" in output
        )

    def test_infeasible_width_exits_1(self, triangle_file):
        code, output = run_cli(["enumerate", triangle_file, "-k", "1"])
        assert code == 1
        assert "no decomposition" in output


class TestGovernedWidth:
    def test_exhausted_width_search_is_undetermined(self, triangle_file):
        code, output = run_cli(["width", triangle_file, "--max-work", "1"])
        assert code == 125
        assert "undetermined" in output
        assert "outcome: budget_exhausted" in output

    def test_generous_budget_finds_width(self, triangle_file):
        code, output = run_cli(["width", triangle_file, "--max-work", "1000000000"])
        assert code == 0
        assert "shw = 2" in output
        assert "outcome: complete" in output

    def test_baseline_measures_note_unbounded(self, triangle_file):
        code, output = run_cli(
            ["width", triangle_file, "--measure", "tw", "--timeout", "60"]
        )
        assert code == 0
        assert "ran unbounded" in output
        assert "tw = 2" in output


class TestInterruptHandling:
    def test_escaped_keyboard_interrupt_exits_130(self, triangle_file, monkeypatch):
        def interrupt(_):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.cli.hypergraph_statistics", interrupt)
        code, output = run_cli(["stats", triangle_file])
        assert code == 130
        assert "interrupted" in output

