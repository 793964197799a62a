"""Tests for the command-line interface."""

import io
import os

import pytest

from repro.cli import main
from repro.core.cache import DecompositionCache
from repro.core.solve import SolveRequest, execute
from repro.hypergraph.io import to_hyperbench
from repro.hypergraph.library import four_cycle_query, hypergraph_h2, triangle_hypergraph


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.hg"
    path.write_text(to_hyperbench(triangle_hypergraph()))
    return str(path)


@pytest.fixture
def h2_file(tmp_path):
    path = tmp_path / "h2.hg"
    path.write_text(to_hyperbench(hypergraph_h2()))
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


class TestWidthCommand:
    def test_shw_of_triangle(self, triangle_file):
        code, output = run_cli(["width", triangle_file])
        assert code == 0
        assert "shw = 2" in output

    def test_hw_of_h2(self, h2_file):
        code, output = run_cli(["width", h2_file, "--measure", "hw"])
        assert code == 0
        assert "hw = 3" in output

    def test_ghw_of_h2(self, h2_file):
        code, output = run_cli(["width", h2_file, "--measure", "ghw"])
        assert code == 0
        assert "ghw = 2" in output

    @pytest.mark.parametrize(
        "measure,kind", [("hw", "hypertree"), ("ghw", "generalized hypertree")]
    )
    def test_width_above_the_bound_is_one_line_exit_1(self, triangle_file, measure, kind):
        code, output = run_cli(["width", triangle_file, "--measure", measure, "-k", "1"])
        assert code == 1
        assert output == f"no {kind} decomposition of width <= 1\n"

    def test_treewidth_heuristic(self, triangle_file):
        code, output = run_cli(["width", triangle_file, "--measure", "tw"])
        assert code == 0
        assert "tw = 2" in output


class TestDecomposeCommand:
    def test_decompose_triangle(self, triangle_file):
        code, output = run_cli(["decompose", triangle_file, "-k", "2"])
        assert code == 0
        assert "[" in output

    def test_decompose_infeasible_width(self, triangle_file):
        code, output = run_cli(["decompose", triangle_file, "-k", "1"])
        assert code == 1
        assert "no decomposition" in output

    def test_decompose_with_concov(self, four_cycle_file):
        code, output = run_cli(["decompose", four_cycle_file, "-k", "2", "--concov"])
        assert code == 0
        # The Cartesian-product bag never appears under ConCov.
        assert "w, x, y, z" not in output


class TestStatsCommand:
    def test_stats_output(self, h2_file):
        code, output = run_cli(["stats", h2_file])
        assert code == 0
        assert "vertices: 10" in output
        assert "edges: 8" in output


class TestCacheCommands:
    def test_list_reports_quarantine_and_clean_empties_the_directory(self, tmp_path):
        store = DecompositionCache(str(tmp_path / "ctd"))
        request = SolveRequest(hypergraph=four_cycle_query(), width=2)
        assert execute(request, cache=store).cache_status == "stored"
        (info,) = store.entries()
        with open(info.path, "w", encoding="utf-8") as handle:
            handle.write("{ not json")
        # The unreadable entry is quarantined and the re-solve re-stores.
        assert execute(request, cache=store).cache_status == "stored"

        code, output = run_cli(["cache", "list", "--cache", store.directory])
        assert code == 0
        assert "quarantined: " in output
        assert output.splitlines()[-1].startswith("1 entry, 1 quarantined")

        code, output = run_cli(["cache", "clean", "--cache", store.directory])
        assert code == 0
        assert output.startswith("removed 2 cache file(s)")
        assert os.listdir(store.directory) == []

        code, output = run_cli(["cache", "list", "--cache", store.directory])
        assert code == 0 and output.startswith("no cache entries")


class TestExperimentCommands:
    def test_experiment_q_hto3(self):
        code, output = run_cli(["experiment", "q_hto3", "--scale", "0.15", "--limit", "3"])
        assert code == 0
        assert "Baseline" in output
        assert "q_hto3" in output

    def test_experiment_budget_caps_and_charges_the_baseline(self):
        # The hermetic cache (conftest) keeps the ranked solve's work equal
        # in both runs.
        arguments = ["experiment", "q_hto3", "--scale", "0.15", "--limit", "2"]

        def outcome_work(output):
            line = next(l for l in output.splitlines() if l.startswith("outcome:"))
            return int(line.split("work=")[1].split()[0])

        code, output = run_cli(arguments + ["--max-work", str(10**9)])
        assert code == 0
        total = outcome_work(output)
        baseline_line = next(l for l in output.splitlines() if l.startswith("Baseline:"))
        baseline_work = int(baseline_line.split("work=")[1].split(",")[0])
        before_baseline = total - baseline_work
        cap = before_baseline + baseline_work // 2

        code, output = run_cli(arguments + ["--max-work", str(cap)])
        assert code == 125
        baseline_line = next(l for l in output.splitlines() if l.startswith("Baseline:"))
        assert baseline_line.startswith("Baseline: not completed (budget_exhausted)")
        assert "result=" not in baseline_line
        # The budget ran out inside the baseline: its joins were charged.
        assert outcome_work(output) >= cap > before_baseline

    def test_experiment_reads_dump_files(self, tmp_path):
        from repro.workloads.registry import workload_entry

        entry = workload_entry("lsqb")
        database = entry.load(scale=0.1)
        for name, (attributes, _) in entry.schema.items():
            lines = [",".join(attributes)]
            lines += [",".join(map(str, row)) for row in database.relation(name).rows]
            (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
        code, output = run_cli(
            ["experiment", "q_lb", "--dump", str(tmp_path), "--limit", "2"]
        )
        assert code == 0
        assert "q_lb" in output
        assert "Baseline" in output

    def test_experiment_dump_without_files_is_a_user_error(self, tmp_path):
        code, output = run_cli(["experiment", "q_lb", "--dump", str(tmp_path)])
        assert code == 2
        assert "file not found" in output
        assert "City" in output

    def test_unknown_query_rejected(self):
        with pytest.raises(SystemExit):
            run_cli(["experiment", "q_nope"])

    def test_workloads_verb_is_gone(self):
        # Workload data is built in memory; there is nothing to build, list
        # or clean on disk.
        with pytest.raises(SystemExit):
            run_cli(["workloads", "list"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            run_cli([])
