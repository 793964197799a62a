"""End-to-end tests for the ``repro batch`` CLI verb.

These run the real pipeline — supervised workers, certification,
checkpoint ledger — on one small benchmark query, and pin down the error
contract: every anticipated failure is a one-line ``error:`` message with
the documented exit code, never a traceback.
"""

import io
import json
import os

import pytest

from repro.cli import default_ledger_path, main
from repro.core.certify import certify_ctd, decomposition_from_payload
from repro.core.solve import SolveRequest
from repro.experiments.harness import BatchCertifier, execute_batch_task

QUERY = "q_hto"
SCALE = "0.3"


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def batch_args(ledger, *extra):
    return (
        "batch",
        "--queries",
        QUERY,
        "--scale",
        SCALE,
        "--ledger",
        ledger,
        *extra,
    )


@pytest.fixture()
def ledger_path(tmp_path):
    return str(tmp_path / "ledger.jsonl")


class TestBatchRuns:
    def test_batch_completes_and_reports(self, ledger_path):
        code, out = run_cli(*batch_args(ledger_path))
        assert code == 0, out
        assert "1 ok" in out
        assert f"ledger: {ledger_path}" in out
        assert os.path.exists(ledger_path)

    def test_rerun_resumes_from_the_ledger(self, ledger_path):
        code, _ = run_cli(*batch_args(ledger_path))
        assert code == 0
        code, out = run_cli(*batch_args(ledger_path))
        assert code == 0
        assert "resumed from ledger" in out

    def test_fresh_discards_the_checkpoint(self, ledger_path):
        code, _ = run_cli(*batch_args(ledger_path))
        assert code == 0
        code, out = run_cli(*batch_args(ledger_path, "--fresh"))
        assert code == 0
        assert "resumed from ledger" not in out

    def test_no_ledger_runs_without_checkpointing(self, tmp_path):
        code, out = run_cli(
            "batch", "--queries", QUERY, "--scale", SCALE, "--no-ledger"
        )
        assert code == 0
        assert "ledger:" not in out

    def test_ledger_records_a_certified_task(self, ledger_path):
        run_cli(*batch_args(ledger_path))
        with open(ledger_path, "r", encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        tasks = [r for r in records if r["type"] == "task"]
        assert len(tasks) == 1
        assert tasks[0]["status"] == "ok"
        assert tasks[0]["result"]["query"] == QUERY

        # The spawned worker returned what the bare in-process call
        # computes, and both certify against a trusted rebuild.
        (record,) = tasks
        assert record["level"] == "full"
        spec, supervised = record["task"], record["result"]
        direct = execute_batch_task(dict(spec, mode="ranked", level="full"))
        semantic = ("query", "mode", "width", "decomposition")
        assert [supervised[k] for k in semantic] == [direct[k] for k in semantic]
        hypergraph = SolveRequest.from_payload(spec["request"]).hypergraph
        for result in (supervised, direct):
            assert BatchCertifier()(spec, result)
            decomposition = decomposition_from_payload(
                hypergraph, result["decomposition"]
            )
            assert certify_ctd(hypergraph, decomposition, width_claim=result["width"])

    def test_default_ledger_path_is_deterministic(self):
        tasks = [{"kind": "solve", "query": QUERY, "scale": 0.3}]
        path = default_ledger_path(tasks)
        assert path == default_ledger_path(list(tasks))
        assert path.startswith(os.path.join("workloads", ".batches"))

    def test_exhausted_budget_is_a_failed_batch(self, ledger_path):
        # A work budget far below any real solve exhausts the whole ladder.
        code, out = run_cli(
            *batch_args(ledger_path, "--max-work", "10", "--retries", "1")
        )
        assert code == 1
        assert "1 failed" in out
        assert "timeout" in out


class TestBatchErrors:
    def test_unknown_query_is_a_one_line_user_error(self, ledger_path):
        code, out = run_cli("batch", "--queries", "nope", "--ledger", ledger_path)
        assert code == 2
        assert out.startswith("error:")
        assert "unknown benchmark query" in out
        assert "Traceback" not in out

    def test_corrupt_ledger_is_a_one_line_ledger_error(self, ledger_path):
        code, _ = run_cli(*batch_args(ledger_path))
        assert code == 0
        with open(ledger_path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        lines.insert(1, "NOT JSON\n")
        with open(ledger_path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        code, out = run_cli(*batch_args(ledger_path))
        assert code == 2
        assert out.startswith("error:")
        assert "corrupt" in out
        assert "Traceback" not in out

    def test_missing_hypergraph_file_is_exit_2(self, tmp_path):
        code, out = run_cli("decompose", str(tmp_path / "missing.json"), "-k", "2")
        assert code == 2
        assert out.startswith("error:")
