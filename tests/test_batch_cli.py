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

        # The forked worker returned what the bare in-process call
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


@pytest.mark.parametrize(
    "argv, named",
    [
        ("decompose tri.hg -k 2 --timeout -1", "--timeout"),
        ("query --name jl04 --max-work -5", "--max-work"),
        ("decompose tri.hg -k 0", "-k/--width"),
        ("enumerate tri.hg -k 2 --limit 0", "--limit"),
        ("query --name jl04 --width 0", "--width"),
        ("width tri.hg --iterations -1", "--iterations"),
        ("width tri.hg -k 0", "-k/--max-k"),
        ("experiment q_ds --limit 0", "--limit"),
        ("stats bad.hg", "bad.hg"),
        ("batch --queries q_hto --timeout -1 --no-ledger", "--timeout"),
        ("batch --queries q_hto --task-timeout 0 --no-ledger", "--task-timeout"),
        ("batch --queries q_hto --workers 0 --no-ledger", "--workers"),
        ("batch --queries q_hto --workers -2 --no-ledger", "--workers"),
        ("batch --queries q_hto --retries 0 --no-ledger", "--retries"),
        ("batch --queries q_hto --retries -1 --no-ledger", "--retries"),
        ("query --name jl04 --scale -1", "--scale"),
        ("reproduce --scale 1", "--scale"),
    ],
)
def test_bad_input_is_exit_2_without_a_traceback(argv, named, tmp_path, monkeypatch, capsys):
    """Out-of-range flags are argparse usage errors naming the flag, and an
    unparseable hypergraph file is a one-line ``error:``; none of them
    reaches a solver, a worker or the degradation ladder."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tri.hg").write_text("e0(v0,v1), e1(v1,v2), e2(v2,v0)\n")
    (tmp_path / "bad.hg").write_text("this is not a hypergraph\n")
    out = io.StringIO()
    try:
        code = main(argv.split(), out=out)
    except SystemExit as exc:
        code = exc.code
    text = out.getvalue() + capsys.readouterr().err
    assert code == 2, text
    assert named in text
    assert "Traceback" not in text
