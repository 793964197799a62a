"""Supervision benchmark — the cost of the fault-tolerant batch runtime.

Times the same two-query batch twice:

* **direct** — ``execute_batch_task`` called in-process, no supervision,
  no certification.  This is what a bare ``for`` loop over the harness
  would cost.
* **supervised** — the full runtime: a spawned worker process per task,
  the parent-side hard-timeout watchdog, and independent re-certification
  of every result crossing the process boundary (no ledger, so nothing is
  cached between repeats).

Both paths must produce semantically identical certified results.  The
gate is on *absolute per-task* overhead (``BENCH_SUPERVISOR_MAX_OVERHEAD``
seconds, default 5.0): spawning an interpreter and re-importing the
solver stack costs a fixed ~1s per task regardless of solve time, so a
ratio gate would be meaningless for sub-second solves and trivially green
for hour-long ones.  The measured numbers land in
``BENCH_supervisor.json``.
"""

from __future__ import annotations

import json
import os
import platform

from conftest import RESULTS_DIR, best_of as _best_of

from repro.core.certify import certify_ctd, decomposition_from_payload
from repro.experiments.harness import (
    BatchCertifier,
    batch_task_specs,
    execute_batch_task,
)
from repro.runtime.supervisor import RetryPolicy, Supervisor

QUERIES = ["q_hto", "q_hto2"]
SCALE = 0.3
REPEATS = 2


def _specs():
    return batch_task_specs(queries=QUERIES, scale=SCALE)


def _direct_payload(spec):
    return dict(spec, mode="ranked", level="full")


def _run_direct():
    return [execute_batch_task(_direct_payload(spec)) for spec in _specs()]


def _make_supervisor():
    return Supervisor(
        certifier=BatchCertifier(),
        max_workers=1,
        hard_timeout=120.0,
        retry=RetryPolicy(max_attempts=2, base_delay=0.05, jitter=0.0),
    )


def _run_supervised():
    report = _make_supervisor().run(_specs())
    assert [r.status for r in report.results] == ["ok"] * len(QUERIES)
    return [r.result for r in report.results]


def _semantic(result):
    return (result["query"], result["mode"], result["width"], result["decomposition"])


def test_supervision_overhead():
    # A first untimed pass of each path: imports and memoised workload
    # builds stay out of the timed runs below.
    direct = _run_direct()
    supervised = _run_supervised()

    # Equivalence: the supervised batch returns exactly the results the
    # bare loop computes, and they certify against a trusted rebuild.
    assert [_semantic(r) for r in supervised] == [_semantic(r) for r in direct]
    certifier = BatchCertifier()
    for spec, result in zip(_specs(), supervised):
        certification = certifier(spec, result)
        assert certification.ok, certification.describe()
        hypergraph, _ = certifier._trusted_hypergraph(
            result["query"], SCALE, spec.get("seed")
        )
        rebuilt = decomposition_from_payload(hypergraph, result["decomposition"])
        assert certify_ctd(hypergraph, rebuilt, width_claim=result["width"]).ok

    direct_s = _best_of(_run_direct, repeats=REPEATS)
    supervised_s = _best_of(_run_supervised, repeats=REPEATS)
    per_task_overhead = (supervised_s - direct_s) / len(QUERIES)
    print(
        f"batch of {len(QUERIES)}: direct {direct_s:.3f} s, "
        f"supervised {supervised_s:.3f} s "
        f"(+{per_task_overhead:.3f} s/task for isolation + certification)"
    )

    payload = {
        "benchmark": "supervisor-overhead",
        "python": platform.python_version(),
        "repeats": REPEATS,
        "queries": QUERIES,
        "scale": SCALE,
        "direct_s": direct_s,
        "supervised_s": supervised_s,
        "per_task_overhead_s": per_task_overhead,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(
        os.path.join(RESULTS_DIR, "BENCH_supervisor.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(payload, handle, indent=2)

    maximum = float(os.environ.get("BENCH_SUPERVISOR_MAX_OVERHEAD", "5.0"))
    assert per_task_overhead <= maximum, payload
