"""Synthetic stand-ins for the paper's benchmark datasets.

The paper evaluates on TPC-DS (scale factor 10), the Hetionet biomedical
knowledge graph and LSQB (scale factor 10).  None of these datasets are
shipped here; instead each module generates synthetic data with the same
schema and the same *structural* properties that make the paper's queries
interesting (cyclic join patterns, skewed non-key joins, hub-heavy graphs),
at any scale factor (generation is deterministic, seeded, chunked numpy —
see :mod:`repro.workloads.ingest`).  The SQL text of the six benchmark
queries is reproduced verbatim from Appendix D.2.

:mod:`repro.workloads.registry` is the front door: :func:`workload_entries`
for the datasets (seeded generation, real dump files),
:func:`benchmark_queries` for the six paper queries.
"""

from repro.workloads.tpcds import build_tpcds_database, tpcds_query_qds, QDS_SQL
from repro.workloads.hetionet import (
    build_hetionet_database,
    hetionet_query,
    HETIONET_QUERY_SQL,
)
from repro.workloads.lsqb import build_lsqb_database, lsqb_query_qlb, QLB_SQL
from repro.workloads.registry import (
    BenchmarkQuery,
    WorkloadEntry,
    benchmark_queries,
    benchmark_query,
    workload_entries,
    workload_entry,
)

__all__ = [
    "build_tpcds_database",
    "tpcds_query_qds",
    "QDS_SQL",
    "build_hetionet_database",
    "hetionet_query",
    "HETIONET_QUERY_SQL",
    "build_lsqb_database",
    "lsqb_query_qlb",
    "QLB_SQL",
    "benchmark_queries",
    "benchmark_query",
    "BenchmarkQuery",
    "workload_entries",
    "workload_entry",
    "WorkloadEntry",
]
