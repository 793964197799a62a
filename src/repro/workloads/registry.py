"""The workload registry: datasets, seeded generation, benchmark queries.

Two registries live here:

* :func:`workload_entries` — the **datasets** (``tpcds``, ``hetionet``,
  ``lsqb`` from the paper's evaluation, plus the front-door ``joblite``
  suite) as :class:`WorkloadEntry` records with a common
  loader interface: deterministic seeded generation at any scale factor
  (``scale >= 10`` is the paper's SF 10 regime; all four datasets build
  there in a fraction of a second, so nothing is cached on disk) and
  loading of *real* dump files in place of synthetic generation.
* :func:`benchmark_queries` — the six **queries** of the paper's evaluation
  (Table 1 and Figures 5, 6 and 12–17): ``q_ds`` (TPC-DS), ``q_hto`` ..
  ``q_hto4`` (Hetionet) and ``q_lb`` (LSQB), each bundled with its dataset
  and the width parameter ``k`` the paper uses (2 everywhere except
  ``q_lb``, whose connected soft hypertree width is 3).

Scaling semantics: every generator multiplies its seed-state table sizes
(e.g. 900 web-sales rows, 2200 knows-edges, 450 edges per Hetionet
metaedge) by ``scale`` and clamps to a small minimum, so ``scale=10``
yields roughly 10× the rows of ``scale=1`` with identical schema and
distribution shape.  Seeding: each workload has a fixed default seed (7 /
11 / 23); the same ``(workload, scale, seed)`` triple produces
byte-identical code columns in any process — which is what makes
generator coordinates sound as a data identity (the benchmark data keys of
:mod:`repro.experiments.harness`, the e2e goldens).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.db.database import Database
from repro.db.query import ConjunctiveQuery
from repro.workloads.ingest import load_table_files
from repro.workloads.tpcds import (
    TPCDS_SCHEMA,
    build_tpcds_database,
    tpcds_query_qds,
)
from repro.workloads.tpcds import GENERATOR_VERSION as _TPCDS_VERSION
from repro.workloads.hetionet import (
    HETIONET_SCHEMA,
    build_hetionet_database,
    hetionet_query,
)
from repro.workloads.hetionet import GENERATOR_VERSION as _HETIONET_VERSION
from repro.workloads.lsqb import (
    LSQB_SCHEMA,
    build_lsqb_database,
    lsqb_query_qlb,
)
from repro.workloads.lsqb import GENERATOR_VERSION as _LSQB_VERSION
from repro.workloads.joblite import (
    JOBLITE_QUERY_WIDTHS,
    JOBLITE_SCHEMA,
    build_joblite_database,
    joblite_query,
)
from repro.workloads.joblite import GENERATOR_VERSION as _JOBLITE_VERSION


@dataclass
class WorkloadEntry:
    """One dataset: schema, deterministic generator, dump loader.

    ``schema`` maps every table to ``(attributes, primary_key)`` — it is
    both the generated schema and the expected layout of real dump files.
    ``generator_version`` is bumped whenever a generator's output changes.
    ``default_seed`` is the seed the paper-figure pipeline uses; pass
    ``seed`` explicitly for independent replicas.
    """

    name: str
    schema: Dict[str, Tuple[Sequence[str], Optional[str]]]
    generator_version: int
    build_database: Callable[..., Database]
    default_seed: int

    def _seed(self, seed: Optional[int]) -> int:
        return self.default_seed if seed is None else seed

    def load(
        self, scale: float = 1.0, seed: Optional[int] = None, *, cache: bool = False
    ) -> Database:
        """Generate the synthetic database at ``scale``.

        ``cache`` accepts only ``False``: it is kept for the end-to-end
        benchmark harness (``benchmarks/e2e``), which still passes it, until
        that harness is next revised.  Any other value raises ``TypeError``.
        """
        if cache is not False:
            raise TypeError(
                f"WorkloadEntry.load does not cache; got cache={cache!r}"
            )
        return self.build_database(scale=scale, seed=self._seed(seed))

    def load_dump(self, path: str) -> Database:
        """Load real dump files (one delimited file per table) from ``path``.

        The files must follow :attr:`schema` (see
        :func:`repro.workloads.ingest.load_table_files`); this is how the
        harness runs against actual LSQB / Hetionet exports instead of the
        synthetic stand-ins.
        """
        return load_table_files(Database(), path, self.schema)


def workload_entries() -> Dict[str, WorkloadEntry]:
    """The registered datasets, by name (paper evaluation + JOB-lite)."""
    return {
        "tpcds": WorkloadEntry(
            name="tpcds",
            schema=TPCDS_SCHEMA,
            generator_version=_TPCDS_VERSION,
            build_database=build_tpcds_database,
            default_seed=7,
        ),
        "hetionet": WorkloadEntry(
            name="hetionet",
            schema=HETIONET_SCHEMA,
            generator_version=_HETIONET_VERSION,
            build_database=build_hetionet_database,
            default_seed=11,
        ),
        "lsqb": WorkloadEntry(
            name="lsqb",
            schema=LSQB_SCHEMA,
            generator_version=_LSQB_VERSION,
            build_database=build_lsqb_database,
            default_seed=23,
        ),
        "joblite": WorkloadEntry(
            name="joblite",
            schema=JOBLITE_SCHEMA,
            generator_version=_JOBLITE_VERSION,
            build_database=build_joblite_database,
            default_seed=17,
        ),
    }


def workload_entry(name: str) -> WorkloadEntry:
    """Look up a dataset by name (``tpcds`` / ``hetionet`` / ``lsqb``)."""
    entries = workload_entries()
    try:
        return entries[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(entries)}"
        ) from exc


@dataclass
class BenchmarkQuery:
    """One benchmark query together with its dataset and parameters."""

    name: str
    dataset: str
    width: int
    build_query: Callable[[Database], ConjunctiveQuery]

    @property
    def workload(self) -> WorkloadEntry:
        return workload_entry(self.dataset)

    def load(
        self,
        scale: float = 1.0,
        seed: Optional[int] = None,
        dump_path: Optional[str] = None,
    ):
        """Build ``(database, query)`` through the workload loader.

        ``dump_path`` swaps the synthetic generator for real dump files;
        otherwise the dataset is generated with the workload's default
        seed unless ``seed`` is given.
        """
        if dump_path is not None:
            database = self.workload.load_dump(dump_path)
        else:
            database = self.workload.load(scale=scale, seed=seed)
        return database, self.build_query(database)


def benchmark_queries() -> List[BenchmarkQuery]:
    """The six queries of the paper's evaluation, in Table 1 order."""
    hetionet_entries = [
        BenchmarkQuery(
            name=name,
            dataset="hetionet",
            width=2,
            build_query=lambda db, _name=name: hetionet_query(db, _name),
        )
        for name in ("q_hto", "q_hto2", "q_hto3", "q_hto4")
    ]
    return [
        BenchmarkQuery(
            name="q_ds",
            dataset="tpcds",
            width=2,
            build_query=tpcds_query_qds,
        ),
        *hetionet_entries,
        BenchmarkQuery(
            name="q_lb",
            dataset="lsqb",
            width=3,
            build_query=lsqb_query_qlb,
        ),
    ]


def joblite_benchmark_queries() -> List[BenchmarkQuery]:
    """The ten JOB-lite queries (``jl01`` .. ``jl10``) as benchmark entries.

    Kept out of :func:`benchmark_queries` — that list is pinned to the six
    queries of the paper's Table 1 — but resolvable through
    :func:`benchmark_query`, so the experiment / batch / throughput layers
    can schedule JOB-lite by name exactly like the paper queries.
    """
    return [
        BenchmarkQuery(
            name=name,
            dataset="joblite",
            width=width,
            build_query=lambda db, _name=name: joblite_query(db, _name),
        )
        for name, width in sorted(JOBLITE_QUERY_WIDTHS.items())
    ]


def benchmark_query(name: str) -> BenchmarkQuery:
    """Look up a benchmark query by name (paper Table 1 or JOB-lite)."""
    for entry in benchmark_queries() + joblite_benchmark_queries():
        if entry.name == name:
            return entry
    raise KeyError(f"unknown benchmark query {name!r}")
