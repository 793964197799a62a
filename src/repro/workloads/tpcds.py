"""A TPC-DS-like workload for the query ``q_ds`` of the paper's evaluation.

Only the five tables touched by ``q_ds`` are generated, with exactly the
columns the query references plus a primary key where TPC-DS defines one.
The decisive feature reproduced from the real benchmark is the *non-key*
join ``w_warehouse_sq_ft = ws_quantity``: both columns range over a small
shared domain, so the join fans out heavily — this is what makes different
decompositions of the (cyclic) query hypergraph differ so much in cost.

Generation is deterministic, seeded and chunked: every column is produced
as numpy chunks from a ``numpy.random.Generator`` (PCG64 — its stream is
stable across processes and platforms) and ingested through the columnar
``create_table_columns`` fast path, so the same ``(scale, seed)`` always
yields byte-identical code columns and no Python row tuples are ever
materialised.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.db.database import Database
from repro.db.query import ConjunctiveQuery
from repro.db.sqlish import parse_select_query
from repro.workloads.ingest import ChunkedTableBuilder, chunk_sizes

#: Query ``q_ds`` exactly as printed in Appendix D.2 (Listing 1).
QDS_SQL = """
SELECT MIN(ws_bill_customer_sk)
FROM web_sales,
     customer,
     customer_address,
     catalog_sales,
     warehouse
WHERE ws_bill_customer_sk = c_customer_sk
      AND ca_address_sk = c_current_addr_sk
      AND c_current_addr_sk = cs_bill_addr_sk
      AND cs_warehouse_sk = w_warehouse_sk
      AND w_warehouse_sq_ft = ws_quantity
"""

#: Bump when generated data changes for a fixed ``(scale, seed)`` — pinned
#: benchmark answers are keyed on it.
GENERATOR_VERSION = 2

#: ``table -> (attributes, primary_key)`` of everything the generator builds.
TPCDS_SCHEMA: Dict[str, Tuple[Sequence[str], Optional[str]]] = {
    "customer_address": (("ca_address_sk",), "ca_address_sk"),
    "customer": (("c_customer_sk", "c_current_addr_sk"), "c_customer_sk"),
    "warehouse": (("w_warehouse_sk", "w_warehouse_sq_ft"), "w_warehouse_sk"),
    "web_sales": (("ws_bill_customer_sk", "ws_quantity"), None),
    "catalog_sales": (("cs_bill_addr_sk", "cs_warehouse_sk"), None),
}


def _skewed_quantities(
    rng: np.random.Generator, count: int, quantity_domain: int
) -> np.ndarray:
    """60% of values cluster in [1, 5), the rest spread over the domain."""
    clustered = rng.random(count) < 0.6
    narrow = rng.integers(1, 5, count)
    wide = rng.integers(1, quantity_domain + 1, count)
    return np.where(clustered, narrow, wide)


def build_tpcds_database(
    scale: float = 1.0, seed: Optional[int] = 7, quantity_domain: int = 40
) -> Database:
    """Generate the synthetic TPC-DS-like database.

    ``scale`` multiplies all table sizes; ``quantity_domain`` controls how
    many distinct values the non-key join columns share (smaller = heavier
    fan-out).  The defaults keep every decomposition-guided execution in the
    sub-second range while leaving an order of magnitude between good and bad
    decompositions.
    """
    rng = np.random.default_rng(seed)
    database = Database()

    num_customers = max(10, int(300 * scale))
    num_addresses = max(5, int(120 * scale))
    num_warehouses = max(3, int(40 * scale))
    num_web_sales = max(20, int(900 * scale))
    num_catalog_sales = max(20, int(900 * scale))

    database.create_table_columns(
        "customer_address",
        ["ca_address_sk"],
        [np.arange(num_addresses, dtype=np.int64)],
        primary_key="ca_address_sk",
    )

    customer = ChunkedTableBuilder(*_table_args("customer"))
    for step in chunk_sizes(num_customers):
        start = len(customer)
        customer.append(
            [
                np.arange(start, start + step, dtype=np.int64),
                rng.integers(0, num_addresses, step),
            ]
        )
    customer.ingest(database)

    # Warehouses have skewed square footage: a handful of popular values
    # dominate, so the non-key join against ws_quantity fans out strongly and
    # the optimiser's independence-based estimate is far too low.
    warehouse = ChunkedTableBuilder(*_table_args("warehouse"))
    for step in chunk_sizes(num_warehouses):
        start = len(warehouse)
        warehouse.append(
            [
                np.arange(start, start + step, dtype=np.int64),
                _skewed_quantities(rng, step, quantity_domain),
            ]
        )
    warehouse.ingest(database)

    # Web sales reference customers (foreign key) but have a skewed quantity
    # column matching the warehouse skew.
    web_sales = ChunkedTableBuilder(*_table_args("web_sales"))
    for step in chunk_sizes(num_web_sales):
        web_sales.append(
            [
                rng.integers(0, num_customers, step),
                _skewed_quantities(rng, step, quantity_domain),
            ]
        )
    web_sales.ingest(database)

    catalog_sales = ChunkedTableBuilder(*_table_args("catalog_sales"))
    for step in chunk_sizes(num_catalog_sales):
        catalog_sales.append(
            [
                rng.integers(0, num_addresses, step),
                rng.integers(0, num_warehouses, step),
            ]
        )
    catalog_sales.ingest(database)
    return database


def _table_args(name: str):
    attributes, primary_key = TPCDS_SCHEMA[name]
    return name, attributes, primary_key


def tpcds_query_qds(database: Database) -> ConjunctiveQuery:
    """The conjunctive query for ``q_ds`` resolved against the database schema."""
    return parse_select_query(QDS_SQL, database, name="q_ds")
