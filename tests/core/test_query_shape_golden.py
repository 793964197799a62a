"""The decompositions the query front door solves for, pinned.

``query_shape_ctds.json`` holds, for each of the sixteen SQL texts of the
query benchmark (``q_ds``, the four Hetionet queries, ``q_lb`` and the ten
JOB-lite queries), the query hypergraph, its soft hypertree width and the
decomposition (pre-order ``bags`` and ``parents``, as
:func:`repro.core.certify.decomposition_to_payload` writes it) that
``soft-width`` and ``decide`` at that width return.  The cache stores these
payloads and ``--explain`` prints them, so a solver change that moves one
moves cache records, explain output and query plans: it must be deliberate.
"""

import json
import os

import pytest

from repro.core.certify import decomposition_to_payload
from repro.core.solve import SolveRequest, execute
from repro.hypergraph.hypergraph import Edge, Hypergraph

with open(os.path.join(os.path.dirname(__file__), "query_shape_ctds.json")) as handle:
    SHAPES = json.load(handle)


def _hypergraph(shape) -> Hypergraph:
    return Hypergraph([Edge(name, frozenset(vertices)) for name, vertices in shape["edges"]])


def test_pinned_shapes_are_the_benchmark_sql_shapes():
    from repro.db.sqlish import parse_select_query
    from repro.workloads.hetionet import HETIONET_QUERY_SQL
    from repro.workloads.joblite import JOBLITE_QUERY_SQL
    from repro.workloads.lsqb import QLB_SQL
    from repro.workloads.registry import workload_entries
    from repro.workloads.tpcds import QDS_SQL

    texts = [
        ("q_ds", "tpcds", QDS_SQL),
        *((name, "hetionet", sql) for name, sql in HETIONET_QUERY_SQL.items()),
        ("q_lb", "lsqb", QLB_SQL),
        *((name, "joblite", sql) for name, sql in sorted(JOBLITE_QUERY_SQL.items())),
    ]
    databases = {
        name: entry.load(scale=0.1) for name, entry in workload_entries().items()
    }
    assert [name for name, _, _ in texts] == [shape["name"] for shape in SHAPES]
    for (name, dataset, sql), shape in zip(texts, SHAPES):
        hypergraph = parse_select_query(sql, databases[dataset], name=name).hypergraph()
        assert [
            [edge.name, sorted(map(str, edge.vertices))] for edge in hypergraph.edges
        ] == shape["edges"], name


@pytest.mark.parametrize("shape", SHAPES, ids=[shape["name"] for shape in SHAPES])
def test_soft_width_and_decide_payloads_are_pinned(shape):
    hypergraph = _hypergraph(shape)
    soft = execute(SolveRequest(hypergraph=hypergraph, mode="soft-width"), cache=None)
    assert soft.width == shape["width"]
    assert decomposition_to_payload(soft.decomposition) == shape["ctd"]
    decide = execute(
        SolveRequest(hypergraph=hypergraph, mode="decide", width=shape["width"]),
        cache=None,
    )
    assert decomposition_to_payload(decide.decomposition) == shape["ctd"]
