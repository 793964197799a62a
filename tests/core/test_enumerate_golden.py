"""Ranked enumeration payloads, pinned by digest.

``enumerate_golden.json`` holds the sha256 of the :func:`execute` payload
(without its ``outcome``, which carries wall time and work) of

* the ConCov + ``cardinalities`` enumeration (Equations 7-9) of the six
  figure queries at their registry width, at scales 0.3 and 1, and
* the ``shallowcyc:1`` + ``shallowcyc`` enumeration of the request-door
  suite's shapes at width 2,

each at limits 1, 10 and 100.  A solver change may make these faster; it
must not move one byte of them.  The digest covers the order of the
decompositions, so a ranking whose ties depend on hash order fails here
under some ``PYTHONHASHSEED``.
"""

import hashlib
import json
import os

import pytest

from repro.core.solve import SolveRequest, execute
from repro.experiments.harness import load_benchmark_workload
from repro.hypergraph.generators import random_hypergraph
from repro.hypergraph.library import cycle_hypergraph, four_cycle_query
from repro.workloads.registry import benchmark_queries

GOLDEN = os.path.join(os.path.dirname(__file__), "enumerate_golden.json")
LIMITS = (1, 10, 100)
SCALES = (0.3, 1.0)
SHAPES = {
    "four-cycle": four_cycle_query,
    "c5": lambda: cycle_hypergraph(5),
    "c6": lambda: cycle_hypergraph(6),
    "random-8-7-2": lambda: random_hypergraph(8, 7, seed=2),
}


def _digest(result) -> str:
    payload = result.to_payload()
    del payload["outcome"]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def cardinality_digests():
    digests = {}
    for entry in benchmark_queries():
        for scale in SCALES:
            database, query, width = load_benchmark_workload(entry.name, scale=scale)
            for limit in LIMITS:
                request = SolveRequest(
                    hypergraph=query.hypergraph(),
                    mode="enumerate",
                    width=width,
                    constraint="concov",
                    preference="cardinalities",
                    limit=limit,
                )
                result = execute(request, database=database, query=query, cache=None)
                digests[f"{entry.name}@{scale}/{limit}"] = _digest(result)
    return digests


def shallowcyc_digests():
    digests = {}
    for name, build in SHAPES.items():
        for limit in LIMITS:
            request = SolveRequest(
                hypergraph=build(),
                mode="enumerate",
                width=2,
                constraint="shallowcyc:1",
                preference="shallowcyc",
                limit=limit,
            )
            digests[f"{name}/{limit}"] = _digest(execute(request, cache=None))
    return digests


@pytest.mark.parametrize(
    "compute,section",
    [(cardinality_digests, "cardinalities"), (shallowcyc_digests, "shallowcyc")],
    ids=["cardinalities", "shallowcyc"],
)
def test_enumerate_payloads_are_pinned(compute, section):
    with open(GOLDEN) as handle:
        pinned = json.load(handle)[section]
    assert compute() == pinned


if __name__ == "__main__":
    # Regenerate the golden: only for a deliberate change of the ranking.
    with open(GOLDEN, "w") as handle:
        json.dump(
            {"cardinalities": cardinality_digests(), "shallowcyc": shallowcyc_digests()},
            handle,
            indent=1,
            sort_keys=True,
        )
        handle.write("\n")
