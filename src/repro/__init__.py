"""repro — a reproduction of "Soft and Constrained Hypertree Width" (PODS 2025).

The top-level package re-exports the most commonly used entry points:

* :class:`repro.Hypergraph` and the named example hypergraphs,
* soft hypertree width (:func:`repro.soft_hypertree_width`, :func:`repro.shw_leq`),
* the CandidateTD solvers (:func:`repro.candidate_td`,
  :func:`repro.constrained_candidate_td`) and constraints/preferences,
* the relational substrate (:mod:`repro.db`) and the benchmark workloads
  (:mod:`repro.workloads`) used to reproduce the paper's evaluation.
"""

from repro.hypergraph import Hypergraph, Edge
from repro.hypergraph.library import (
    hypergraph_h2,
    hypergraph_h3,
    hypergraph_h3_prime,
)
from repro.core import (
    candidate_td,
    constrained_candidate_td,
    CTDEnumerator,
    enumerate_ctds,
    soft_candidate_bags,
    soft_hypertree_width,
    shw_leq,
    ConnectedCoverConstraint,
    ShallowCyclicityConstraint,
    CostPreference,
)

__version__ = "0.1.0"

__all__ = [
    "Hypergraph",
    "Edge",
    "hypergraph_h2",
    "hypergraph_h3",
    "hypergraph_h3_prime",
    "candidate_td",
    "constrained_candidate_td",
    "CTDEnumerator",
    "enumerate_ctds",
    "soft_candidate_bags",
    "soft_hypertree_width",
    "shw_leq",
    "ConnectedCoverConstraint",
    "ShallowCyclicityConstraint",
    "CostPreference",
    "__version__",
]
