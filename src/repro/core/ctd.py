"""Algorithm 1: CompNF Candidate Tree Decompositions.

Given a hypergraph ``H`` and a set ``𝒮`` of candidate bags, decide whether a
tree decomposition of ``H`` in component normal form exists all of whose bags
belong to ``𝒮`` and, if so, construct one.

Algorithm 1 is Algorithm 2 (:mod:`repro.core.constrained`) with the trivial
constraint and preference, and that is how it runs: one block dynamic
program, resolved top-down from the root block, where every block stops at
its first basis in candidate order (the basis the seed's round-robin
fixpoint picks too).  The seed fixpoint is kept as the executable
specification :func:`repro.core.reference.reference_candidate_td_decide`.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional

from repro.hypergraph.hypergraph import Hypergraph, Vertex
from repro.decompositions.td import TreeDecomposition
from repro.core.constrained import constrained_candidate_td
from repro.runtime.budget import Budget


def candidate_td(
    hypergraph: Hypergraph,
    candidate_bags: Iterable[FrozenSet[Vertex]],
    budget: Optional[Budget] = None,
) -> Optional[TreeDecomposition]:
    """Solve the CandidateTD problem (Algorithm 1) and return a CTD or ``None``."""
    return constrained_candidate_td(hypergraph, candidate_bags, budget=budget)
