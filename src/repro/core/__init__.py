"""The paper's primary contribution.

* candidate bags ``Soft_{H,k}`` and their iterated refinement ``Soft^i_{H,k}``
  (Definitions 3 and 6),
* the CandidateTD solver (Algorithm 1) and its constrained / preference-aware
  variant (Algorithm 2),
* soft hypertree width ``shw`` and the hierarchy ``shw_i``,
* subtree constraints (ConCov, ShallowCyc_d) and preference orders
  (toptds),
* exact lazy any-k (top-k) enumeration of candidate tree decompositions
  ranked by a preference, on the same shared solver core as Algorithms 1
  and 2,
* the canonical solve front door (``SolveRequest`` → ``execute`` →
  ``SolveResult``) and the persistent decomposition cache behind it,
* the (Institutional) Robber and Marshals games of Appendix A.1.
"""

from repro.core.covers import (
    connected_edge_set,
    enumerate_covers,
    greedy_edge_cover,
    has_connected_cover,
    minimum_edge_cover,
)
from repro.core.candidate_bags import (
    SoftBagGenerator,
    iterated_soft_candidate_bags,
    soft_bag,
    soft_candidate_bags,
)
from repro.core.blocks import Block, BlockIndex
from repro.core.options import FragmentEvaluator, SolverCore
from repro.core.ctd import candidate_td
from repro.core.constraints import (
    ConnectedCoverConstraint,
    NoConstraint,
    ShallowCyclicityConstraint,
    SubtreeConstraint,
)
from repro.core.preferences import (
    CostPreference,
    LexicographicPreference,
    MonotoneCostPreference,
    NodeCountPreference,
    NoPreference,
    Preference,
    ShallowCyclicityPreference,
)
from repro.core.constrained import ConstrainedCTDSolver, constrained_candidate_td
from repro.core.enumerate import CTDEnumerator, enumerate_ctds
from repro.core.soft import (
    soft_decomposition_to_ghd,
    soft_hypertree_width,
    shw_leq,
)
from repro.core.solve import SolveRequest, SolveResult, execute
from repro.core.cache import DecompositionCache, resolve_cache
from repro.core.games import (
    irmg_width,
    marshals_width,
    marshals_have_winning_strategy,
    irmg_have_winning_strategy,
)

__all__ = [
    "connected_edge_set",
    "enumerate_covers",
    "greedy_edge_cover",
    "has_connected_cover",
    "minimum_edge_cover",
    "SoftBagGenerator",
    "soft_candidate_bags",
    "iterated_soft_candidate_bags",
    "soft_bag",
    "Block",
    "BlockIndex",
    "FragmentEvaluator",
    "SolverCore",
    "candidate_td",
    "SubtreeConstraint",
    "NoConstraint",
    "ConnectedCoverConstraint",
    "ShallowCyclicityConstraint",
    "Preference",
    "CostPreference",
    "MonotoneCostPreference",
    "NoPreference",
    "NodeCountPreference",
    "ShallowCyclicityPreference",
    "LexicographicPreference",
    "ConstrainedCTDSolver",
    "constrained_candidate_td",
    "CTDEnumerator",
    "enumerate_ctds",
    "SolveRequest",
    "SolveResult",
    "execute",
    "DecompositionCache",
    "resolve_cache",
    "soft_hypertree_width",
    "soft_decomposition_to_ghd",
    "shw_leq",
    "marshals_width",
    "marshals_have_winning_strategy",
    "irmg_width",
    "irmg_have_winning_strategy",
]
