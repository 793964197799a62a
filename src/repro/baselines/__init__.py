"""Baseline width algorithms the paper compares against.

* hypertree width via a det-k-decomp-style backtracking search,
* generalised hypertree width as ``shw_∞`` (Theorem 7): one soft-width
  request through the solve door at the Lemma 6 iteration count, for
  small instances,
* α-acyclicity (GYO reduction) and join trees,
* treewidth (exact dynamic program for small hypergraphs and a min-fill
  heuristic upper bound),
* fractional edge covers / an fhw upper bound via linear programming.
"""

from repro.baselines.acyclic import gyo_reduction, is_alpha_acyclic, join_tree
from repro.baselines.detkdecomp import hypertree_width, hw_leq, hd_of_width
from repro.baselines.ghw import generalized_hypertree_width, ghw_leq
from repro.baselines.treewidth import treewidth_exact, treewidth_min_fill
from repro.baselines.fhw import fractional_cover_number, fhw_upper_bound

__all__ = [
    "gyo_reduction",
    "is_alpha_acyclic",
    "join_tree",
    "hypertree_width",
    "hw_leq",
    "hd_of_width",
    "generalized_hypertree_width",
    "ghw_leq",
    "treewidth_exact",
    "treewidth_min_fill",
    "fractional_cover_number",
    "fhw_upper_bound",
]
