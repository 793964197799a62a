"""Smoke check for Algorithm 2: ConCov + Eq. 6 cost on a workload query.

Runs one constrained, preference-optimised ``shw_leq`` call over a paper
workload query (TPC-DS ``QdS``) — the Section 7 scenario where the estimate
cost model (Appendix C.2.1) feeds the preference and ``ConCov`` prunes
Cartesian-product bags — and cross-checks the optimum against the seed
round-robin reference.
"""

import time

from repro.core.candidate_bags import soft_candidate_bags
from repro.core.constrained import ConstrainedCTDSolver
from repro.core.constraints import ConnectedCoverConstraint
from repro.core.reference import reference_constrained_ctd
from repro.core.soft import shw_leq
from repro.db.cost import EstimateCostModel
from repro.workloads.tpcds import build_tpcds_database, tpcds_query_qds


def main() -> None:
    start = time.time()
    database = build_tpcds_database(scale=0.1)
    query = tpcds_query_qds(database)
    hypergraph = query.hypergraph()
    model = EstimateCostModel(query, database)
    constraint = ConnectedCoverConstraint(hypergraph, 2)
    preference = model.as_preference()

    decomposition = shw_leq(hypergraph, 2, constraint=constraint, preference=preference)
    assert decomposition is not None, "ConCov-shw(QdS) <= 2 should hold"
    assert decomposition.is_valid()
    assert constraint.holds_recursively(decomposition)
    cost = preference.key(decomposition)
    print(f"QdS: |V|={hypergraph.num_vertices()} |E|={hypergraph.num_edges()}")
    print(f"ConCov+cost optimal decomposition: {decomposition}, cost {cost:.1f}")

    bags = soft_candidate_bags(hypergraph, 2)
    solver = ConstrainedCTDSolver(hypergraph, bags, constraint, preference)
    reference = reference_constrained_ctd(
        hypergraph, bags, constraint=constraint, preference=preference
    )
    assert reference is not None
    reference_key = preference.key(reference)
    # Summation order over children can differ between the two solvers, so
    # the float costs are compared up to rounding.
    assert abs(solver.optimal_key() - reference_key) <= 1e-6 * max(
        1.0, abs(reference_key)
    ), (solver.optimal_key(), reference_key)
    print(f"Algorithm 2 optimum matches round-robin reference: {solver.optimal_key():.1f}")
    print("elapsed: %.2fs" % (time.time() - start))


if __name__ == "__main__":
    main()
