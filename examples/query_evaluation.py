"""Decomposition-guided query evaluation vs. a DBMS-style baseline.

Run with ``python examples/query_evaluation.py``.

This example mirrors the paper's evaluation pipeline (Section 7) on the
TPC-DS-like query ``q_ds``:

1. generate the synthetic database and parse the SQL query,
2. enumerate the cheapest ConCov width-2 candidate tree decompositions under
   the actual-cardinality cost function,
3. execute each through Yannakakis' algorithm and compare with the baseline
   (an estimate-driven greedy join plan, standing in for "just run it on the
   DBMS").
"""

from repro.experiments.harness import QueryExperiment
from repro.workloads.registry import benchmark_query


def main() -> None:
    entry = benchmark_query("q_ds")
    database, query = entry.load(scale=0.5)
    print(f"database: {database}")
    print(f"query {query.name}: {len(query.atoms)} atoms, "
          f"{len(query.variables())} variables")

    experiment = QueryExperiment(database, query, entry.width, name=query.name)
    print(f"|Soft_{{H,{entry.width}}}| = {len(experiment.soft_bags)}, "
          f"ConCov-filtered: {len(experiment.concov_bags)}")

    decompositions, elapsed = experiment.ranked_decompositions(
        cost="cardinalities", limit=5, constrained=True
    )
    print(f"top-{len(decompositions)} decompositions enumerated in {elapsed * 1000:.1f} ms\n")

    evaluations = experiment.evaluate(decompositions)
    print("rank  card-cost      est-cost     work     max-intermediate  result")
    for evaluation in evaluations:
        print(
            f"{evaluation.rank:>4}  {evaluation.cost_cardinalities:>12.0f}"
            f"  {evaluation.cost_estimates:>12.0f}  {evaluation.work:>8}"
            f"  {evaluation.metrics.max_intermediate:>16}  {evaluation.metrics.result}"
        )

    baseline = experiment.baseline()
    print(
        f"\nbaseline (greedy DBMS-style plan): work={baseline.work}, "
        f"max_intermediate={baseline.max_intermediate}, result={baseline.result}"
    )
    best = min(evaluations, key=lambda evaluation: evaluation.work)
    ratio = baseline.work / best.work if best.work else float("inf")
    print(f"best decomposition vs baseline work ratio: {ratio:.2f}x")


if __name__ == "__main__":
    main()
