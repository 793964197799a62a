"""End-to-end smoke test of the resource-governance layer (used by CI).

Exercises the resource-governance surface against real solver runs:

1. a tight work budget on a hard synthetic instance exhausts with a
   ``budget_exhausted`` outcome and a *valid* anytime result (every
   enumerated decomposition is a prefix entry of the unbudgeted ranking),
2. a generous budget changes nothing and reports ``complete``,
3. the governed CLI verbs exit with the documented ``timeout(1)``-style
   codes (0 complete / 125 budget exhausted).
"""

import os
import sys
import tempfile

# The governance layer is under test, not the decomposition cache: a warm
# cache would serve the "exhausting" CLI solves instantly (complete,
# exit 0) and mask the budget path this smoke exists to prove.
os.environ.setdefault("REPRO_CTD_CACHE_OFF", "1")

from repro.cli import main as cli_main
from repro.core.candidate_bags import soft_candidate_bags
from repro.core.enumerate import CTDEnumerator, enumerate_ctds
from repro.core.preferences import NodeCountPreference
from repro.hypergraph.generators import random_hypergraph
from repro.hypergraph.io import to_hyperbench
from repro.hypergraph.library import cycle_hypergraph, triangle_hypergraph
from repro.runtime import Budget
from repro.runtime.budget import STATUS_BUDGET


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def check_budgeted_solve() -> None:
    # Hard enough that 200 work units cannot finish it, small enough that
    # the ungoverned reference run stays fast.
    hard = random_hypergraph(26, 18, max_edge_size=3, seed=3)
    budget = Budget(max_work=200)
    bags = soft_candidate_bags(hard, 2, budget=budget)
    full_bags = soft_candidate_bags(hard, 2)
    if not budget.exhausted or budget.status != STATUS_BUDGET:
        fail("tight budget did not exhaust on the hard instance")
    if not bags <= full_bags:
        fail("anytime bag set is not a subset of the full bag set")
    print(
        f"hard instance: exhausted after {budget.work} work units with "
        f"{len(bags)}/{len(full_bags)} candidate bags (sound subset)"
    )

    # Anytime enumeration: whatever a budgeted run yields is an exact
    # prefix of the unbudgeted ranking.  The work cap is derived from a
    # metered full run (the work counter at the 5th result), so the smoke
    # stays meaningful when solver work-unit accounting evolves.
    cycle = cycle_hypergraph(12)
    preference = NodeCountPreference()
    limit = 50
    meter = Budget(max_work=10**9)
    enumerator = CTDEnumerator(
        cycle,
        soft_candidate_bags(cycle, 2, budget=meter),
        preference=preference,
        budget=meter,
    )
    full, marks = [], []
    for decomposition in enumerator.iter_decompositions():
        full.append(decomposition)
        marks.append(meter.work)
        if len(full) >= limit:
            break
    if meter.exhausted or len(full) != limit:
        fail("metered full enumeration did not complete")
    budget = Budget(max_work=marks[4])
    partial = enumerate_ctds(
        cycle,
        soft_candidate_bags(cycle, 2, budget=budget),
        preference=preference,
        limit=limit,
        budget=budget,
    )
    if not budget.exhausted:
        fail("derived work cap did not exhaust the enumeration")
    if not 0 < len(partial) < len(full):
        fail(f"expected a proper non-empty prefix, got {len(partial)}/{len(full)}")
    for got, want in zip(partial, full):
        if got.canonical_form() != want.canonical_form():
            fail("budgeted enumeration is not a prefix of the full ranking")
        if not got.is_valid():
            fail("budgeted enumeration yielded an invalid decomposition")
    print(
        f"anytime enumeration: {len(partial)}/{len(full)} decompositions, "
        "exact non-empty prefix, all valid"
    )

    # A generous budget changes nothing.
    generous = Budget(max_work=10**9)
    same = enumerate_ctds(
        cycle,
        soft_candidate_bags(cycle, 2, budget=generous),
        preference=preference,
        limit=limit,
        budget=generous,
    )
    if generous.exhausted or [td.canonical_form() for td in same] != [
        td.canonical_form() for td in full
    ]:
        fail("generous budget changed the enumeration")
    print("generous budget: identical ranking, outcome complete")


def check_cli_exit_codes(tmp: str) -> None:
    path = os.path.join(tmp, "triangle.hg")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_hyperbench(triangle_hypergraph()))
    code = cli_main(["decompose", path, "-k", "2", "--max-work", "1000000000"])
    if code != 0:
        fail(f"generous governed decompose exited {code}, expected 0")
    code = cli_main(["decompose", path, "-k", "2", "--max-work", "1"])
    if code != 125:
        fail(f"exhausted governed decompose exited {code}, expected 125")
    print("CLI exit codes: complete=0, budget_exhausted=125")


def main() -> None:
    check_budgeted_solve()
    with tempfile.TemporaryDirectory() as tmp:
        check_cli_exit_codes(tmp)
    print("OK: robustness smoke passed")


if __name__ == "__main__":
    main()
