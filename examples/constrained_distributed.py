"""Constrained decompositions: Cartesian products and shallow cyclicity.

Run with ``python examples/constrained_distributed.py``.

This example reproduces the motivation of Section 6.  Every solve is one
``SolveRequest`` that names its constraint and preference:

* Example 3 — the 4-cycle query has minimal-width decompositions that force
  a Cartesian product; the ConCov constraint (``"concov"``) rules them out.
* the ShallowCyc constraint (``"shallowcyc:<d>"``) with its
  preference-complete toptd (``"shallowcyc"``, Example 5).
"""

from repro.core.solve import SolveRequest, execute
from repro.hypergraph.library import cycle_hypergraph, four_cycle_query


def solve(hypergraph, k, mode="optimal", **names):
    """The width-``k`` CTD a request names, or ``None``."""
    request = SolveRequest(hypergraph=hypergraph, mode=mode, width=k, **names)
    return execute(request, cache=None).decomposition


def show(decomposition, indent="    ") -> None:
    def walk(node, depth=0):
        bag = ", ".join(sorted(map(str, decomposition.bag(node))))
        print(f"{indent}{'  ' * depth}[{bag}]")
        for child in node.children:
            walk(child, depth + 1)

    walk(decomposition.tree.root)


def connected_cover_example() -> None:
    print("== Example 3: avoiding Cartesian products (ConCov) ==")
    four_cycle = four_cycle_query()

    print("  an unconstrained width-2 decomposition:")
    show(solve(four_cycle, 2, mode="decide"))

    print("  a ConCov width-2 decomposition (no Cartesian-product bags):")
    show(solve(four_cycle, 2, constraint="concov"))

    # For the 5-cycle the constraint genuinely increases the width (Section 6).
    c5 = cycle_hypergraph(5)
    for k in (2, 3):
        found = solve(c5, k, constraint="concov") is not None
        status = "exists" if found else "does not exist"
        print(f"  C5: a ConCov decomposition of width {k} {status}")


def shallow_cyclicity_example() -> None:
    print("\n== ShallowCyc: cyclic core with acyclic attachments ==")
    decomposition = solve(
        four_cycle_query(), 2, constraint="shallowcyc:0", preference="shallowcyc"
    )
    print("  a decomposition with the cyclic core at the root:")
    show(decomposition)


if __name__ == "__main__":
    connected_cover_example()
    shallow_cyclicity_example()
