"""Experiments E6 and E7 — the width-hierarchy facts of the paper's examples.

E6 reproduces the width separations the paper proves for its example
hypergraphs (Example 1, Appendix A.2, the C5 discussion of Section 6).  E7
builds a member of the ``H*_BOG`` family of Theorem 9 and verifies the parts
of the construction that are checkable at laptop scale (see
docs/ARCHITECTURE.md, § "Experiments & benchmarks", for the documented
substitution).
"""

from conftest import write_result

from repro.core.candidate_bags import soft_candidate_bags
from repro.core.soft import certify_soft_decomposition, soft_hypertree_width
from repro.decompositions.width import bag_cover_number
from repro.experiments.figures import width_hierarchy_rows
from repro.experiments.paper_witnesses import h3_soft_decomposition
from repro.experiments.report import format_table
from repro.hypergraph.library import hypergraph_bog_star, hypergraph_h3


def test_width_hierarchy(benchmark):
    rows = benchmark.pedantic(width_hierarchy_rows, rounds=1, iterations=1)
    text = format_table(rows, ["hypergraph", "ghw", "shw", "hw", "concov_shw", "paper"])
    print()
    print(text)
    write_result("width_hierarchy", text)

    h2_row = next(row for row in rows if "H2" in row["hypergraph"])
    assert (h2_row["ghw"], h2_row["shw"], h2_row["hw"]) == (2, 2, 3)
    c5_row = next(row for row in rows if "C5" in row["hypergraph"])
    assert (c5_row["shw"], c5_row["hw"], c5_row["concov_shw"]) == (2, 2, 3)


def test_h3_width3_witness(benchmark):
    """Appendix A.2: the explicit width-3 soft decomposition of H3 is valid."""
    h3 = hypergraph_h3()

    def check():
        decomposition = h3_soft_decomposition(h3)
        return (
            decomposition.is_valid(),
            max(bag_cover_number(h3, bag) for bag in decomposition.bags()),
        )

    valid, max_cover = benchmark.pedantic(check, rounds=1, iterations=1)
    assert valid
    assert max_cover <= 3


def test_bog_star_family(benchmark):
    """Theorem 9 substitute: the H*_BOG-style construction at small parameters.

    The full width-gap claim (shw1 + n <= hw) needs Adler's punctured
    hypergraphs and is not decidable at this scale; what we verify is the
    key claim the paper's proof makes about the modification: blocking the
    balloon rows ``a_1..a_s`` separates the star vertex, so
    ``{*} ∪ B ∈ Soft^0_{H*, s+1}`` — witnessed explicitly via Definition 3
    (λ2 = the row edges, λ1 = the row edges plus one star edge).
    """
    from repro.core.candidate_bags import soft_bag
    from repro.hypergraph.components import component_vertices, edge_components

    def build():
        hypergraph = hypergraph_bog_star(n=1, grid_size=2)
        row_edges = [e for e in hypergraph.edges if e.name.startswith("a_")]
        star_edge = next(e for e in hypergraph.edges if e.name.startswith("star_"))
        separator = hypergraph.vertices_of(row_edges)
        components = edge_components(hypergraph, separator)
        produced = {
            frozenset(
                hypergraph.vertices_of(row_edges + [star_edge])
                & component_vertices(component)
            )
            for component in components
        }
        return hypergraph, produced

    hypergraph, produced = benchmark.pedantic(build, rounds=1, iterations=1)
    balloon_and_star = frozenset(
        v for v in hypergraph.vertices if str(v).startswith("g_") or v == "star"
    )
    assert balloon_and_star in produced
