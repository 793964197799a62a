"""The block scan's boundary test against the per-pair basis test.

:meth:`repro.core.blocks.BlockIndex.candidate_probes` lists a block's
statically feasible probes by testing each candidate ``X`` against the
block's boundary ``N(C)`` — conditions 1+2 hold iff ``N(C) ⊆ X ⊆ S ∪ C``
and ``X ≠ S`` — instead of covering ``C`` and its edges with the
[X]-components.  For every block id its list must equal the one built
from :meth:`~repro.core.blocks.BlockIndex.basis_sub_ids`, the per-pair
specification: the same candidates, in the same order, with the same live
(non-empty-component) sub-block tuples.  Hypergraphs have at most ten
vertices, isolated vertices and several connected components among them;
the candidates are ``Soft_{H,k}`` for k ∈ {1, 2, 3} plus arbitrary vertex
subsets.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.blocks import BlockIndex
from repro.core.candidate_bags import soft_candidate_bags
from repro.hypergraph.hypergraph import Hypergraph

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def hypergraphs_with_bags(draw):
    """A hypergraph of ≤ 10 vertices split into up to three parts (edges
    stay inside one part, so it is often disconnected; vertices in no edge
    stay isolated), a width and arbitrary vertex subsets."""
    num_vertices = draw(st.integers(min_value=1, max_value=10))
    vertices = [f"v{i}" for i in range(num_vertices)]
    parts = draw(st.integers(min_value=1, max_value=3))
    part_of = draw(
        st.lists(
            st.integers(min_value=0, max_value=parts - 1),
            min_size=num_vertices,
            max_size=num_vertices,
        )
    )
    edges = {}
    for i in range(draw(st.integers(min_value=0, max_value=8))):
        part = draw(st.sampled_from(sorted(set(part_of))))
        members = [v for v, p in zip(vertices, part_of) if p == part]
        edges[f"e{i}"] = draw(
            st.lists(st.sampled_from(members), min_size=1, max_size=3, unique=True)
        )
    hypergraph = Hypergraph(edges, vertices=vertices)
    k = draw(st.integers(min_value=1, max_value=3))
    subsets = draw(
        st.lists(st.frozensets(st.sampled_from(vertices), min_size=1), max_size=8)
    )
    return hypergraph, k, subsets


def assert_probes_match_the_spec(index: BlockIndex) -> None:
    component_masks = index.component_masks
    for block_id in range(index.block_count()):
        expected = []
        for cand_id, candidate_mask in enumerate(index.candidate_masks):
            subs = index.basis_sub_ids(candidate_mask, block_id)
            if subs is not None:
                expected.append((cand_id, tuple(s for s in subs if component_masks[s])))
        assert index.candidate_probes(block_id) == tuple(expected), index.block_at(block_id)


@SETTINGS
@given(hypergraphs_with_bags())
def test_candidate_probes_match_the_basis_test(case):
    hypergraph, k, subsets = case
    bags = sorted(soft_candidate_bags(hypergraph, k), key=lambda bag: sorted(map(str, bag)))
    assert_probes_match_the_spec(BlockIndex(hypergraph, bags + subsets))


def test_strategy_reaches_isolated_and_disconnected_hypergraphs():
    """The strategy draws what the suite claims to cover."""
    seen = set()

    @settings(max_examples=200, deadline=None, database=None)
    @given(hypergraphs_with_bags())
    def collect(case):
        hypergraph = case[0]
        bitsets = hypergraph.bitsets
        if hypergraph.has_isolated_vertices():
            seen.add("isolated")
        if bitsets.universe not in bitsets.components(0):
            seen.add("disconnected")

    collect()
    assert seen == {"isolated", "disconnected"}
