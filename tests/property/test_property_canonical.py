"""Property-based tests (hypothesis) for hypergraph canonical forms.

The cache's correctness rests on three claims about
:func:`repro.hypergraph.canonical.canonical_form`:

1. **Isomorphism invariance** — any vertex relabeling and edge
   renaming/reordering/duplication yields the same fingerprint and the
   same canonical edge encoding;
2. **Permutation soundness** — bags translate to canonical indices and
   back without loss, across *different* labelings of the same shape;
3. **End to end** — a CTD solved under one labeling, stored in canonical
   indices and mapped into another labeling's vertices, certifies against
   that other hypergraph.

Each claim is exercised over random small hypergraphs under random
relabelings.  Random hypergraphs are rarely symmetric, so a fourth group
aims at the automorphism pruning of the individualisation search:
relabelled copies of highly symmetric shapes, a brute-force isomorphism
oracle, and leaf counts that only a pruned search meets.
"""

from itertools import combinations, permutations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.certify import certify_ctd
from repro.core.cache import DecompositionCache
from repro.core.solve import SolveRequest, execute
from repro.hypergraph import canonical
from repro.hypergraph.canonical import canonical_form
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.library import cycle_hypergraph, grid_hypergraph, hypergraph_bog_star
from tests.hypergraph.test_canonical_golden import (
    complete_bipartite,
    complete_graph,
    counted_canonical_form,
    disjoint_cycles,
    graph_hypergraph,
    hypercube,
    petersen_graph,
    relabelled,
)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def hypergraph_with_relabeling(draw, max_vertices=7, max_edges=6):
    """A random connected-ish hypergraph plus a random isomorphic copy."""
    num_vertices = draw(st.integers(min_value=2, max_value=max_vertices))
    vertices = [f"v{i}" for i in range(num_vertices)]
    num_edges = draw(st.integers(min_value=1, max_value=max_edges))
    edges = {}
    for i in range(num_edges):
        size = draw(st.integers(min_value=1, max_value=min(3, num_vertices)))
        edges[f"e{i}"] = draw(
            st.lists(
                st.sampled_from(vertices), min_size=size, max_size=size, unique=True
            )
        )
    covered = {v for verts in edges.values() for v in verts}
    for extra, vertex in enumerate(v for v in vertices if v not in covered):
        partner = vertices[0] if vertex != vertices[0] else vertices[1]
        edges[f"iso{extra}"] = [vertex, partner]
    original = Hypergraph(edges)

    # A random isomorphic copy: permuted vertex names (a disjoint alphabet,
    # so no accidental fixed points), shuffled edge names and vertex order.
    permutation = draw(st.permutations(range(num_vertices)))
    rename = {f"v{i}": f"w{permutation[i]}" for i in range(num_vertices)}
    relabeled = {
        f"r{j}": draw(st.permutations([rename[v] for v in verts]))
        for j, (name, verts) in enumerate(sorted(edges.items()))
    }
    return original, Hypergraph(relabeled), rename


class TestFingerprintInvariance:
    @SETTINGS
    @given(hypergraph_with_relabeling())
    def test_isomorphic_hypergraphs_agree(self, pair):
        original, relabeled, _ = pair
        first = canonical_form(original)
        second = canonical_form(relabeled)
        assert first.fingerprint == second.fingerprint
        assert first.encoding == second.encoding

    @SETTINGS
    @given(hypergraph_with_relabeling())
    def test_duplicate_edges_are_invisible(self, pair):
        original, _, _ = pair
        doubled = {edge.name: sorted(edge.vertices, key=str) for edge in original.edges}
        for edge in original.edges:
            doubled[f"dup_{edge.name}"] = sorted(edge.vertices, key=str)
        assert (
            canonical_form(Hypergraph(doubled)).fingerprint
            == canonical_form(original).fingerprint
        )

    @SETTINGS
    @given(hypergraph_with_relabeling())
    def test_structural_change_changes_the_fingerprint(self, pair):
        original, _, _ = pair
        whole = frozenset(original.vertices)
        if any(edge.vertices == whole for edge in original.edges):
            return  # the "everything" edge already exists: no new structure
        grown = {edge.name: sorted(edge.vertices, key=str) for edge in original.edges}
        grown["everything"] = sorted(original.vertices, key=str)
        assert (
            canonical_form(Hypergraph(grown)).fingerprint
            != canonical_form(original).fingerprint
        )


class TestPermutationSoundness:
    @SETTINGS
    @given(hypergraph_with_relabeling())
    def test_bags_round_trip_within_one_labeling(self, pair):
        original, _, _ = pair
        canonical = canonical_form(original)
        for edge in original.edges:
            indices = canonical.to_canonical_bag(edge.vertices)
            assert indices == sorted(indices)
            assert canonical.from_canonical_bag(indices) == edge.vertices

    @SETTINGS
    @given(hypergraph_with_relabeling())
    def test_bags_transfer_between_labelings(self, pair):
        # A vertex set written in canonical indices under one labeling and
        # read back under another — the exact translation a cache hit
        # performs — preserves the edge structure.  (It need not reproduce
        # one particular renaming: with automorphic shapes the transfer is
        # only canonical up to an automorphism, which certification is
        # indifferent to.)
        original, relabeled, _ = pair
        first = canonical_form(original)
        second = canonical_form(relabeled)
        relabeled_edge_sets = {edge.vertices for edge in relabeled.edges}
        for edge in original.edges:
            indices = first.to_canonical_bag(edge.vertices)
            assert second.from_canonical_bag(indices) in relabeled_edge_sets


class TestEndToEnd:
    @SETTINGS
    @given(hypergraph_with_relabeling())
    def test_cached_ctd_certifies_under_any_labeling(self, tmp_path_factory, pair):
        original, relabeled, _ = pair
        width = max(1, original.num_edges())
        store = DecompositionCache(str(tmp_path_factory.mktemp("canonical-prop")))
        first = execute(SolveRequest(hypergraph=original, width=width), cache=store)
        assert first.decided  # width = |E| always admits a CTD
        second = execute(SolveRequest(hypergraph=relabeled, width=width), cache=store)
        assert second.decided
        assert second.cache_status == "hit"
        assert store.stats.rejected == 0
        certification = certify_ctd(relabeled, second.decomposition, width_claim=width)
        assert certification, certification.describe()


# -- symmetry ----------------------------------------------------------------

SYMMETRIC = {
    **{f"C{n}": (lambda n=n: cycle_hypergraph(n)) for n in range(3, 25)},
    **{
        f"grid{r}x{c}": (lambda r=r, c=c: grid_hypergraph(r, c))
        for r in range(1, 5)
        for c in range(max(r, 2), 5)
    },
    **{
        f"K{m},{n}": (lambda m=m, n=n: complete_bipartite(m, n))
        for m in range(1, 6)
        for n in range(m, 6)
    },
    "petersen": petersen_graph,
    "Q3": lambda: hypercube(3),
    "Q4": lambda: hypercube(4),
    **{f"K{n}": (lambda n=n: complete_graph(n)) for n in range(2, 8)},
}


def isomorphic(first: Hypergraph, second: Hypergraph) -> bool:
    """Brute force: does some vertex bijection map one edge set onto the other?"""
    sources = {edge.vertices for edge in first.edges}
    targets = {edge.vertices for edge in second.edges}
    domain = sorted(first.vertices, key=str)
    if len(domain) != len(second.vertices) or len(sources) != len(targets):
        return False
    return any(
        {frozenset(image[v] for v in edge) for edge in sources} == targets
        for image in (dict(zip(domain, p)) for p in permutations(second.vertices))
    )


@st.composite
def hypergraph_pair(draw):
    """A hypergraph and a relabelled copy, in half the draws with one vertex of
    one edge swapped for a vertex outside it (edge sizes kept, shape maybe not)."""
    original, relabeled, _ = draw(hypergraph_with_relabeling())
    edges = [sorted(edge.vertices) for edge in relabeled.edges]
    outside = [
        (j, v) for j, edge in enumerate(edges) for v in relabeled.vertices if v not in edge
    ]
    if outside and draw(st.booleans()):
        j, v = draw(st.sampled_from(sorted(outside)))
        edges[j][draw(st.integers(0, len(edges[j]) - 1))] = v
        relabeled = Hypergraph({f"m{i}": vertices for i, vertices in enumerate(edges)})
    return original, relabeled


class TestSymmetricShapes:
    @pytest.mark.parametrize("name", sorted(SYMMETRIC))
    def test_relabelled_copies_agree(self, name):
        shape = SYMMETRIC[name]()
        form = canonical_form(shape)
        copy = canonical_form(relabelled(shape, seed=len(name)))
        assert (copy.fingerprint, copy.encoding) == (form.fingerprint, form.encoding)

    def test_fingerprints_are_the_isomorphism_classes_of_four_vertex_graphs(self):
        pairs = list(combinations(range(4), 2))
        classes = {}
        for mask in range(1, 1 << len(pairs)):
            graph = graph_hypergraph(p for i, p in enumerate(pairs) if mask >> i & 1)
            classes.setdefault(canonical_form(graph).fingerprint, []).append(graph)
        for members in classes.values():
            assert all(isomorphic(members[0], other) for other in members[1:])
        for first, second in combinations(classes.values(), 2):
            assert not isomorphic(first[0], second[0])

    @SETTINGS
    @given(hypergraph_pair())
    def test_equal_fingerprints_iff_isomorphic(self, pair):
        first, second = pair
        same = canonical_form(first).fingerprint == canonical_form(second).fingerprint
        assert same == isomorphic(first, second)

    @pytest.mark.parametrize(
        "build, most",
        [(lambda: cycle_hypergraph(16), 8), (lambda: complete_bipartite(4, 4), 32)],
        ids=["cycle16", "K4,4"],
    )
    def test_orbit_pruning_bounds_the_leaves(self, build, most, monkeypatch):
        # Without pruning the search visits 32 and 1 152 leaves.
        _, leaves = counted_canonical_form(build(), monkeypatch)
        assert leaves <= most

    @pytest.mark.parametrize(
        "build",
        [lambda: complete_graph(7), lambda: disjoint_cycles(5, 6, 7), hypergraph_bog_star],
        ids=["K7", "C5+C6+C7", "bog_star"],
    )
    def test_search_finishes_under_the_leaf_cap(self, build, monkeypatch):
        # Without pruning all three exhaust MAX_LEAVES (4 096 leaves), so
        # their forms were truncated and relabelled copies could disagree.
        form, leaves = counted_canonical_form(build(), monkeypatch)
        assert leaves < canonical.MAX_LEAVES
        assert canonical_form(relabelled(build(), seed=7)).fingerprint == form.fingerprint
