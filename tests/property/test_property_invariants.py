"""Property-based tests (hypothesis) for the core invariants.

The strategies generate small random hypergraphs / relations so each example
stays fast while still exploring a wide structural variety.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines.acyclic import is_alpha_acyclic
from repro.core.candidate_bags import SoftBagGenerator, soft_candidate_bags
from repro.core.covers import connected_edge_set, minimum_edge_cover
from repro.core.ctd import candidate_td
from repro.core.soft import shw_leq, soft_hypertree_width
from repro.hypergraph.components import (
    component_vertices,
    edge_components,
    vertex_components,
)
from repro.decompositions.td import TreeDecomposition
from repro.hypergraph.hypergraph import Hypergraph
from repro.db.relation import Relation
from tests.decompositions.test_td import assert_contraction_invariants

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- strategies ---------------------------------------------------------------


@st.composite
def small_hypergraphs(draw, max_vertices=7, max_edges=7):
    num_vertices = draw(st.integers(min_value=2, max_value=max_vertices))
    vertices = [f"v{i}" for i in range(num_vertices)]
    num_edges = draw(st.integers(min_value=1, max_value=max_edges))
    edges = {}
    for i in range(num_edges):
        size = draw(st.integers(min_value=1, max_value=min(3, num_vertices)))
        chosen = draw(
            st.lists(
                st.sampled_from(vertices), min_size=size, max_size=size, unique=True
            )
        )
        edges[f"e{i}"] = chosen
    # Attach uncovered vertices so there are no isolated vertices.
    covered = {v for verts in edges.values() for v in verts}
    extra = 0
    for vertex in vertices:
        if vertex not in covered:
            partner = vertices[0] if vertex != vertices[0] else vertices[1]
            edges[f"iso{extra}"] = [vertex, partner]
            extra += 1
    return Hypergraph(edges)


@st.composite
def valid_tree_decompositions(draw, max_nodes=7, max_vertices=6):
    """A random tree of bags that is a valid TD of a hypergraph drawn from it.

    Every vertex occupies a random connected subtree (so bags contained in
    a neighbour's, equal bags and empty bags all occur); the hyperedges are
    subsets of bags, plus a singleton edge for any vertex left uncovered.
    """
    num_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    parent_of = [None] + [
        draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, num_nodes)
    ]
    neighbours = {i: set() for i in range(num_nodes)}
    for child, parent in enumerate(parent_of):
        if parent is not None:
            neighbours[child].add(parent)
            neighbours[parent].add(child)
    vertices = [f"v{i}" for i in range(draw(st.integers(1, max_vertices)))]
    bags = [set() for _ in range(num_nodes)]
    for vertex in vertices:
        holders = {draw(st.integers(min_value=0, max_value=num_nodes - 1))}
        for _ in range(draw(st.integers(min_value=0, max_value=num_nodes - 1))):
            frontier = sorted(set().union(*(neighbours[h] for h in holders)) - holders)
            if not frontier:
                break
            holders.add(draw(st.sampled_from(frontier)))
        for holder in holders:
            bags[holder].add(vertex)
    edges = {}
    for bag in filter(None, bags):
        members = draw(
            st.lists(st.sampled_from(sorted(bag)), min_size=1, max_size=3, unique=True)
        )
        edges[f"e{len(edges)}"] = members
    covered = {v for members in edges.values() for v in members}
    for vertex in vertices:
        if vertex not in covered:
            edges[f"e{len(edges)}"] = [vertex]
    return TreeDecomposition.from_bags(Hypergraph(edges), bags, parent_of)


@st.composite
def small_relations(draw):
    arity = draw(st.integers(min_value=1, max_value=3))
    attributes = [f"a{i}" for i in range(arity)]
    rows = draw(
        st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=5) for _ in range(arity)]),
            max_size=20,
        )
    )
    return Relation("R", attributes, rows)


# -- hypergraph invariants ----------------------------------------------------------


class TestComponentProperties:
    @SETTINGS
    @given(small_hypergraphs(), st.data())
    def test_vertex_components_partition_the_non_separator_vertices(self, hypergraph, data):
        separator = data.draw(
            st.sets(st.sampled_from(sorted(map(str, hypergraph.vertices))), max_size=3)
        )
        components = vertex_components(hypergraph, separator)
        union = set()
        for component in components:
            assert not (component & set(separator))
            assert not (union & component)
            union |= component
        assert union == set(hypergraph.vertices) - set(separator)

    @SETTINGS
    @given(small_hypergraphs(), st.data())
    def test_every_non_separator_edge_is_in_exactly_one_component(self, hypergraph, data):
        separator = data.draw(
            st.sets(st.sampled_from(sorted(map(str, hypergraph.vertices))), max_size=3)
        )
        components = edge_components(hypergraph, separator)
        seen = {}
        for component in components:
            for edge in component:
                assert edge.name not in seen
                seen[edge.name] = True
        outside = {
            edge.name
            for edge in hypergraph.edges
            if edge.vertices - set(separator)
        }
        assert set(seen) == outside


class TestCoverProperties:
    @SETTINGS
    @given(small_hypergraphs(), st.data())
    def test_minimum_cover_covers_and_is_minimal_size(self, hypergraph, data):
        bag = data.draw(
            st.sets(st.sampled_from(sorted(map(str, hypergraph.vertices))), max_size=4)
        )
        cover = minimum_edge_cover(hypergraph, bag)
        if cover is None:
            # Some vertex of the bag is not covered by any edge: impossible
            # here since generated hypergraphs have no isolated vertices.
            assert not bag
            return
        union = set()
        for edge in cover:
            union.update(edge.vertices)
        assert set(bag) <= union
        assert connected_edge_set(cover) in (True, False)  # total function

    @SETTINGS
    @given(small_hypergraphs())
    def test_single_edges_are_their_own_cover(self, hypergraph):
        for edge in hypergraph.edges:
            cover = minimum_edge_cover(hypergraph, edge.vertices)
            assert len(cover) == 1


class TestSoftBagProperties:
    @SETTINGS
    @given(small_hypergraphs())
    def test_soft_bags_contain_all_edges_and_respect_cover_bound(self, hypergraph):
        bags = soft_candidate_bags(hypergraph, 2)
        for edge in hypergraph.edges:
            assert edge.vertices in bags
        for bag in bags:
            cover = minimum_edge_cover(hypergraph, bag, upper_bound=2)
            assert cover is not None and len(cover) <= 2

    @SETTINGS
    @given(small_hypergraphs())
    def test_soft_levels_are_monotone(self, hypergraph):
        generator = SoftBagGenerator(hypergraph, 2)
        level0 = generator.candidate_bags(0)
        level1 = generator.candidate_bags(1)
        assert level0 <= level1


class TestSoftWidthProperties:
    @SETTINGS
    @given(small_hypergraphs())
    def test_shw_witness_is_a_valid_ctd(self, hypergraph):
        width, decomposition = soft_hypertree_width(hypergraph)
        assert decomposition.is_valid()
        assert decomposition.uses_bags_from(soft_candidate_bags(hypergraph, width))
        assert width >= 1

    @SETTINGS
    @given(small_hypergraphs())
    def test_acyclic_iff_shw_1(self, hypergraph):
        acyclic = is_alpha_acyclic(hypergraph)
        assert (shw_leq(hypergraph, 1) is not None) == acyclic

    @SETTINGS
    @given(small_hypergraphs())
    def test_candidate_td_output_uses_candidate_bags(self, hypergraph):
        bags = soft_candidate_bags(hypergraph, 2)
        decomposition = candidate_td(hypergraph, bags)
        if decomposition is not None:
            assert decomposition.is_valid()
            assert decomposition.uses_bags_from(bags)
            assert decomposition.is_component_normal_form()


class TestContractionProperties:
    @settings(max_examples=150, deadline=None)
    @given(valid_tree_decompositions())
    def test_contracting_a_random_valid_td(self, decomposition):
        assert decomposition.is_valid()
        assert_contraction_invariants(decomposition)

    @SETTINGS
    @given(small_hypergraphs())
    def test_contracting_the_shw_witness_keeps_its_width(self, hypergraph):
        width, decomposition = soft_hypertree_width(hypergraph)
        assert_contraction_invariants(decomposition, width=width)


class TestRelationProperties:
    @SETTINGS
    @given(small_relations())
    def test_projection_is_idempotent_and_shrinking(self, relation):
        projected = relation.project(list(relation.attributes))
        assert len(projected) <= len(relation)
        assert projected.rows == projected.project(list(projected.attributes)).rows

    @SETTINGS
    @given(small_relations(), small_relations())
    def test_semijoin_is_a_subset_of_the_left_input(self, left, right):
        reduced = left.semijoin(right)
        assert set(reduced.rows) <= set(left.rows)
        assert len(reduced) <= len(left)

    @SETTINGS
    @given(small_relations(), small_relations())
    def test_join_then_project_equals_semijoin(self, left, right):
        right = right.rename("S", {a: a for a in right.attributes})
        joined = left.natural_join(right)
        projected = joined.project(list(left.attributes))
        semi = left.semijoin(right).project(list(left.attributes))
        assert set(projected.rows) == set(semi.rows)
