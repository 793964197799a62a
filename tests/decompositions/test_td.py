"""Unit tests for tree decompositions."""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.core.candidate_bags import soft_candidate_bags
from repro.core.certify import certify_ctd
from repro.core.constrained import constrained_candidate_td
from repro.core.ctd import candidate_td
from repro.core.enumerate import enumerate_ctds
from repro.core.preferences import NodeCountPreference
from repro.decompositions.ghd import GeneralizedHypertreeDecomposition
from repro.decompositions.td import TreeDecomposition
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.library import (
    cycle_hypergraph,
    example4_query,
    four_cycle_query,
    grid_hypergraph,
    hypergraph_h2,
    triangle_hypergraph,
)


def path_hypergraph(length):
    return Hypergraph({f"e{i}": [f"v{i}", f"v{i + 1}"] for i in range(length)})


class TestConstruction:
    def test_from_bags(self, triangle):
        td = TreeDecomposition.from_bags(triangle, [{"x", "y", "z"}], [None])
        assert td.width() == 2
        assert td.is_valid()

    def test_single_bag_decomposition_is_always_valid(self, h2):
        td = TreeDecomposition.single_bag(h2)
        assert td.is_valid()
        assert td.width() == h2.num_vertices() - 1


class TestValidity:
    def test_path_decomposition_is_valid(self):
        hypergraph = path_hypergraph(3)
        bags = [{"v0", "v1"}, {"v1", "v2"}, {"v2", "v3"}]
        td = TreeDecomposition.from_bags(hypergraph, bags, [None, 0, 1])
        assert td.covers_all_edges()
        assert td.satisfies_connectedness()
        assert td.is_valid()
        assert td.width() == 1

    def test_missing_edge_coverage_detected(self, triangle):
        td = TreeDecomposition.from_bags(
            triangle, [{"x", "y"}, {"y", "z"}], [None, 0]
        )
        assert not td.covers_all_edges()
        assert not td.is_valid()

    def test_connectedness_violation_detected(self):
        hypergraph = path_hypergraph(3)
        # v1 appears in two bags that are not adjacent.
        bags = [{"v0", "v1"}, {"v2", "v3"}, {"v1", "v2"}]
        td = TreeDecomposition.from_bags(hypergraph, bags, [None, 0, 1])
        assert not td.satisfies_connectedness()

    def test_vertex_missing_from_all_bags_detected(self):
        hypergraph = path_hypergraph(2)
        td = TreeDecomposition.from_bags(hypergraph, [{"v0", "v1"}], [None])
        assert not td.satisfies_connectedness()


class TestStructure:
    def test_subtree_vertices(self):
        hypergraph = path_hypergraph(3)
        bags = [{"v0", "v1"}, {"v1", "v2"}, {"v2", "v3"}]
        td = TreeDecomposition.from_bags(hypergraph, bags, [None, 0, 1])
        child = td.tree.root.children[0]
        assert td.subtree_vertices(child) == frozenset({"v1", "v2", "v3"})

    def test_component_normal_form_holds_for_path(self):
        hypergraph = path_hypergraph(3)
        bags = [{"v0", "v1"}, {"v1", "v2"}, {"v2", "v3"}]
        td = TreeDecomposition.from_bags(hypergraph, bags, [None, 0, 1])
        assert td.is_component_normal_form()

    def test_component_normal_form_violation(self):
        # The child's subtree covers two different components of the root bag.
        hypergraph = Hypergraph(
            {"left": ["c", "l"], "right": ["c", "r"], "mid": ["c"]}
        )
        td = TreeDecomposition.from_bags(
            hypergraph, [{"c"}, {"c", "l", "r"}], [None, 0]
        )
        assert td.is_valid()
        assert not td.is_component_normal_form()

    def test_uses_bags_from(self, triangle):
        td = TreeDecomposition.from_bags(triangle, [{"x", "y", "z"}], [None])
        assert td.uses_bags_from([frozenset({"x", "y", "z"})])
        assert not td.uses_bags_from([frozenset({"x", "y"})])

    def test_canonical_form_ignores_child_order(self, triangle):
        a = TreeDecomposition.from_bags(
            triangle, [{"x", "y", "z"}, {"x", "y"}, {"y", "z"}], [None, 0, 0]
        )
        b = TreeDecomposition.from_bags(
            triangle, [{"x", "y", "z"}, {"y", "z"}, {"x", "y"}], [None, 0, 0]
        )
        assert a.canonical_form() == b.canonical_form()

    def test_bag_multiset_sorted(self, triangle):
        td = TreeDecomposition.from_bags(
            triangle, [{"x", "y", "z"}, {"x", "y"}], [None, 0]
        )
        assert len(td.bag_multiset()) == 2


def assert_contraction_invariants(td, width=None):
    """What :meth:`TreeDecomposition.contracted` promises for a valid ``td``."""
    contracted = td.contracted()
    assert contracted.is_valid()
    assert certify_ctd(td.hypergraph, contracted, width_claim=width).ok
    assert contracted.uses_bags_from(td.bags())
    for node in contracted.tree.nodes():
        for child in node.children:
            assert not contracted.bag(child) <= contracted.bag(node)
            assert not contracted.bag(node) <= contracted.bag(child)
    for bag in td.bags():
        assert any(bag <= kept for kept in contracted.bags())
    assert contracted.contracted().canonical_form() == contracted.canonical_form()
    return contracted


class TestContraction:
    def test_interface_bags_of_a_chain_are_merged_away(self):
        hypergraph = path_hypergraph(3)
        # The CompNF shape: single-vertex interface bags between the edges.
        bags = [{"v1"}, {"v0", "v1"}, {"v1", "v2"}, {"v2"}, {"v2", "v3"}]
        td = TreeDecomposition.from_bags(hypergraph, bags, [None, 0, 0, 2, 3])
        contracted = assert_contraction_invariants(td, width=1)
        # {v1} merges into its lowest-id neighbour {v0, v1}, which becomes
        # the root and inherits {v1, v2}; {v2} merges into {v1, v2}.
        assert contracted.canonical_form() == (
            ("v0", "v1"),
            ((("v1", "v2"), ((("v2", "v3"), ()),)),),
        )
        assert [node.node_id for node in contracted.tree.nodes()] == [0, 1, 2]

    def test_equal_neighbouring_bags_collapse_to_one(self, triangle):
        td = TreeDecomposition.from_bags(
            triangle, [{"x", "y", "z"}, {"x", "y", "z"}, {"x", "y"}], [None, 0, 1]
        )
        contracted = assert_contraction_invariants(td)
        assert contracted.bags() == [frozenset({"x", "y", "z"})]

    def test_merging_can_cascade_through_new_neighbours(self):
        hypergraph = path_hypergraph(2)
        # {v1} separates two bags; once it is gone {v1, v2} meets a superset.
        bags = [{"v0", "v1", "v2"}, {"v1"}, {"v1", "v2"}]
        td = TreeDecomposition.from_bags(hypergraph, bags, [None, 0, 1])
        assert assert_contraction_invariants(td).bags() == [
            frozenset({"v0", "v1", "v2"})
        ]

    def test_nothing_to_merge_keeps_shape_and_leaves_the_input_alone(self):
        hypergraph = path_hypergraph(3)
        bags = [{"v0", "v1"}, {"v1", "v2"}, {"v2", "v3"}]
        td = TreeDecomposition.from_bags(hypergraph, bags, [None, 0, 1])
        before = td.canonical_form()
        assert assert_contraction_invariants(td).canonical_form() == before
        assert td.canonical_form() == before

    def test_surviving_nodes_keep_their_payload_and_class(self, triangle):
        ghd = GeneralizedHypertreeDecomposition.from_labels(
            triangle, [{"x"}, {"x", "y", "z"}], [["R"], ["R", "S"]], [None, 0]
        )
        contracted = ghd.contracted()
        assert isinstance(contracted, GeneralizedHypertreeDecomposition)
        (node,) = contracted.tree.nodes()
        assert contracted.bag(node) == frozenset({"x", "y", "z"})
        assert len(contracted.cover(node)) == 2

    @pytest.mark.parametrize(
        "hypergraph, width",
        [
            (triangle_hypergraph(), 2),
            (four_cycle_query(), 2),
            (cycle_hypergraph(6), 2),
            (grid_hypergraph(2, 3), 2),
            (hypergraph_h2(), 2),
            (example4_query()[0], 2),
        ],
        ids=["triangle", "four-cycle", "cycle6", "grid2x3", "h2", "example4"],
    )
    def test_every_solver_output_on_the_library_shapes(self, hypergraph, width):
        bags = soft_candidate_bags(hypergraph, width)
        decompositions = [
            candidate_td(hypergraph, bags),
            constrained_candidate_td(
                hypergraph, bags, preference=NodeCountPreference()
            ),
            *enumerate_ctds(hypergraph, bags, limit=5),
        ]
        assert all(d is not None for d in decompositions)
        for decomposition in decompositions:
            assert_contraction_invariants(decomposition, width=width)

    def test_result_is_independent_of_the_hash_seed(self):
        script = textwrap.dedent(
            """
            from repro.core.candidate_bags import soft_candidate_bags
            from repro.core.enumerate import enumerate_ctds
            from repro.hypergraph.library import hypergraph_h2

            hypergraph = hypergraph_h2()
            bags = soft_candidate_bags(hypergraph, 2)
            for decomposition in enumerate_ctds(hypergraph, bags, limit=6):
                contracted = decomposition.contracted()
                print(
                    [
                        (node.node_id, sorted(map(str, contracted.bag(node))),
                         node.parent.node_id if node.parent else None)
                        for node in contracted.tree.nodes()
                    ]
                )
            """
        )
        outputs = []
        for hash_seed in ("0", "1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
            env["PYTHONPATH"] = os.path.abspath(src)
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0].strip()
        assert outputs[0] == outputs[1] == outputs[2]
