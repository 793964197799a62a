"""Unit tests for blocks, bases and Algorithm 1 (CandidateTD)."""

import random
import sys

import pytest

from repro.core.blocks import Block, BlockIndex
from repro.core.candidate_bags import soft_candidate_bags
from repro.core.constrained import ConstrainedCTDSolver
from repro.core.ctd import candidate_td
from repro.core.reference import _reference_blocks
from repro.core.solve import SolveRequest, execute
from repro.hypergraph.generators import (
    random_cyclic_query_hypergraph,
    random_hypergraph,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.library import (
    cycle_hypergraph,
    four_cycle_query,
    grid_hypergraph,
    hypergraph_h2,
)


def _probe_instances():
    """``(name, hypergraph, k)``: six fixed shapes, four seeded random.

    ``ring9x9`` (a cycle of nine size-9 edges, 72 vertices) needs masks
    wider than one 64-bit word.  ``disconnected`` (a triangle, a path and
    an isolated vertex) has no [∅]-component equal to ``V(H)``, so its root
    block ``(∅, V)`` is registered on its own.
    """
    instances = [
        ("four-cycle", four_cycle_query(), 2),
        ("h2", hypergraph_h2(), 2),
        ("c8", cycle_hypergraph(8), 2),
        ("cyclic-q9", random_cyclic_query_hypergraph(9, 3, seed=4), 2),
        (
            "ring9x9",
            Hypergraph(
                {f"e{i}": [f"v{(8 * i + j) % 72}" for j in range(9)] for i in range(9)}
            ),
            2,
        ),
        (
            "disconnected",
            Hypergraph(
                {"t0": ["a", "b"], "t1": ["b", "c"], "t2": ["c", "a"], "p0": ["x", "y"]},
                vertices=["iso"],
            ),
            2,
        ),
    ]
    for seed in range(4):
        rng = random.Random(3000 + seed)
        instances.append(
            (
                f"rand-{seed}",
                random_hypergraph(
                    rng.randint(6, 16),
                    rng.randint(4, 14),
                    max_edge_size=4,
                    seed=seed,
                ),
                rng.choice((2, 3)),
            )
        )
    return instances


probe_grid = pytest.mark.parametrize(
    "hypergraph,k", [pytest.param(h, k, id=name) for name, h, k in _probe_instances()]
)


class TestBlocks:
    def test_blocks_headed_by_candidate(self, four_cycle):
        index = BlockIndex(four_cycle, [frozenset({"w", "x"})])
        blocks = index.blocks_headed_by(frozenset({"w", "x"}))
        components = {block.component for block in blocks if block.component}
        assert components == {frozenset({"y", "z"})}
        assert Block(frozenset({"w", "x"}), frozenset()) in blocks

    def test_root_block_registered(self, triangle):
        index = BlockIndex(triangle, [frozenset({"x", "y"})])
        assert index.root_block.head == frozenset()
        assert index.root_block.component == triangle.vertices

    def test_block_order(self):
        small = Block(frozenset({"a"}), frozenset({"b"}))
        large = Block(frozenset(), frozenset({"a", "b", "c"}))
        assert small.leq(large)
        assert not large.leq(small)
        assert small.leq(small)

    def test_topological_order_respects_dependencies(self, four_cycle):
        bags = soft_candidate_bags(four_cycle, 2)
        index = BlockIndex(four_cycle, bags)
        order = index.topological_order()
        positions = {block: i for i, block in enumerate(order)}
        for block in order:
            for head in index.candidate_bags:
                for sub in index.sub_blocks(head, block):
                    if sub != block:
                        assert positions[sub] <= positions[block]

    def test_is_basis_rejects_head_itself(self, triangle):
        bag = frozenset({"x", "y", "z"})
        index = BlockIndex(triangle, [bag])
        block = Block(bag, frozenset())
        assert not index.is_basis(bag, block, {})

    @probe_grid
    def test_candidate_probes_match_the_static_basis_test(self, hypergraph, k):
        """Same pairs, same candidate order, same live-sub tuples."""
        index = BlockIndex(hypergraph, soft_candidate_bags(hypergraph, k))
        component_masks = index.component_masks
        for block_id in range(index.block_count()):
            expected = []
            for cand_id, candidate_mask in enumerate(index.candidate_masks):
                subs = index.basis_sub_ids(candidate_mask, block_id)
                if subs is not None:
                    expected.append(
                        (cand_id, tuple(s for s in subs if component_masks[s]))
                    )
            assert index.candidate_probes(block_id) == tuple(expected), block_id

    def test_probe_grid_has_a_disconnected_instance(self):
        """The grid reaches the separately registered ``(∅, V)`` block."""
        hypergraph = {name: h for name, h, _ in _probe_instances()}["disconnected"]
        assert hypergraph.has_isolated_vertices()
        bitsets = hypergraph.bitsets
        assert len(bitsets.components(0)) == 3
        assert bitsets.universe not in bitsets.components(0)
        index = BlockIndex(hypergraph, soft_candidate_bags(hypergraph, 2))
        root_id = index.block_id(index.root_block)
        assert index.component_masks[root_id] == bitsets.universe
        assert root_id == index.block_count() - 1

    @probe_grid
    def test_lazy_blocks_match_the_eager_blocks(self, hypergraph, k):
        """Ids round-trip; heads and sub-blocks match the seed-style blocks."""
        index = BlockIndex(hypergraph, soft_candidate_bags(hypergraph, k))
        for block_id in range(index.block_count()):
            assert index.block_id(index.block_at(block_id)) == block_id
        blocks_by_head, all_blocks, root = _reference_blocks(
            hypergraph, index.candidate_bags
        )
        assert len(index.blocks()) == len(all_blocks)
        assert index.root_block == Block(root.head, root.component)

        def as_blocks(reference_blocks):
            return [Block(b.head, b.component) for b in reference_blocks]

        for head, blocks in blocks_by_head.items():
            assert index.blocks_headed_by(head) == as_blocks(blocks)
        rng = random.Random(len(all_blocks))
        heads = list(blocks_by_head)
        for parent in rng.sample(all_blocks, min(60, len(all_blocks))):
            for head in rng.sample(heads, min(10, len(heads))):
                expected = [b for b in blocks_by_head[head] if b.leq(parent)]
                assert index.sub_blocks(
                    head, Block(parent.head, parent.component)
                ) == as_blocks(expected)

    def test_block_id_of_unregistered_blocks(self, four_cycle):
        index = BlockIndex(four_cycle, [frozenset({"w", "x"})])

        def block_id(head, component):
            return index.block_id(Block(frozenset(head), frozenset(component)))

        # A head that is no candidate bag, and a vertex outside V(H).
        assert block_id({"w"}, {"x", "y", "z"}) is None
        assert block_id({"w", "x"}, {"y", "q"}) is None
        assert block_id({"q"}, set()) is None
        assert block_id({"w", "x"}, {"y", "z"}) is not None

    def test_decide_materialises_few_blocks(self, monkeypatch):
        """A k = 2 decide on C24 builds ≤ 64 of its 3 074 Block objects."""
        built = []
        original = Block.__init__

        def counting(block, *args, **kwargs):
            built.append(block)
            original(block, *args, **kwargs)

        monkeypatch.setattr(Block, "__init__", counting)
        hypergraph = cycle_hypergraph(24)
        solver = ConstrainedCTDSolver(hypergraph, soft_candidate_bags(hypergraph, 2))
        assert solver.decide()
        assert solver.index.block_count() == 3074
        assert len(built) <= 64


class TestCandidateTDSolver:
    def test_single_full_bag_always_works(self, triangle):
        td = candidate_td(triangle, [frozenset(triangle.vertices)])
        assert td is not None
        assert td.is_valid()
        assert td.tree.num_nodes() == 1

    def test_insufficient_bags_rejected(self, triangle):
        assert candidate_td(triangle, [frozenset({"x", "y"})]) is None

    def test_path_decomposition_found(self):
        hypergraph = Hypergraph(
            {"e0": ["v0", "v1"], "e1": ["v1", "v2"], "e2": ["v2", "v3"]}
        )
        bags = [frozenset({"v0", "v1"}), frozenset({"v1", "v2"}), frozenset({"v2", "v3"})]
        td = candidate_td(hypergraph, bags)
        assert td is not None
        assert td.is_valid()
        assert td.uses_bags_from(bags)
        assert td.is_component_normal_form()

    def test_h2_soft_bags_admit_width2_ctd(self, h2):
        bags = soft_candidate_bags(h2, 2)
        td = candidate_td(h2, bags)
        assert td is not None
        assert td.is_valid()
        assert td.uses_bags_from(bags)

    def test_decide_matches_solve(self, h2):
        bags = soft_candidate_bags(h2, 1)
        solver = ConstrainedCTDSolver(h2, bags)
        assert solver.decide() == (solver.solve() is not None)

    def test_disconnected_hypergraph_supported(self):
        hypergraph = Hypergraph({"R": ["a", "b"], "S": ["c", "d"]})
        td = candidate_td(
            hypergraph, [frozenset({"a", "b"}), frozenset({"c", "d"})]
        )
        assert td is not None
        assert td.is_valid()

    def test_satisfied_blocks_accessible(self, triangle):
        bags = soft_candidate_bags(triangle, 2)
        solver = ConstrainedCTDSolver(triangle, bags)
        solver.solve()
        satisfied = solver.satisfied_blocks()
        assert solver.index.root_block in satisfied

    def test_candidate_bags_not_in_decomposition_are_allowed(self, triangle):
        # Extra useless candidate bags must not break the solver.
        bags = set(soft_candidate_bags(triangle, 2))
        bags.add(frozenset({"x"}))
        td = candidate_td(triangle, bags)
        assert td is not None and td.is_valid()

    def test_resulting_ctd_is_compnf(self, four_cycle):
        bags = soft_candidate_bags(four_cycle, 2)
        td = candidate_td(four_cycle, bags)
        assert td is not None
        assert td.is_component_normal_form()

    def test_vertexless_hypergraph_accepts_trivially(self):
        # The root block of the vertex-less hypergraph is (∅, ∅): trivially
        # satisfied by the empty basis, witnessed by one empty bag.
        empty = Hypergraph([])
        solver = ConstrainedCTDSolver(empty, [])
        assert solver.decide()
        td = solver.solve()
        assert td is not None
        assert td.bags() == [frozenset()]
        assert td.is_valid()
        from repro.core.reference import reference_candidate_td_decide

        assert reference_candidate_td_decide(empty, [])

    def test_single_vertex_hypergraph(self):
        single = Hypergraph({"e0": ["v"]})
        bags = soft_candidate_bags(single, 1)
        td = candidate_td(single, bags)
        assert td is not None
        assert td.bags() == [frozenset({"v"})]
        assert td.is_valid()
        assert candidate_td(single, []) is None


#: The ten ``solve_cold`` requests of the end-to-end benchmark, built from
#: the same generators and request fields without relabelling, with the
#: number of distinct blocks each scans and the probes those scans list.
SOLVE_COLD_SCANS = (
    ("cycle24-decide", lambda: cycle_hypergraph(24), dict(mode="decide", width=2), 45, 1388),
    (
        "random26-decide",
        lambda: random_hypergraph(26, 18, seed=3),
        dict(mode="decide", width=2),
        39,
        890,
    ),
    (
        "cyclic12-decide",
        lambda: random_cyclic_query_hypergraph(12, 3, seed=5),
        dict(mode="decide", width=2),
        33,
        665,
    ),
    (
        "grid4x4-decide-negative",
        lambda: grid_hypergraph(4, 4),
        dict(mode="decide", width=2),
        518,
        4257,
    ),
    (
        "cyclic7-enumerate-concov",
        lambda: random_cyclic_query_hypergraph(7, 2, seed=1),
        dict(mode="enumerate", width=4, constraint="concov", preference="nodecount", limit=5),
        217,
        4207,
    ),
    (
        "h2-optimal-concov",
        hypergraph_h2,
        dict(mode="optimal", width=3, constraint="concov", preference="nodecount"),
        413,
        8351,
    ),
    (
        "cyclic10-optimal",
        lambda: random_cyclic_query_hypergraph(10, 3, seed=2),
        dict(mode="optimal", width=2, preference="nodecount"),
        597,
        5686,
    ),
    (
        "cycle12-enumerate-top10",
        lambda: cycle_hypergraph(12),
        dict(mode="enumerate", width=2, limit=10),
        20,
        398,
    ),
    ("grid3x4-softwidth", lambda: grid_hypergraph(3, 4), dict(mode="soft-width"), 33, 435),
    (
        "random18-softwidth",
        lambda: random_hypergraph(18, 15, seed=7),
        dict(mode="soft-width"),
        34,
        561,
    ),
)


@pytest.mark.parametrize(
    "build,fields,blocks,probes",
    [pytest.param(*case[1:], id=case[0]) for case in SOLVE_COLD_SCANS],
)
def test_solve_cold_scan_counts(monkeypatch, build, fields, blocks, probes):
    """How a block is scanned may change; which blocks and probes may not."""
    listed = {}
    original = BlockIndex.candidate_probes

    def spy(index, block_id):
        found = original(index, block_id)
        listed[index, block_id] = len(found)
        return found

    monkeypatch.setattr(BlockIndex, "candidate_probes", spy)
    result = execute(SolveRequest(hypergraph=build(), **fields), cache=None)
    assert result.complete
    assert (len(listed), sum(listed.values())) == (blocks, probes)


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


class TestTopDownResolution:
    def test_decide_scans_only_the_blocks_the_root_needs(self, monkeypatch):
        """Trivial (𝒞, ≤) on C16 at k = 2 scans < 25 % of the blocks.

        Every block is reachable from the root (each candidate is a root
        probe), so an exact optimum under a real preference still resolves
        every block with a component; a decision stops at each block's
        first basis and needs only one chain of them.
        """
        from repro.core.blocks import BlockIndex

        scanned = set()
        original = BlockIndex.candidate_probes

        def spy(index, block_id):
            scanned.add(block_id)
            return original(index, block_id)

        monkeypatch.setattr(BlockIndex, "candidate_probes", spy)
        hypergraph = cycle_hypergraph(16)
        solver = ConstrainedCTDSolver(hypergraph, soft_candidate_bags(hypergraph, 2))
        assert solver.decide()
        assert scanned
        assert len(scanned) < 0.25 * solver.index.block_count()

    def test_block_chain_deeper_than_the_recursion_limit(self):
        """A path whose CTD is one chain of ``limit`` blocks still solves."""
        limit = _stack_depth() + 100
        edges = limit + 50
        path = Hypergraph(
            {f"e{i}": [f"v{i:05d}", f"v{i + 1:05d}"] for i in range(edges)}
        )
        bags = [edge.vertices for edge in path.edges]
        previous = sys.getrecursionlimit()
        sys.setrecursionlimit(limit)
        try:
            solver = ConstrainedCTDSolver(path, bags)
            decided = solver.decide()
            decomposition = solver.solve()
        finally:
            sys.setrecursionlimit(previous)
        assert decided
        assert decomposition is not None
        assert decomposition.tree.height() >= limit
        assert decomposition.is_valid()
        assert decomposition.uses_bags_from(bags)
