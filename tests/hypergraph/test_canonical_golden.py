"""Canonical forms pinned byte for byte.

``canonical_golden.json`` holds, for every shape below, the ``fingerprint``,
``encoding`` and ``order`` (as vertex names) that
:func:`repro.hypergraph.canonical.canonical_form` returned before the
individualisation search learnt automorphism pruning, plus that search's
leaf count (``leaves``, one ``_encode`` call per leaf).  The persistent
decomposition cache is keyed by the fingerprint and stores bags as
canonical indices, so a diff here is a cache format change, never a
refactoring detail: a pruned search must reach the same first least leaf.

The shapes are the ``hypergraph/library.py`` builders, the hypergraphs of
the solve and batch benchmark workloads (rebuilt here from the library and
the generators), the sixteen benchmark query shapes and a set of highly
symmetric graphs (complete bipartite, Petersen, hypercubes, ``K_6``).  The
recorded leaf counts are all below ``MAX_LEAVES``.  Two shapes are left
out because the unpruned search hit that cap on them (4 096 leaves), so
their old forms were truncation artefacts: ``hypergraph_bog_star()`` and
``K_7``.  The symmetry suite
(``tests/property/test_property_canonical.py``) covers both, and the
disjoint union ``C_5 + C_6 + C_7``, which the cap truncated as well.
"""

import json
import os
import random
from itertools import combinations
from typing import Callable, Dict

import pytest

from repro.hypergraph import canonical
from repro.hypergraph.generators import random_cyclic_query_hypergraph, random_hypergraph
from repro.hypergraph.hypergraph import Edge, Hypergraph
from repro.hypergraph.library import (
    cycle_hypergraph,
    example4_query,
    four_cycle_query,
    grid_hypergraph,
    hypergraph_h2,
    hypergraph_h3,
    hypergraph_h3_prime,
    triangle_hypergraph,
)

HERE = os.path.dirname(__file__)
GOLDEN_PATH = os.path.join(HERE, "canonical_golden.json")


def graph_hypergraph(pairs) -> Hypergraph:
    """A graph as a hypergraph of binary edges over ``v<i>`` vertices."""
    return Hypergraph({f"e{j}": [f"v{a}", f"v{b}"] for j, (a, b) in enumerate(pairs)})


def complete_graph(n: int) -> Hypergraph:
    return graph_hypergraph(combinations(range(n), 2))


def complete_bipartite(m: int, n: int) -> Hypergraph:
    return graph_hypergraph((a, m + b) for a in range(m) for b in range(n))


def petersen_graph() -> Hypergraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
    return graph_hypergraph(outer + spokes + inner)


def hypercube(dimension: int) -> Hypergraph:
    return graph_hypergraph(
        (v, v | 1 << bit)
        for v in range(1 << dimension)
        for bit in range(dimension)
        if not v >> bit & 1
    )


def disjoint_cycles(*lengths: int) -> Hypergraph:
    pairs, base = [], 0
    for n in lengths:
        pairs += [(base + i, base + (i + 1) % n) for i in range(n)]
        base += n
    return graph_hypergraph(pairs)


def relabelled(hypergraph: Hypergraph, seed: int) -> Hypergraph:
    """An isomorphic copy: shuffled vertex names, edge names and edge order."""
    rng = random.Random(seed)
    vertices = sorted(hypergraph.vertices, key=str)
    names = [f"w{i}" for i in range(len(vertices))]
    rng.shuffle(names)
    rename = dict(zip(vertices, names))
    edges = [sorted(rename[v] for v in edge.vertices) for edge in hypergraph.edges]
    rng.shuffle(edges)
    return Hypergraph({f"r{j}": vertices for j, vertices in enumerate(edges)})


def _query_shapes() -> Dict[str, Callable[[], Hypergraph]]:
    with open(os.path.join(HERE, "..", "core", "query_shape_ctds.json")) as handle:
        shapes = json.load(handle)

    def build(shape):
        return lambda: Hypergraph(
            [Edge(name, frozenset(vertices)) for name, vertices in shape["edges"]]
        )

    return {f"query/{shape['name']}": build(shape) for shape in shapes}


SHAPES: Dict[str, Callable[[], Hypergraph]] = {
    "library/triangle": triangle_hypergraph,
    **{f"library/cycle{n}": (lambda n=n: cycle_hypergraph(n)) for n in (3, 5, 12, 16, 24)},
    "library/four_cycle": four_cycle_query,
    "library/example4": lambda: example4_query()[0],
    **{
        f"library/grid{r}x{c}": (lambda r=r, c=c: grid_hypergraph(r, c))
        for r, c in ((3, 3), (3, 4), (4, 4))
    },
    "library/h2": hypergraph_h2,
    "library/h3": hypergraph_h3,
    "library/h3_prime": hypergraph_h3_prime,
    # The solve_cold / batch_dedup shapes the library does not already cover.
    "generator/random26": lambda: random_hypergraph(26, 18, seed=3),
    "generator/random18": lambda: random_hypergraph(18, 15, seed=7),
    "generator/cyclic12": lambda: random_cyclic_query_hypergraph(12, 3, seed=5),
    "generator/cyclic10": lambda: random_cyclic_query_hypergraph(10, 3, seed=2),
    "generator/cyclic7": lambda: random_cyclic_query_hypergraph(7, 2, seed=1),
    **_query_shapes(),
    "symmetric/K3,3": lambda: complete_bipartite(3, 3),
    "symmetric/K4,4": lambda: complete_bipartite(4, 4),
    "symmetric/K3,5": lambda: complete_bipartite(3, 5),
    "symmetric/petersen": petersen_graph,
    "symmetric/Q3": lambda: hypercube(3),
    "symmetric/Q4": lambda: hypercube(4),
    "symmetric/K6": lambda: complete_graph(6),
}


def counted_canonical_form(hypergraph: Hypergraph, monkeypatch):
    """``canonical_form`` plus the number of leaves its search encoded."""
    calls = []
    encode = canonical._encode

    def counting(position, edges):
        calls.append(None)
        return encode(position, edges)

    monkeypatch.setattr(canonical, "_encode", counting)
    form = canonical.canonical_form(hypergraph)
    monkeypatch.setattr(canonical, "_encode", encode)
    return form, len(calls)


def golden_entry(form: canonical.CanonicalForm, leaves: int) -> Dict[str, object]:
    return {
        "fingerprint": form.fingerprint,
        "encoding": [list(edge) for edge in form.encoding],
        "order": [str(v) for v in form.order],
        "leaves": leaves,
    }


with open(GOLDEN_PATH) as handle:
    GOLDEN = json.load(handle)


def test_golden_covers_every_shape():
    assert sorted(GOLDEN) == sorted(SHAPES)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_canonical_form_is_byte_identical(name, monkeypatch):
    form, leaves = counted_canonical_form(SHAPES[name](), monkeypatch)
    golden = GOLDEN[name]
    # The leaf cap never bound when the golden was written, so the pinned
    # form is the search's true first least leaf, not a truncation artefact.
    assert golden["leaves"] < canonical.MAX_LEAVES
    assert golden_entry(form, golden["leaves"]) == golden
    assert leaves <= golden["leaves"]
