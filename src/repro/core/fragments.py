"""Immutable decomposition fragments shared by the solvers and the enumerator.

A *fragment* encodes the subtree of a partial decomposition as a nested pair
``(bag, (child fragments...))``.  Fragments are plain tuples of frozensets:
hashable, comparable for equality, and cheap to share structurally — the
block dynamic program of Algorithm 2 (:mod:`repro.core.constrained`) and the
exact lazy enumerator (:mod:`repro.core.enumerate`) both build larger
fragments out of already-evaluated child fragments, so constraint checks and
preference keys are memoised per fragment (in the shared
:class:`repro.core.options.FragmentEvaluator`) instead of being recomputed
for every probe of the dynamic program.

Children are kept in a canonical (deterministically sorted) order so that two
structurally equal partial decompositions are represented by the *same*
fragment value and hit the same memo entries.  The same
:func:`fragment_sort_key` doubles as the enumerator's ranking tie-break: it
is built from sorted vertex strings, so the ranked order is reproducible
across processes and hash seeds.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Tuple

from repro.hypergraph.hypergraph import Hypergraph, Vertex
from repro.decompositions.td import TreeDecomposition
from repro.decompositions.tree import RootedTree, TreeNode

Bag = FrozenSet[Vertex]

# A fragment is an immutable encoding of a decomposition subtree:
# (bag, (child fragments...)).
Fragment = Tuple


# fragment -> sort key.  Sort keys are requested on every probe of the
# solvers while fragments are immutable and shared, so the recursion is
# memoised (a fragment's key embeds its children's keys, which
# are therefore already cached when the parent is first sorted).  The cache
# outlives individual solvers, so it is cleared when it exceeds the bound —
# correctness never depends on a hit.
_sort_key_cache: dict = {}
_SORT_KEY_CACHE_BOUND = 1 << 16


def fragment_sort_key(fragment: Fragment) -> Tuple:
    """A deterministic total order on fragments (used to canonicalise children).

    ``repr`` of a frozenset depends on hash-table layout, so the key is built
    from sorted vertex strings instead — equal fragments always compare equal
    and sort identically, which keeps the per-fragment memo tables effective.
    """
    key = _sort_key_cache.get(fragment)
    if key is None:
        bag, children = fragment
        key = (
            tuple(sorted(map(str, bag))),
            tuple(fragment_sort_key(child) for child in children),
        )
        if len(_sort_key_cache) >= _SORT_KEY_CACHE_BOUND:
            _sort_key_cache.clear()
        _sort_key_cache[fragment] = key
    return key


def make_fragment(bag: Bag, children: Iterable[Fragment]) -> Fragment:
    """Build the canonical fragment with root ``bag`` and the given children."""
    return (bag, tuple(sorted(children, key=fragment_sort_key)))


def fragment_to_decomposition(
    hypergraph: Hypergraph, fragment: Fragment, head: Optional[Bag] = None
) -> TreeDecomposition:
    """Materialise a fragment (optionally below a head bag) as a decomposition.

    Iterative, so a fragment deeper than the recursion limit materialises
    too; nodes are numbered in pre-order, children in fragment order.
    """
    tree = RootedTree()
    parent: Optional[TreeNode] = None
    if head is not None:
        parent = tree.new_node(None, bag=head)
    stack: List[Tuple[Fragment, Optional[TreeNode]]] = [(fragment, parent)]
    while stack:
        (bag, children), parent = stack.pop()
        node = tree.new_node(parent, bag=bag)
        stack.extend((child, node) for child in reversed(children))
    return TreeDecomposition(hypergraph, tree)
