"""Preferences that exist only as test fixtures.

No solve request can name these; the solver and enumerator suites use them
to exercise contracts the request-named preferences do not cover.
"""

from typing import Sequence

from repro.core.preferences import Preference
from repro.decompositions.td import TreeDecomposition


class MaxBagSizePreference(Preference):
    """Prefer decompositions whose largest bag is small (treewidth-style).

    The non-strict, max-type fixture: monotone, but a worse child can be
    absorbed by a larger sibling or the parent's own bag into an equal key
    while the structural tie-break regresses — so the exact enumerator
    classes its options by their state, the key itself.
    """

    monotone = True

    def key(self, partial_td: TreeDecomposition) -> int:
        # A bag-less partial decomposition (e.g. the placeholder option of a
        # trivially satisfied block) has no bags to measure.
        return max((len(bag) for bag in partial_td.bags()), default=0)

    def fragment_state(self, bag, child_states: Sequence) -> int:
        return max([len(bag), *child_states])
