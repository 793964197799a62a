"""Shared solver core of the CandidateTD family (Algorithms 1, 2 and any-k).

Algorithm 2 (:mod:`repro.core.constrained`, with Algorithm 1 as its trivial
``(𝒞, ≤)`` case in :mod:`repro.core.ctd`) and the exact ranked enumerator
(:mod:`repro.core.enumerate`) run over the same blocks: filter the
candidate bags through the constraint, index the blocks
(:class:`repro.core.blocks.BlockIndex`, whose memoised
:meth:`~repro.core.blocks.BlockIndex.candidate_probes` lists the
statically feasible ``(candidate, live sub-blocks)`` probes of each block
either reaches), and evaluate immutable ``(bag, children)`` fragments
(:mod:`repro.core.fragments`) against the constraint and the preference.
This module holds that shared machinery so the two differ only in their
control flow:

* :class:`FragmentEvaluator` memoises, per distinct fragment, the
  materialised :class:`TreeDecomposition`, the constraint verdict and the
  preference ``(key, state)`` — with the monotone bottom-up key composition
  of :class:`repro.core.preferences.Preference` as the fast path;
* :class:`SolverCore` owns the filtered candidate set, the block index, the
  evaluator and the vertex-less hypergraph's trivial single-empty-bag
  decomposition.

The per-fragment memo tables rely on one invariant, shared by both
consumers: *a fragment is only ever built from constraint-compliant child
fragments*, so compliance of the whole fragment reduces to ``𝒞.holds`` on
the fragment itself and a monotone preference key composes from the memoised
child states.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.hypergraph.hypergraph import Hypergraph
from repro.decompositions.td import TreeDecomposition
from repro.decompositions.tree import RootedTree
from repro.core.blocks import Bag, BlockIndex
from repro.core.constraints import NoConstraint, SubtreeConstraint
from repro.core.fragments import Fragment, fragment_to_decomposition
from repro.core.preferences import NoPreference, Preference
from repro.runtime.budget import Budget

#: Marks a fragment rejected by the constraint in the per-fragment memo.
_REJECTED = object()


class FragmentEvaluator:
    """Memoised constraint/preference evaluation of decomposition fragments.

    All tables are keyed by the fragment value itself; fragments are
    canonical (children deterministically sorted), so structurally equal
    partial decompositions share one entry no matter which solver, probe or
    enumeration path built them.
    """

    def __init__(
        self,
        hypergraph: Hypergraph,
        constraint: SubtreeConstraint,
        preference: Preference,
    ):
        self.hypergraph = hypergraph
        self.constraint = constraint
        self.preference = preference
        self._td: Dict[Fragment, TreeDecomposition] = {}
        self._compliant: Dict[Fragment, bool] = {}
        # fragment -> (key, state); see the invariant in the module docstring.
        self._state: Dict[Fragment, Tuple] = {}

    def materialise(self, fragment: Fragment) -> TreeDecomposition:
        """The fragment as a :class:`TreeDecomposition` (memoised)."""
        decomposition = self._td.get(fragment)
        if decomposition is None:
            decomposition = fragment_to_decomposition(self.hypergraph, fragment)
            self._td[fragment] = decomposition
        return decomposition

    def compliant(self, fragment: Fragment) -> bool:
        """``𝒞.holds`` on the fragment itself (children compliant by invariant)."""
        if self.constraint.trivial:
            return True
        verdict = self._compliant.get(fragment)
        if verdict is None:
            verdict = self.constraint.holds(self.materialise(fragment))
            self._compliant[fragment] = verdict
        return verdict

    def state_of(self, fragment: Fragment) -> Tuple:
        """``(key, state)`` of a fragment, independent of the constraint.

        Monotone preferences compose the state from the children's memoised
        states without materialising the fragment; the children's states are
        always present because every consumer evaluates fragments bottom-up.
        """
        cached = self._state.get(fragment)
        if cached is not None:
            return cached
        preference = self.preference
        if preference.monotone:
            bag, children = fragment
            child_states = [self._state[child][1] for child in children]
            state = preference.fragment_state(bag, child_states)
            result = (preference.state_key(state), state)
        else:
            result = (preference.key(self.materialise(fragment)), None)
        self._state[fragment] = result
        return result

    def evaluate(self, fragment: Fragment):
        """``(key, state)`` of a compliant fragment, or ``_REJECTED``.

        The constraint is consulted first so non-monotone preference keys are
        never computed for fragments the constraint discards.
        """
        if not self.compliant(fragment):
            return _REJECTED
        return self.state_of(fragment)


class SolverCore:
    """The common preamble of the CandidateTD solvers."""

    def __init__(
        self,
        hypergraph: Hypergraph,
        candidate_bags: Iterable[Bag],
        constraint: Optional[SubtreeConstraint] = None,
        preference: Optional[Preference] = None,
        budget: Optional[Budget] = None,
    ):
        self.hypergraph = hypergraph
        self.budget = budget
        self.constraint = constraint if constraint is not None else NoConstraint()
        self.preference = preference if preference is not None else NoPreference()
        filtered = self.constraint.filter_bags(
            {frozenset(bag) for bag in candidate_bags if bag}
        )
        self.index = BlockIndex(hypergraph, filtered)
        self.evaluator = FragmentEvaluator(
            hypergraph, self.constraint, self.preference
        )

    def trivial_decomposition(self) -> Optional[TreeDecomposition]:
        """The vertex-less hypergraph's single-empty-bag CTD, if compliant.

        This decomposition never goes through a probe, so it is the one
        place the constraint must be consulted outside the fragment memo.
        """
        tree = RootedTree()
        tree.new_node(None, bag=frozenset())
        decomposition = TreeDecomposition(self.hypergraph, tree)
        if not self.constraint.holds_recursively(decomposition):
            return None
        return decomposition
