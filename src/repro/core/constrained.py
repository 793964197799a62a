"""Algorithm 2: constrained and preference-optimised candidate tree decompositions.

This is the paper's ``(𝒞, ≤)-CandidateTD`` solver: instead of merely checking
whether *some* basis satisfies a block, it keeps, for every block, the basis
whose induced partial decomposition ``Decomp(S, C, X)`` satisfies the subtree
constraint ``𝒞`` and is minimal with respect to the preference order ``≤``.
For tractable, preference-complete pairs ``(𝒞, ≤)`` the algorithm finds a
globally minimal constrained CTD in polynomial time (Theorem 10).  With the
trivial pair it is Algorithm 1 (:mod:`repro.core.ctd`): there is one block
dynamic program, not two.

The blocks are resolved on demand, top-down from the root block:

* a block's statically feasible probes ``(candidate, live sub-blocks)``
  come from :meth:`repro.core.blocks.BlockIndex.candidate_probes`, memoised
  per block, and are examined in candidate order;
* a probe whose live sub-blocks are all resolved and satisfied composes an
  immutable ``(bag, children)`` fragment (:mod:`repro.core.fragments`) from
  their entries; a sub-block not yet resolved is resolved first, and a probe
  with an unsatisfiable sub-block is skipped without resolving the rest, so
  blocks no reachable probe needs are never visited;
* every resolved block keeps its least-key compliant fragment — ties keep
  the first in candidate order — and under
  :class:`~repro.core.preferences.NoPreference`, where every key ties, the
  block stops at its first compliant fragment.  Constraint checks and
  preference keys are evaluated once per distinct fragment
  (:class:`repro.core.options.FragmentEvaluator`);
* once a block has a best fragment, a probe whose
  :meth:`~repro.core.preferences.Preference.probe_bound` — from its bag
  and the keys of its already resolved subs — is ≥ the best key is
  skipped before any more of its sub-blocks are resolved.  It could only
  tie, and a tie never replaces the kept fragment, so the answer is the
  unbounded one.

A sub-block is strictly smaller than the blocks that use it in the order of
:meth:`~repro.core.blocks.BlockIndex.topological_order` (its union or its
component is smaller), so the block dependencies form a DAG and every block
is final the first time a probe reads it: the memoised top-down resolution
is the canonical bottom-up dynamic program, restricted to the blocks the
root needs.  The resolution keeps an explicit stack, so the depth of the
block chain is not bounded by Python's recursion limit.

For preferences that declare themselves monotone
(:class:`repro.core.preferences.Preference.monotone`) keys compose bottom-up
from child states and the partial decomposition is never materialised unless
a non-trivial constraint needs to inspect it; non-monotone preferences fall
back to evaluating the (memoised) materialised fragment.

The seed's round-robin dynamic program is preserved as the executable
specification :func:`repro.core.reference.reference_constrained_ctd`;
``tests/property/test_property_constrained_equivalence.py`` asserts identical
decide answers and optimal keys on random hypergraphs, library shapes and a
workload query under ConCov and the Eq. 6 estimate cost.
"""

from __future__ import annotations

import sys
from typing import FrozenSet, Iterable, List, Optional, Tuple

from repro.hypergraph.hypergraph import Hypergraph, Vertex
from repro.decompositions.td import TreeDecomposition
from repro.core.blocks import Bag, Block
from repro.core.constraints import SubtreeConstraint
from repro.core.fragments import Fragment, fragment_sort_key, make_fragment
from repro.core.options import _REJECTED, SolverCore
from repro.core.preferences import NoPreference, Preference
from repro.runtime.budget import Budget, BudgetExceeded, SolveOutcome, completed_outcome


class ConstrainedCTDSolver:
    """Top-down memoised block DP keeping the ≤-minimal compliant decomposition.

    Governed solving (*anytime semantics*): with a
    :class:`~repro.runtime.Budget` (constructor or ``solve(budget=...)``),
    the resolution ticks once per visited block and once per probe, in
    batches of at most ``min(256, check_interval)`` units.  On exhaustion —
    or Ctrl-C under a budget — every block still being resolved keeps the
    best compliant fragment it has found, so :meth:`solve` returns the best
    root fragment found so far (possibly ``None``, which is then
    inconclusive) and :attr:`outcome` says whether it is the proven optimum
    (``complete``) or a best-effort answer.
    """

    def __init__(
        self,
        hypergraph: Hypergraph,
        candidate_bags: Iterable[Bag],
        constraint: Optional[SubtreeConstraint] = None,
        preference: Optional[Preference] = None,
        budget: Optional[Budget] = None,
    ):
        # The shared core (repro.core.options) carries the filtered bag set,
        # the block index and the per-fragment memo tables that turn the
        # per-probe decomposition rebuilds of the seed DP into dict lookups.
        self.core = SolverCore(
            hypergraph,
            candidate_bags,
            constraint,
            preference,
            budget=budget,
        )
        self.hypergraph = hypergraph
        self.budget = budget
        self.constraint = self.core.constraint
        self.preference = self.core.preference
        self.index = self.core.index
        component_masks = self.index.component_masks
        # Dense per-block state, filled on demand by _resolve.  A block
        # without a component is trivially satisfied (no node, no fragment).
        # Invariant: a non-None fragment entry satisfies the constraint on
        # every subtree.  A block cut short by the budget keeps its best
        # fragment so far but is not marked resolved.
        self._satisfied = bytearray(not mask for mask in component_masks)
        self._resolved = bytearray(self._satisfied)
        self._best_key: List[object] = [None] * len(component_masks)
        self._best_fragment: List[Optional[Fragment]] = [None] * len(component_masks)
        self._root_id = self.index.block_id(self.index.root_block)
        self._started = False
        self._outcome: Optional[SolveOutcome] = None

    def _set_budget(self, budget: Optional[Budget]) -> None:
        if budget is None:
            return
        if self._started:
            raise RuntimeError("budget must be supplied before the solver runs")
        self.budget = budget
        self.core.budget = budget

    # -- Algorithm 2 -----------------------------------------------------------------

    def _run(self, targets: Iterable[int]) -> None:
        """Resolve ``targets`` inside the anytime boundary; set :attr:`outcome`.

        Once the budget is exhausted nothing more is resolved: the entries
        found so far are the anytime answer.
        """
        self._started = True
        budget = self.budget
        if budget is None or not budget.exhausted:
            try:
                self._resolve(targets)
            except BudgetExceeded:
                pass  # anytime: unfinished blocks keep their best so far
            except KeyboardInterrupt:
                if budget is None:
                    raise
                budget.mark_interrupted()
        self._outcome = budget.outcome() if budget is not None else completed_outcome()

    def _resolve(self, targets: Iterable[int]) -> None:
        """Resolve each target block and every block its probes need.

        Iterative depth-first resolution: a frame ``[block id, probes, next
        probe, best key, best fragment]`` descends into the first unresolved
        live sub-block of its current probe and re-examines that probe once
        the sub-block is final.  Raises :class:`BudgetExceeded` when the
        budget exhausts; the ``finally`` clause then commits every open
        frame's best fragment, which is what makes the exhausted solver's
        answer its true best-so-far.
        """
        candidate_bags = self.index.candidate_bags
        candidate_probes = self.index.candidate_probes
        evaluate = self.core.evaluator.evaluate
        resolved = self._resolved
        satisfied = self._satisfied
        best_key = self._best_key
        best_fragment = self._best_fragment
        # Every key ties under NoPreference: the first compliant fragment
        # is the least-key one.
        first_wins = type(self.preference) is NoPreference
        probe_bound = self.preference.probe_bound
        budget = self.budget
        # Ticks are flushed in batches: the per-probe cost is one local
        # increment, and flushing at most ``check_interval`` units per tick
        # keeps the deadline's amortization window intact.
        flush_at = sys.maxsize if budget is None else min(256, budget.check_interval)
        unflushed = 0
        stack: List[list] = []
        try:
            for target in targets:
                if resolved[target]:
                    continue
                pending = target
                while pending >= 0 or stack:
                    if pending >= 0:
                        stack.append([pending, candidate_probes(pending), 0, None, None])
                        unflushed += 1
                        if unflushed >= flush_at:
                            budget.tick(unflushed)
                            unflushed = 0
                    frame = stack[-1]
                    block_id, probes, position, key, fragment = frame
                    count = len(probes)
                    pending = -1
                    while position < count:
                        cand_id, live_subs = probes[position]
                        failed = False
                        for sub in live_subs:
                            if not resolved[sub]:
                                if pending < 0:
                                    pending = sub
                            elif not satisfied[sub]:
                                failed = True
                                break
                        if not failed and fragment is not None:
                            # A probe that cannot beat the best key is
                            # skipped before any more of its subs resolve.
                            bound = probe_bound(
                                None, candidate_bags[cand_id], self._child_keys(live_subs)
                            )
                            failed = bound is not None and bound >= key
                        if failed:
                            pending = -1
                        elif pending >= 0:
                            break  # resolve ``pending``, then re-examine
                        position += 1
                        unflushed += 1
                        if unflushed >= flush_at:
                            budget.tick(unflushed)
                            unflushed = 0
                        if failed:
                            continue
                        candidate = make_fragment(
                            candidate_bags[cand_id],
                            [best_fragment[sub] for sub in live_subs],
                        )
                        evaluation = evaluate(candidate)
                        if evaluation is _REJECTED:
                            continue
                        if fragment is None or evaluation[0] < key:
                            key, fragment = evaluation[0], candidate
                            frame[3], frame[4] = key, fragment
                            if first_wins:
                                break
                    if pending >= 0:
                        frame[2] = position
                        continue
                    stack.pop()
                    best_key[block_id] = key
                    best_fragment[block_id] = fragment
                    satisfied[block_id] = fragment is not None
                    resolved[block_id] = 1
            if unflushed and budget is not None:
                budget.tick(unflushed)
        finally:
            for block_id, _, _, key, fragment in stack:
                if fragment is not None:
                    best_key[block_id] = key
                    best_fragment[block_id] = fragment
                    satisfied[block_id] = 1

    def _child_keys(self, live_subs) -> list:
        """``probe_bound``'s child keys: the resolved subs' best keys, then
        ``None`` for each unresolved sub.

        Integer keys sum exactly in any order; other keys are listed in the
        canonical order their fragments compose in, so a float sum cannot
        round above the composed key.
        """
        resolved = self._resolved
        best_key = self._best_key
        keys = [best_key[sub] for sub in live_subs if resolved[sub]]
        if len(keys) > 1 and type(keys[0]) is not int:
            best_fragment = self._best_fragment
            known = sorted(
                (sub for sub in live_subs if resolved[sub]),
                key=lambda sub: fragment_sort_key(best_fragment[sub]),
            )
            keys = [best_key[sub] for sub in known]
        return keys + [None] * (len(live_subs) - len(keys))

    # -- public API ----------------------------------------------------------------------

    def _root_fragment(self) -> Optional[Fragment]:
        """Resolve the root block; its best fragment (``None`` if unsatisfied)."""
        self._run((self._root_id,))
        return self._best_fragment[self._root_id]

    def decide(self) -> bool:
        """``True`` iff a constraint-compliant CompNF CTD exists."""
        if self._root_fragment() is not None:
            return True
        # A satisfied root block with a component always carries a real
        # basis fragment; the vertex-less hypergraph's root block (∅, ∅) is
        # trivially satisfied and accepts iff the single-empty-bag
        # decomposition is compliant.
        return (
            bool(self._satisfied[self._root_id])
            and self.core.trivial_decomposition() is not None
        )

    def solve(self, budget: Optional[Budget] = None) -> Optional[TreeDecomposition]:
        """Return the ≤-minimal constraint-compliant CTD, or ``None``.

        With an exhausted ``budget`` this degrades to the *best CTD found
        so far* (any returned decomposition is always compliant and valid;
        only its optimality and a ``None`` answer become inconclusive) —
        check :attr:`outcome` to tell the cases apart.
        """
        self._set_budget(budget)
        fragment = self._root_fragment()
        if fragment is not None:
            # Compliant by construction: every accepted fragment passed
            # ``holds`` on itself and is built from accepted (hence
            # compliant) children, which is ``holds_recursively`` unrolled.
            return self.core.evaluator.materialise(fragment)
        if self._satisfied[self._root_id]:
            return self.core.trivial_decomposition()
        return None

    def solve_with_outcome(
        self, budget: Optional[Budget] = None
    ) -> Tuple[Optional[TreeDecomposition], SolveOutcome]:
        """``(best decomposition or None, outcome)`` — the governed entry point."""
        decomposition = self.solve(budget=budget)
        return decomposition, self.outcome

    @property
    def outcome(self) -> SolveOutcome:
        """How the resolution ended; ``complete`` unless a budget cut it short."""
        if self._outcome is None:
            self._root_fragment()
        assert self._outcome is not None
        return self._outcome

    def optimal_key(self):
        """The preference key of the optimal compliant CTD (``None`` if infeasible)."""
        if self._root_fragment() is not None:
            return self._best_key[self._root_id]
        decomposition = self.solve()
        return None if decomposition is None else self.preference.key(decomposition)

    def satisfied_blocks(self) -> List[Block]:
        """The blocks satisfied by a compliant partial decomposition.

        Resolves every block, not only those the root needs.
        """
        self._run(range(self.index.block_count()))
        return [
            self.index.block_at(block_id)
            for block_id in range(self.index.block_count())
            if self._satisfied[block_id]
        ]

    def _block_fragment(self, block: Block) -> Tuple[bool, Optional[Fragment]]:
        """Resolve ``block``: ``(satisfied, best fragment)``."""
        block_id = self.index.block_id(block)
        if block_id is None:
            return False, None
        self._run((block_id,))
        return bool(self._satisfied[block_id]), self._best_fragment[block_id]

    def basis_of(self, block: Block) -> Optional[Bag]:
        """The best basis bag of a block (``∅`` for trivially satisfied blocks)."""
        satisfied, fragment = self._block_fragment(block)
        if fragment is not None:
            return fragment[0]
        return frozenset() if satisfied else None

    def partial_decomposition(self, block: Block) -> Optional[TreeDecomposition]:
        """``Decomp(S, C, X)`` for the block's best basis, or ``None``.

        The block head (the parent's bag) is not included: subtree
        constraints and preferences are defined over the partial
        decompositions induced by subtrees, and the parent's own bag is
        accounted for when the parent's block is processed.
        """
        fragment = self._block_fragment(block)[1]
        if fragment is None:
            return None
        return self.core.evaluator.materialise(fragment)


def constrained_candidate_td(
    hypergraph: Hypergraph,
    candidate_bags: Iterable[FrozenSet[Vertex]],
    constraint: Optional[SubtreeConstraint] = None,
    preference: Optional[Preference] = None,
    budget: Optional[Budget] = None,
) -> Optional[TreeDecomposition]:
    """Solve the ``(𝒞, ≤)``-CandidateTD problem (Algorithm 2)."""
    solver = ConstrainedCTDSolver(
        hypergraph,
        candidate_bags,
        constraint,
        preference,
        budget=budget,
    )
    return solver.solve()
