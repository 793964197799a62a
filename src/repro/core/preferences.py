"""Preference orders (toptds) over partial tree decompositions (Section 6.1).

A *total quasiordering of partial tree decompositions* (toptd) ranks partial
decompositions; the constrained CandidateTD algorithm keeps, per block, a
globally minimal decomposition with respect to the toptd.  We model a toptd
by a key function: ``a ≤ b`` iff ``key(a) ≤ key(b)``, which covers cost
functions (the paper's main use case), shallow-cyclicity preferences and
lexicographic combinations.

A solve names its preference in its :class:`~repro.core.solve.SolveRequest`:
:func:`repro.core.solve.preference_object` builds ``"nodecount"`` and
``"shallowcyc"`` (the preference-complete partner of ``"shallowcyc:<d>"``,
Example 5), and :func:`repro.db.cost.make_cost_preference` the data-ranked
``"estimates"`` / ``"cardinalities"``.  :class:`LexicographicPreference` has
no request name; it is the tuple-keyed preference the probe-bound contract
is stated for.

Monotone preferences
--------------------

The paper's strongly monotone cost functions (Section 6.1) share a structural
property the block DP of Algorithm 2 exploits: the key of a partial
decomposition is determined by its root bag and the keys of the child
subtrees, so keys compose bottom-up without re-walking the subtree.  Such a
preference sets ``monotone = True`` and implements :meth:`fragment_state` /
:meth:`state_key`:

* ``fragment_state(bag, child_states)`` folds the root bag and the already
  computed child states into the state of the combined partial decomposition
  (states are opaque to the solver — a scalar for simple preferences, a
  ``(bag, cost)`` pair when edge terms need the child's root bag, Equations
  (7)–(9)'s ``(cost, ReducedSz, reducing variables)`` in
  :class:`repro.db.cost.CardinalityPreference`);
* ``state_key(state)`` projects a state to the comparable key, and must agree
  with ``key`` on the materialised decomposition.

Non-monotone preferences keep ``monotone = False`` and are evaluated by
materialising each (memoised) fragment — correct for arbitrary key functions,
just without the incremental fast path.

Interface classes
-----------------

The exact lazy any-k enumerator (:mod:`repro.core.enumerate`) composes
parent options out of ranked child streams by Lawler-style deviations in
``(key, canonical structural tie)`` order, so replacing a child option with
a later-ranked one must never make the parent sort earlier, *ties
included*.  :meth:`Preference.interface` ``(component, state)`` is the
class of an option of block ``(S, C)``: what its ancestors can read of it
beyond its rank.  The enumerator deviates only inside one combination of
the live subs' classes, and a preference promises, within one class:

* for every parent bag ``P``, ``child_rank_key(P, ·)`` is a strictly
  monotone function of ``state_key`` among options with the same root bag;
* a parent's key depends on a child slot only through the child's
  ``child_rank_key`` under ``P``, *strictly* increasing in it (a key that
  is constant on a combination qualifies vacuously);
* a parent's class is a function of its bag and its children's classes.

Strictness protects the tie: a max-type key, such as the largest bag size,
can absorb a worse child into an equal parent key while the tie moves
backwards, so such a key is classed by its state.  The classes are:
``interface = None``, one class per block, where parents read only a
child's rank (no preference, the node count, Equation (6)); the state
itself, the default (shallow cyclicity, max-type keys); the option itself
for a preference that is not monotone, whose state is the fragment; and
``(ReducedSz, reducing variables − C)`` for the Equation (7)–(9) fold
(:class:`repro.db.cost.CardinalityPreference`).

``child_rank_key(parent_bag, state)`` defaults to ``state_key(state)``; the
Equation (6) cost overrides it to fold the parent→child edge term in, which
is what makes its per-root child streams parent-sortable.

Probe bounds
------------

Algorithm 2 and the lazy enumerator are best-first searches over probes
``(bag, live sub-blocks)``.  :meth:`Preference.probe_bound` lets them skip
or defer a probe before resolving its sub-blocks: a lower bound on
``child_rank_key(parent_bag, state)`` of *every* fragment rooted at ``bag``
(``parent_bag is None`` bounds the fragment's own key).  ``child_keys`` has
one entry per live sub-block — its least key if the caller knows it, else
``None`` — and the known keys come first.  Unless they are integers (whose
sums do not depend on the order), they come in the canonical child order in
which :meth:`fragment_state` would fold them, so a bound that folds them left
to right over non-negative floats cannot round above the composed key.

* The bound must be *sound*: never above the key (or rank) of a fragment
  whose children have at least the given keys.  An unsound bound silently
  loses optima — Algorithm 2 skips a probe whose bound is ≥ the block's best
  key, and the enumerator opens a probe's stream only when a placeholder at
  the bound is the least entry of its merged heap.
* It must be comparable with the keys: a tuple for lexicographic keys, never
  ``-inf`` (which does not compare with tuples).  ``None``, the default,
  means "no bound": the probe is examined and opened as if it could win.

The bounds here are ``0`` (:class:`NoPreference`), ``1 + Σ(key, or 1 for an
unknown sub)`` (:class:`NodeCountPreference`), ``node_cost(bag) + Σ known keys
(+ edge_cost(parent_bag, bag))`` (:class:`MonotoneCostPreference`, whose node
and edge costs must be ≥ 0; the Equation (7)–(9) fold's bound has no edge
term), and the tuple of the component bounds
(:class:`LexicographicPreference`, ``None`` if any component has none).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.hypergraph.hypergraph import Hypergraph
from repro.decompositions.td import TreeDecomposition


class Preference:
    """Base class: a total quasiorder given by a comparable key.

    Subclasses must implement :meth:`key`.  ``monotone = True`` is a
    *promise* that unlocks the solvers' fast path (claiming it falsely
    silently produces wrong optima/orders; the equivalence property tests
    are the safety net): with :meth:`fragment_state` (and :meth:`state_key`
    when the state is not itself the key), Algorithm 2 and the enumerator
    compose keys bottom-up without re-walking or materialising subtrees.
    :meth:`interface` and :meth:`probe_bound` are the module docstring's
    "Interface classes" and "Probe bounds".
    """

    #: Contract (``monotone = True``): for partial decompositions rooted at
    #: bag ``B`` with child subtrees ``T_1..T_n``,
    #: ``key(td) == state_key(fragment_state(B, [state(T_1)..state(T_n)]))``
    #: — the key is fully determined by the root bag and the child *states*,
    #: never by deeper structure.  Keeping ``False`` is always sound: the
    #: solvers fall back to evaluating ``key`` on memoised materialised
    #: decompositions.
    monotone = False

    def key(self, partial_td: TreeDecomposition):
        """The comparable key of a (partial) decomposition; lower is better.

        Keys of one preference must be mutually comparable (the solvers
        sort and heap-merge them); ties are broken by the solver's
        canonical structural key, never by ``repr`` or id.
        """
        raise NotImplementedError

    def is_strictly_better(self, a: TreeDecomposition, b: TreeDecomposition) -> bool:
        """``a < b`` in the quasiorder."""
        return self.key(a) < self.key(b)

    # -- monotone composition (only for ``monotone = True``) -------------------

    def fragment_state(self, bag, child_states: Sequence):
        """State of the partial decomposition with root ``bag`` over the children.

        States are opaque to the solver (a scalar for simple preferences, a
        ``(bag, cost)`` pair when parent→child edge terms need the child's
        root bag) and are memoised per fragment; together with
        :meth:`state_key` this must reproduce :meth:`key` exactly (see the
        ``monotone`` contract).  Only called when ``monotone`` is true.
        """
        raise NotImplementedError(f"{type(self).__name__} is not monotone")

    def state_key(self, state):
        """Project a composed state to its comparable key.

        Defaults to the identity (state *is* the key); override when
        :meth:`fragment_state` must carry more than the key (e.g. the root
        bag for edge costs, or composition data the key alone cannot
        provide, as in :class:`ShallowCyclicityPreference`).
        """
        return state

    # -- lazy enumeration (see "Interface classes" above) ----------------------

    def interface(self, component, state):
        """The class of an option of block ``(S, component)``: hashable, ``==``.

        Defaults to the state itself (the option itself when not monotone);
        ``interface = None`` puts every option of a block in one class.
        """
        return state

    def child_rank_key(self, parent_bag, state):
        """Rank of a child option when streamed below ``parent_bag``.

        The enumerator feeds each child slot's options of one class to its
        parent in increasing ``child_rank_key`` order (``parent_bag is
        None`` at the root).  Defaults to ``state_key(state)``; preferences
        whose parent keys see more than the child's own key override it —
        the Equation (6) cost folds the parent→child edge term in, which is
        what makes equal-cost subtrees with different root bags rank
        correctly.  Subject to the strictness contract above.
        """
        return self.state_key(state)

    # -- probe bounds (optional; see "Probe bounds" above) ---------------------

    def probe_bound(self, parent_bag, bag, child_keys: Sequence):
        """A lower bound on ``child_rank_key(parent_bag, ·)`` at root ``bag``.

        Bounds every fragment rooted at ``bag`` whose live sub-blocks have
        least keys ``child_keys`` (``None`` where unknown); with
        ``parent_bag is None`` it bounds the fragment's own key.  Returns
        ``None`` — no bound — by default.
        """
        return None


class NoPreference(Preference):
    """All decompositions are equally preferred."""

    monotone = True
    # All keys are equal, so the strictness requirement holds vacuously.
    interface = None

    def key(self, partial_td: TreeDecomposition):
        return 0

    def fragment_state(self, bag, child_states: Sequence):
        return 0

    def probe_bound(self, parent_bag, bag, child_keys: Sequence) -> int:
        return 0


class CostPreference(Preference):
    """Order partial decompositions by an arbitrary cost function.

    The cost function receives the partial tree decomposition and returns a
    number; lower is better.  The paper's evaluation uses the two cost
    functions of Appendix C.2 (see :mod:`repro.db.cost`).  An arbitrary
    callable cannot be decomposed, so this class is evaluated on materialised
    decompositions; cost functions of the Equation (6) shape (per-node costs
    plus parent/child edge terms) should use :class:`MonotoneCostPreference`
    to unlock Algorithm 2's incremental fast path.
    """

    def __init__(self, cost_function: Callable[[TreeDecomposition], float]):
        self.cost_function = cost_function

    def key(self, partial_td: TreeDecomposition) -> float:
        return self.cost_function(partial_td)


class MonotoneCostPreference(CostPreference):
    """A strongly monotone cost: node costs plus parent→child edge costs.

    ``cost(T_u) = node_cost(B(u)) + Σ_c [cost(T_c) + edge_cost(B(u), B(c))]``
    — exactly the recursive shape of the paper's Equation (6), so the key of
    a fragment composes from its children's ``(bag, cost)`` states without
    revisiting the subtree.  One interface class suffices: under a parent
    bag ``P`` a child option of state ``(bag, cost)`` contributes exactly
    ``cost + edge_cost(P, bag)``, and the parent's total is the sum of those
    contributions plus terms the children do not touch, so
    :meth:`child_rank_key` folds the edge term in and same-rooted options
    rank consistently (equal subtree costs give equal contributions).

    Contract: ``node_cost`` and ``edge_cost`` are ≥ 0.  :meth:`probe_bound`
    relies on it — a fragment costs at least its root's node cost plus its
    known children's costs.  The Equation (6) estimate cost meets it: Eq. 5
    plan estimates are ≥ 0 and the semijoin term is clamped to ≥ 1.
    """

    monotone = True
    interface = None

    def __init__(
        self,
        node_cost: Callable[[frozenset], float],
        edge_cost: Callable[[frozenset, frozenset], float],
    ):
        self.node_cost = node_cost
        self.edge_cost = edge_cost
        super().__init__(self._decomposition_cost)

    def _decomposition_cost(self, partial_td: TreeDecomposition) -> float:
        def walk(node) -> float:
            bag = partial_td.bag(node)
            total = self.node_cost(bag)
            for child in node.children:
                total += walk(child)
                total += self.edge_cost(bag, partial_td.bag(child))
            return total

        return walk(partial_td.tree.root)

    def fragment_state(self, bag, child_states: Sequence) -> Tuple:
        total = self.node_cost(bag)
        for child_bag, child_cost in child_states:
            total += child_cost
            total += self.edge_cost(bag, child_bag)
        return (bag, total)

    def state_key(self, state) -> float:
        return state[1]

    def child_rank_key(self, parent_bag, state) -> float:
        child_bag, child_cost = state
        if parent_bag is None:
            return child_cost
        return child_cost + self.edge_cost(parent_bag, child_bag)

    def probe_bound(self, parent_bag, bag, child_keys: Sequence) -> float:
        # Left to right like fragment_state: with non-negative terms each
        # partial sum rounds no higher than the composed one.
        total = self.node_cost(bag)
        for child_key in child_keys:
            if child_key is not None:
                total += child_key
        if parent_bag is None:
            return total
        return total + self.edge_cost(parent_bag, bag)


class NodeCountPreference(Preference):
    """Prefer decompositions with fewer nodes (a simple tie-breaker)."""

    monotone = True
    interface = None

    def key(self, partial_td: TreeDecomposition) -> int:
        return partial_td.tree.num_nodes()

    def fragment_state(self, bag, child_states: Sequence) -> int:
        return 1 + sum(child_states)

    def probe_bound(self, parent_bag, bag, child_keys: Sequence) -> int:
        return 1 + sum(1 if key is None else key for key in child_keys)


class ShallowCyclicityPreference(Preference):
    """Prefer decompositions of lower cyclicity depth (Example 5).

    This toptd is preference complete for ``ShallowCyc_d``: if any CTD of the
    hypergraph has cyclicity depth ≤ d then every globally minimal CTD under
    this order does, because all globally minimal CTDs share the least
    achievable cyclicity depth.
    """

    monotone = True

    def __init__(self, hypergraph: Hypergraph):
        from repro.core.constraints import ShallowCyclicityConstraint

        self._measure = ShallowCyclicityConstraint(hypergraph, depth=0)

    def key(self, partial_td: TreeDecomposition) -> int:
        return self._measure.cyclicity_depth(partial_td)

    # The composed state is the depth of the deepest bag *not* covered by a
    # single edge, or ``None`` when every bag is — ``cyclicity_depth``
    # reports 0 in both the "root is the deepest offender" and the "no
    # offender at all" case, so the key alone would not compose.
    def fragment_state(self, bag, child_states: Sequence):
        deepest = None
        for child_state in child_states:
            if child_state is not None and (deepest is None or child_state + 1 > deepest):
                deepest = child_state + 1
        if deepest is None and not self._measure.single_edge_coverable(bag):
            deepest = 0
        return deepest

    def state_key(self, state) -> int:
        return 0 if state is None else state


class LexicographicPreference(Preference):
    """Combine several preferences lexicographically (first is most important)."""

    def __init__(self, preferences: Sequence[Preference]):
        self.preferences = list(preferences)
        self.monotone = all(p.monotone for p in self.preferences)
        if all(p.interface is None for p in self.preferences):
            self.interface = None

    def key(self, partial_td: TreeDecomposition) -> Tuple:
        return tuple(p.key(partial_td) for p in self.preferences)

    def fragment_state(self, bag, child_states: Sequence) -> Tuple:
        return tuple(
            p.fragment_state(bag, [child[i] for child in child_states])
            for i, p in enumerate(self.preferences)
        )

    def state_key(self, state) -> Tuple:
        return tuple(p.state_key(s) for p, s in zip(self.preferences, state))

    def interface(self, component, state):
        # Strictness composes componentwise: inside a combination of the
        # component classes, the first component whose rank moves decides.
        if not self.monotone:
            return state
        return tuple(
            p.interface and p.interface(component, s)
            for p, s in zip(self.preferences, state)
        )

    def child_rank_key(self, parent_bag, state) -> Tuple:
        return tuple(
            p.child_rank_key(parent_bag, s)
            for p, s in zip(self.preferences, state)
        )

    def probe_bound(self, parent_bag, bag, child_keys: Sequence) -> Optional[Tuple]:
        # Componentwise ≤ implies lexicographic ≤, so the tuple of sound
        # component bounds is sound.
        bounds = []
        for i, p in enumerate(self.preferences):
            bound = p.probe_bound(
                parent_bag, bag, [None if key is None else key[i] for key in child_keys]
            )
            if bound is None:
                return None
            bounds.append(bound)
        return tuple(bounds)
