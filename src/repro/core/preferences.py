"""Preference orders (toptds) over partial tree decompositions (Section 6.1).

A *total quasiordering of partial tree decompositions* (toptd) ranks partial
decompositions; the constrained CandidateTD algorithm keeps, per block, a
globally minimal decomposition with respect to the toptd.  We model a toptd
by a key function: ``a ≤ b`` iff ``key(a) ≤ key(b)``, which covers cost
functions (the paper's main use case), shallow-cyclicity preferences and
lexicographic combinations.

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
  ``(bag, cost)`` pair when edge terms need the child's root bag);
* ``state_key(state)`` projects a state to the comparable key, and must agree
  with ``key`` on the materialised decomposition.

Non-monotone preferences keep ``monotone = False`` and are evaluated by
materialising each (memoised) fragment — correct for arbitrary key functions,
just without the incremental fast path.

Order-monotone preferences
--------------------------

The exact lazy any-k enumerator (:mod:`repro.core.enumerate`) streams each
block's options best-first and composes parent options out of ranked child
streams (Lawler-style deviations).  The enumeration order is the composite
``(key, canonical structural tie)``, so laziness is only sound when
replacing a child option with a later-ranked one can never make the parent
sort earlier — *including on ties*.  A preference certifies this with
``order_monotone = True``, which promises, for partial decompositions with
the **same root bag**:

* ``child_rank_key(P, ·)`` is a strictly monotone function of ``state_key``
  for every parent bag ``P``: equal keys get equal ranks, strictly larger
  keys strictly larger ranks, and
* a parent's key depends on each child slot only through the child's
  ``child_rank_key`` under the parent's bag, *strictly* increasing in it:
  equal ranks compose equal parent keys, a strictly larger rank a strictly
  larger parent key.  (Constant keys satisfy this vacuously — no two ranks
  ever differ.)

Strictness is what protects the tie component: under a non-strict (max-type)
key such as :class:`MaxBagSizePreference`, a deviation can raise a child's
key yet be absorbed into an *equal* parent key while the structural
tie-break moves backwards, so parents would be emitted out of order.  Such
preferences — max bag size, shallow cyclicity (whose composition state the
key does not even determine), arbitrary cost callables, lexicographic
combinations with a non-strict component — keep ``order_monotone = False``
and the enumerator falls back to its exhaustive (but still
fragment-memoised) exact path.

``child_rank_key(parent_bag, state)`` defaults to ``state_key(state)``; the
Equation (6) cost overrides it to fold the parent→child edge term in, which
is what makes its per-root child streams parent-sortable.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from repro.hypergraph.hypergraph import Hypergraph
from repro.decompositions.td import TreeDecomposition


class Preference:
    """Base class: a total quasiorder given by a comparable key.

    Subclasses must implement :meth:`key`.  Two optional capability flags
    unlock solver fast paths — each is a *promise* about the key function,
    and claiming one falsely silently produces wrong optima/orders (the
    equivalence property tests are the safety net):

    * ``monotone = True`` additionally requires :meth:`fragment_state` (and
      :meth:`state_key` when the state is not itself the key) —
      Algorithm 2 and the enumerator then compose keys bottom-up without
      re-walking or materialising subtrees;
    * ``order_monotone = True`` (requires ``monotone``) certifies the
      strictness contract below — the any-k enumerator may then stream
      options lazily best-first instead of building full option tables.
    """

    #: Contract (``monotone = True``): for partial decompositions rooted at
    #: bag ``B`` with child subtrees ``T_1..T_n``,
    #: ``key(td) == state_key(fragment_state(B, [state(T_1)..state(T_n)]))``
    #: — the key is fully determined by the root bag and the child *states*,
    #: never by deeper structure.  Keeping ``False`` is always sound: the
    #: solvers fall back to evaluating ``key`` on memoised materialised
    #: decompositions.
    monotone = False

    #: Contract (``order_monotone = True``, requires ``monotone``): for
    #: same-rooted partial decompositions, (a) ``child_rank_key(P, ·)`` is a
    #: strictly monotone function of ``state_key`` for every parent bag
    #: ``P``, and (b) a parent's key depends on each child slot only through
    #: that child's ``child_rank_key`` under the parent's bag, *strictly*
    #: increasing in it (equal ranks ⇒ equal parent keys, larger rank ⇒
    #: strictly larger parent key; constant keys qualify vacuously).
    #: Strictness protects the canonical tie-break: a non-strict (max-type)
    #: key can absorb a worse child into an equal parent key while the tie
    #: regresses, emitting results out of order.  Keeping ``False`` is
    #: always sound — the enumerator uses its exhaustive (still exact,
    #: still memoised) path.
    order_monotone = False

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

    # -- lazy enumeration (only for ``order_monotone = True``) -----------------

    def child_rank_key(self, parent_bag, state):
        """Rank of a child option when streamed below ``parent_bag``.

        The enumerator feeds each child slot's options to its parent in
        increasing ``child_rank_key`` order (``parent_bag is None`` at the
        root).  Defaults to ``state_key(state)``; preferences whose parent
        keys see more than the child's own key override it — the
        Equation (6) cost folds the parent→child edge term in, which is
        what makes equal-cost subtrees with different root bags rank
        correctly.  Subject to the strictness contract on
        ``order_monotone``.
        """
        return self.state_key(state)


class NoPreference(Preference):
    """All decompositions are equally preferred."""

    monotone = True
    # All ranks are equal, so the strictness requirement holds vacuously.
    order_monotone = True

    def key(self, partial_td: TreeDecomposition):
        return 0

    def fragment_state(self, bag, child_states: Sequence):
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
    revisiting the subtree.  The cost is also order monotone: under a parent
    bag ``P`` a child option of state ``(bag, cost)`` contributes exactly
    ``cost + edge_cost(P, bag)``, and the parent's total is the sum of those
    contributions plus terms the children do not touch, so
    :meth:`child_rank_key` folds the edge term in and same-rooted options
    rank consistently (equal subtree costs give equal contributions).
    """

    monotone = True
    order_monotone = True

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


class NodeCountPreference(Preference):
    """Prefer decompositions with fewer nodes (a simple tie-breaker)."""

    monotone = True
    order_monotone = True

    def key(self, partial_td: TreeDecomposition) -> int:
        return partial_td.tree.num_nodes()

    def fragment_state(self, bag, child_states: Sequence) -> int:
        return 1 + sum(child_states)


class MaxBagSizePreference(Preference):
    """Prefer decompositions whose largest bag is small (treewidth-style).

    Not order monotone: the max-type key is not strict — a worse child can
    be absorbed by a larger sibling or the parent's own bag into an equal
    key while the structural tie-break regresses — so the exact enumerator
    uses its exhaustive path for this preference.
    """

    monotone = True

    def key(self, partial_td: TreeDecomposition) -> int:
        # A bag-less partial decomposition (e.g. the placeholder option of a
        # trivially satisfied block) has no bags to measure.
        return max((len(bag) for bag in partial_td.bags()), default=0)

    def fragment_state(self, bag, child_states: Sequence) -> int:
        return max([len(bag), *child_states])


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
        # Strictness composes componentwise: if every component's parent key
        # strictly tracks its rank, the first component whose rank moves
        # decides the tuple.  One non-strict component (e.g. max bag size)
        # poisons the whole combination — it can absorb a rank increase into
        # an equal tuple prefix while later components regress.
        self.order_monotone = all(p.order_monotone for p in self.preferences)

    def key(self, partial_td: TreeDecomposition) -> Tuple:
        return tuple(p.key(partial_td) for p in self.preferences)

    def fragment_state(self, bag, child_states: Sequence) -> Tuple:
        return tuple(
            p.fragment_state(bag, [child[i] for child in child_states])
            for i, p in enumerate(self.preferences)
        )

    def state_key(self, state) -> Tuple:
        return tuple(p.state_key(s) for p, s in zip(self.preferences, state))

    def child_rank_key(self, parent_bag, state) -> Tuple:
        return tuple(
            p.child_rank_key(parent_bag, s)
            for p, s in zip(self.preferences, state)
        )
