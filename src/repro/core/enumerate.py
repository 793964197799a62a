"""Exact lazy any-k ranked enumeration of candidate tree decompositions.

The experiments of Section 7 need more than a single optimal decomposition:
they evaluate the top-10 cheapest CTDs per query, and compare random CTDs
with and without the ConCov constraint.  This module enumerates CompNF CTDs
over a candidate bag set in *exact* preference order: ``enumerate(limit=k)``
returns the true ``k`` best distinct decompositions, however large the
option space is.  (The pre-PR-4 eager beam and its truncation knobs are
gone entirely; ``enumerate_ctds`` has no approximation parameters.)

The enumeration runs over the same blocks as Algorithms 1 and 2, via the
shared :class:`repro.core.options.SolverCore`:

* every block with a component that the enumeration reaches has one
  *option stream* per statically feasible probe ``(candidate, live
  sub-blocks)`` (:meth:`repro.core.blocks.BlockIndex.candidate_probes`,
  memoised per block): the fragments rooted at the candidate, in
  ``(preference key, canonical tie key)`` order;
* a probe stream is produced Lawler-style: a heap of *configurations*
  (one option index per live sub-block) seeded with ``(0, …, 0)``; popping
  the best configuration emits its fragment and pushes the one-step
  *deviations* (one index advanced).  Constraint-rejected fragments are
  skipped but still expanded, so their successors are never lost;
* a probe's child slot does not consume the sub-block's options in the
  sub-block's own key order but in *parent-contribution* order — the
  sub-block's probe streams merged by
  :meth:`repro.core.preferences.Preference.child_rank_key` under the
  parent's bag.  This is what keeps Equation (6) costs exact: two subtrees
  with equal cost but different root bags contribute differently to the
  parent through the parent→child edge term;
* a probe's stream is opened only when it can win: the merged stream
  holds a placeholder per probe at the probe's
  :meth:`~repro.core.preferences.Preference.probe_bound` (tie: the bag's
  :func:`~repro.core.fragments.bag_sort_key`, a strict prefix of every
  option tie of that probe) and opens the stream when the placeholder is
  popped.  A probe without a bound opens eagerly;
* the root block's merged stream (ranked by the fragments' own keys) yields
  the final decompositions, deduplicated by canonical form.

Keys compose bottom-up through the shared fragment memo tables
(:class:`repro.core.options.FragmentEvaluator`) for monotone preferences —
a candidate fragment is never materialised as a :class:`TreeDecomposition`
unless a non-trivial constraint needs to inspect it.

Laziness requires the preference to certify the ``order_monotone`` contract
(see :mod:`repro.core.preferences`).  Preferences that cannot — arbitrary
non-monotone cost callables, shallow cyclicity, unsafe lexicographic
combinations — take the exhaustive path instead: every block's full option
list is built bottom-up (no beam, no caps) and sorted by the same composite
order, which is equally exact, merely not lazy.  Ties are always broken by
:func:`repro.core.fragments.fragment_sort_key` — canonical sorted-vertex
tuples, never ``repr`` — so the ranking is reproducible across processes
and hash seeds.  The brute-force specification this module is
property-tested against is
:func:`repro.core.reference.reference_enumerate_ctds`.
"""

from __future__ import annotations


from heapq import heappop, heappush
from itertools import islice, product
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.hypergraph.hypergraph import Hypergraph, Vertex
from repro.decompositions.td import TreeDecomposition
from repro.core.blocks import Bag
from repro.core.constraints import SubtreeConstraint
from repro.core.fragments import (
    Fragment,
    bag_sort_key,
    fragment_sort_key,
    fragment_to_decomposition,
    make_fragment,
)
from repro.core.options import SolverCore
from repro.core.preferences import Preference
from repro.runtime.budget import Budget, BudgetExceeded, SolveOutcome, completed_outcome

__all__ = ["CTDEnumerator", "enumerate_ctds", "fragment_to_decomposition"]

#: A ranked option: ``(key, tie, state, fragment)``.  ``tie`` is the
#: canonical fragment sort key, so ``(key, tie)`` is a total order.
_Entry = Tuple


class _ProbeStream:
    """One block probe's fragments in exact ``(key, tie)`` order.

    Lawler-style successor enumeration: a configuration assigns each live
    sub-block an index into its merged (parent-contribution ordered) option
    list; the heap pops configurations by the composed fragment's exact
    ``(key, tie)`` and pushes the one-step deviations of whatever it pops.
    The ``order_monotone`` contract guarantees a deviation never composes a
    fragment that sorts before its origin, so emission order is exact.
    """

    def __init__(self, enumerator: "CTDEnumerator", cand_id: int, live_subs):
        self._enumerator = enumerator
        self._bag = enumerator.core.index.candidate_bags[cand_id]
        self._merges = [
            enumerator._merged_stream(sub, self._bag) for sub in live_subs
        ]
        self._heap: List[Tuple] = []
        self._emitted: List[_Entry] = []
        self._seen_configs = set()
        self._push((0,) * len(self._merges))

    def _push(self, config: Tuple[int, ...]) -> None:
        if config in self._seen_configs:
            return
        self._seen_configs.add(config)
        children = []
        for merge, position in zip(self._merges, config):
            entry = merge.get(position)
            if entry is None:
                # This slot's stream is exhausted; every deviation of the
                # config shares the index, so the whole config is dead.
                return
            children.append(entry[3])
        fragment = make_fragment(self._bag, children)
        key, state = self._enumerator.core.evaluator.state_of(fragment)
        heappush(
            self._heap, (key, fragment_sort_key(fragment), config, state, fragment)
        )

    def get(self, i: int) -> Optional[_Entry]:
        """The ``i``-th compliant option, or ``None`` if fewer exist."""
        emitted = self._emitted
        budget = self._enumerator.core.budget
        while len(emitted) <= i and self._heap:
            if budget is not None:
                budget.tick()
            key, tie, config, state, fragment = heappop(self._heap)
            for slot in range(len(config)):
                deviation = (
                    config[:slot] + (config[slot] + 1,) + config[slot + 1 :]
                )
                self._push(deviation)
            if self._enumerator.core.evaluator.compliant(fragment):
                emitted.append((key, tie, state, fragment))
        return emitted[i] if i < len(emitted) else None


class _MergedStream:
    """A block's options across all its probes, in parent-contribution order.

    ``parent_bag`` identifies the consumer: options are ranked by
    ``preference.child_rank_key(parent_bag, state)`` (the fragments' own
    keys when ``parent_bag`` is ``None``, i.e. at the root).  Each probe
    stream is already sorted consistently with any parent's contribution
    order (rank is a strictly monotone function of the key for a fixed root
    bag), so a heap of per-probe cursors yields the exact merged order.

    A probe with a :meth:`~repro.core.preferences.Preference.probe_bound`
    enters the heap as a placeholder ``(bound, (bag_sort_key(bag),), probe,
    -1)`` and its stream is opened only when the placeholder is popped.  The
    bound is at most every option's rank and the placeholder's tie is a
    strict prefix of every option's tie, so the placeholder sorts before all
    of its probe's options and the emission order is exact.
    """

    def __init__(self, enumerator: "CTDEnumerator", block_id: int, parent_bag):
        self._enumerator = enumerator
        self._block_id = block_id
        self._parent_bag = parent_bag
        self._heap: Optional[List[Tuple]] = None
        self._entries: List[_Entry] = []

    def _rank(self, entry: _Entry):
        return self._enumerator.core.preference.child_rank_key(
            self._parent_bag, entry[2]
        )

    def _push(self, probe_idx: int, position: int) -> None:
        """Push the probe's ``position``-th option, if it has one."""
        stream = self._enumerator._probe_stream(self._block_id, probe_idx)
        entry = stream.get(position)
        if entry is not None:
            heappush(self._heap, (self._rank(entry), entry[1], probe_idx, position))

    def _initialise(self) -> None:
        self._heap = []
        enumerator = self._enumerator
        # One work unit per stream opened: its probe list is one (memoised)
        # candidate scan.
        budget = enumerator.core.budget
        if budget is not None:
            budget.tick()
        probe_bound = enumerator.core.preference.probe_bound
        candidate_bags = enumerator.index.candidate_bags
        probes = enumerator.index.candidate_probes(self._block_id)
        for probe_idx, (cand_id, live_subs) in enumerate(probes):
            bag = candidate_bags[cand_id]
            bound = probe_bound(self._parent_bag, bag, [None] * len(live_subs))
            if bound is None:
                self._push(probe_idx, 0)
            else:
                heappush(self._heap, (bound, (bag_sort_key(bag),), probe_idx, -1))

    def get(self, i: int) -> Optional[_Entry]:
        """The ``i``-th option over all probes, or ``None`` if fewer exist."""
        if self._heap is None:
            self._initialise()
        entries = self._entries
        while len(entries) <= i and self._heap:
            _, _, probe_idx, position = heappop(self._heap)
            if position >= 0:
                stream = self._enumerator._probe_stream(self._block_id, probe_idx)
                entries.append(stream.get(position))
            self._push(probe_idx, position + 1)
        return entries[i] if i < len(entries) else None


class CTDEnumerator:
    """Enumerate CompNF CTDs over a candidate bag set, ranked by a preference."""

    def __init__(
        self,
        hypergraph: Hypergraph,
        candidate_bags: Iterable[Bag],
        constraint: Optional[SubtreeConstraint] = None,
        preference: Optional[Preference] = None,
        budget: Optional[Budget] = None,
    ):
        self.core = SolverCore(
            hypergraph,
            candidate_bags,
            constraint,
            preference,
            budget=budget,
        )
        self.budget = budget
        self.hypergraph = hypergraph
        self.constraint = self.core.constraint
        self.preference = self.core.preference
        self.index = self.core.index
        self._lazy = self.preference.monotone and self.preference.order_monotone
        self._probe_streams: Dict[Tuple[int, int], _ProbeStream] = {}
        self._merged_streams: Dict[Tuple[int, Bag], _MergedStream] = {}
        self._exhaustive: Optional[List[List[_Entry]]] = None

    @property
    def outcome(self) -> SolveOutcome:
        """How the last enumeration ended (``complete`` without a budget)."""
        budget = self.budget
        return budget.outcome() if budget is not None else completed_outcome()

    # -- lazy streams ----------------------------------------------------------

    def _probe_stream(self, block_id: int, probe_idx: int) -> _ProbeStream:
        key = (block_id, probe_idx)
        stream = self._probe_streams.get(key)
        if stream is None:
            cand_id, live_subs = self.index.candidate_probes(block_id)[probe_idx]
            stream = _ProbeStream(self, cand_id, live_subs)
            self._probe_streams[key] = stream
        return stream

    def _merged_stream(self, block_id: int, parent_bag) -> _MergedStream:
        key = (block_id, parent_bag)
        stream = self._merged_streams.get(key)
        if stream is None:
            stream = _MergedStream(self, block_id, parent_bag)
            self._merged_streams[key] = stream
        return stream

    # -- exhaustive fallback ---------------------------------------------------

    def _exhaustive_options(self) -> List[List[_Entry]]:
        """Full sorted option tables, bottom-up — exact without laziness.

        Used when the preference cannot certify ``order_monotone``.  Keys
        still compose through the shared fragment memo (or the memoised
        materialisation for non-monotone preferences); nothing is truncated.
        """
        if self._exhaustive is not None:
            return self._exhaustive
        index = self.index
        budget = self.budget
        evaluator = self.core.evaluator
        component_masks = index.component_masks
        candidate_bags = index.candidate_bags
        options: List[List[_Entry]] = [[] for _ in range(index.block_count())]
        for block_id in index.topological_order_ids():
            if not component_masks[block_id]:
                continue
            if budget is not None:
                budget.tick()
            block_options: List[_Entry] = []
            for cand_id, live_subs in index.candidate_probes(block_id):
                child_lists = [options[sub] for sub in live_subs]
                if any(not child_list for child_list in child_lists):
                    continue
                bag = candidate_bags[cand_id]
                for combination in product(*child_lists):
                    if budget is not None:
                        budget.tick()
                    fragment = make_fragment(
                        bag, [entry[3] for entry in combination]
                    )
                    if not evaluator.compliant(fragment):
                        continue
                    key, state = evaluator.state_of(fragment)
                    block_options.append(
                        (key, fragment_sort_key(fragment), state, fragment)
                    )
            block_options.sort(key=lambda entry: (entry[0], entry[1]))
            options[block_id] = block_options
        self._exhaustive = options
        return options

    # -- enumeration -----------------------------------------------------------

    def _root_entries(self, root_id: int) -> Iterator[_Entry]:
        if self._lazy:
            stream = self._merged_stream(root_id, None)
            position = 0
            while True:
                entry = stream.get(position)
                if entry is None:
                    return
                yield entry
                position += 1
        else:
            yield from self._exhaustive_options()[root_id]

    def iter_decompositions(self) -> Iterator[TreeDecomposition]:
        """All distinct CTDs in exact ``(preference, canonical tie)`` order.

        Under a budget the generator is *anytime*: when the budget exhausts
        (or Ctrl-C arrives) it stops cleanly, and everything already
        yielded is an exact prefix of the unbudgeted enumeration order —
        check :attr:`outcome` for how the run ended.
        """
        index = self.index
        budget = self.budget
        root_id = index.block_id(index.root_block)
        assert root_id is not None
        if not index.component_masks[root_id]:
            # Vertex-less hypergraph: the single-empty-bag CTD is the only
            # candidate, and the one decomposition not reachable via probes.
            trivial = self.core.trivial_decomposition()
            if trivial is not None:
                yield trivial
            return
        seen = set()
        try:
            for entry in self._root_entries(root_id):
                decomposition = self.core.evaluator.materialise(entry[3])
                canonical = decomposition.canonical_form()
                if canonical in seen:
                    continue
                seen.add(canonical)
                yield decomposition
        except BudgetExceeded:
            return  # anytime: everything yielded so far is an exact prefix
        except KeyboardInterrupt:
            if budget is None:
                raise
            budget.mark_interrupted()
            return

    def enumerate(self, limit: int = 10) -> List[TreeDecomposition]:
        """The ``limit`` best distinct CTDs (may be fewer if fewer exist)."""
        if limit <= 0:
            return []
        return list(islice(self.iter_decompositions(), limit))


def enumerate_ctds(
    hypergraph: Hypergraph,
    candidate_bags: Iterable[FrozenSet[Vertex]],
    constraint: Optional[SubtreeConstraint] = None,
    preference: Optional[Preference] = None,
    limit: int = 10,
    budget: Optional[Budget] = None,
) -> List[TreeDecomposition]:
    """The exact ``limit`` best CompNF CTDs ranked by ``preference``.

    With a ``budget`` the call may return fewer than ``limit``
    decompositions: what it returns is always an exact prefix of the
    unbudgeted ranking, and ``budget.status`` / ``budget.outcome()`` say
    why it stopped.
    """
    enumerator = CTDEnumerator(
        hypergraph,
        candidate_bags,
        constraint=constraint,
        preference=preference,
        budget=budget,
    )
    return enumerator.enumerate(limit=limit)
