"""Exact lazy any-k ranked enumeration of candidate tree decompositions.

The experiments of Section 7 need more than a single optimal decomposition:
they evaluate the top-10 cheapest CTDs per query, and compare random CTDs
with and without the ConCov constraint.  This module enumerates CompNF CTDs
over a candidate bag set in *exact* preference order: ``enumerate(limit=k)``
returns the true ``k`` best distinct decompositions, however large the
option space is.  (The pre-PR-4 eager beam and its truncation knobs are
gone entirely; ``enumerate_ctds`` has no approximation parameters.)

The enumeration runs over the same blocks as Algorithms 1 and 2, via the
shared :class:`repro.core.options.SolverCore`, and splits each block's
options by *interface class* — what an ancestor can read of an option
beyond its rank (:meth:`repro.core.preferences.Preference.interface`, whose
contract is in :mod:`repro.core.preferences`).  Grouping partial answers by
what they share with their parent follows Tziavelis et al., "Optimal
Algorithms for Ranked Enumeration of Answers to Full Conjunctive Queries"
(PVLDB 2020).

* every block with a component that the enumeration reaches has one
  *option stream* per statically feasible probe ``(candidate, live
  sub-blocks)`` (:meth:`repro.core.blocks.BlockIndex.candidate_probes`,
  memoised per block) and combination of its live sub-blocks' classes:
  the fragments rooted at the candidate, in ``(preference key, canonical
  tie key)`` order.  With ``interface = None`` each probe is one
  combination;
* a combination's stream is produced Lawler-style: a heap of
  *configurations* (one option index per live sub-block) seeded with
  ``(0, …, 0)``; popping the best configuration emits its fragment and
  pushes the one-step *deviations* (one index advanced).
  Constraint-rejected fragments are skipped but still expanded, so their
  successors are never lost;
* a child slot consumes the sub-block's options of one class in
  *parent-contribution* order — the sub-block's streams of that class
  merged by :meth:`repro.core.preferences.Preference.child_rank_key` under
  the parent's bag.  This is what keeps Equation (6) costs exact: two
  subtrees with equal cost but different root bags contribute differently
  to the parent through the parent→child edge term;
* a combination's stream is opened only when it can win: the merged
  stream holds a placeholder per combination (tie: the bag's
  :func:`~repro.core.fragments.bag_sort_key`, a strict prefix of every
  option tie) and opens the stream when it is popped.  With one class the
  placeholder sits at the probe's
  :meth:`~repro.core.preferences.Preference.probe_bound`; with several, a
  block's classes are known bottom-up before its streams open, each with
  its least option, and a combination's placeholder sits at the rank of
  its least option: its bag over its sub classes' least options;
* the root block's merged stream (ranked by the fragments' own keys, over
  every class) yields the final decompositions, deduplicated by canonical
  form.

Keys compose bottom-up through the shared fragment memo tables
(:class:`repro.core.options.FragmentEvaluator`) for monotone preferences —
a candidate fragment is never materialised as a :class:`TreeDecomposition`
unless a non-trivial constraint needs to inspect it.  A preference that is
not monotone is classed by the option itself, so its streams run the full
product of options, exact and memoised.  Ties are always broken by
:func:`repro.core.fragments.fragment_sort_key` — canonical sorted-vertex
tuples, never ``repr`` — so the ranking is reproducible across processes
and hash seeds.  The brute-force specification this module is
property-tested against is
:func:`repro.core.reference.reference_enumerate_ctds`.
"""

from __future__ import annotations


from heapq import heappop, heappush
from itertools import count, islice, product, takewhile
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
from repro.runtime.budget import Budget, BudgetExceeded

__all__ = ["CTDEnumerator", "enumerate_ctds", "fragment_to_decomposition"]

#: A ranked option: ``(key, tie, state, fragment)``.  ``tie`` is the
#: canonical fragment sort key, so ``(key, tie)`` is a total order.
_Entry = Tuple


class _ProbeStream:
    """One probe's options over one combination of its live subs' classes.

    Lawler-style successor enumeration in exact ``(key, tie)`` order: a
    configuration assigns each live sub-block an index into its merged
    stream of one class; the heap pops configurations by the composed
    fragment's ``(key, tie)`` and pushes the one-step deviations of
    whatever it pops.  Inside one combination a parent's key strictly
    tracks each child's rank, so a deviation never sorts before its origin.
    """

    def __init__(self, enumerator: "CTDEnumerator", cand_id: int, live_subs, classes):
        self._enumerator = enumerator
        self._bag = enumerator.core.index.candidate_bags[cand_id]
        self._merges = [
            enumerator._merged_stream(sub, self._bag, cls)
            for sub, cls in zip(live_subs, classes)
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
    """A block's options of one interface class, in parent-contribution order.

    ``parent_bag`` identifies the consumer: options are ranked by
    ``preference.child_rank_key(parent_bag, state)`` (the fragments' own
    keys at the root, whose stream merges every class).  Each combination's
    stream is sorted consistently with that rank (a strictly monotone
    function of the key for a fixed root bag), so a heap of cursors yields
    the exact merged order.  A combination enters the heap as a placeholder
    ``(bound, (bag_sort_key(bag),), member, -1)`` and is opened when it is
    popped.  ``bound`` — the rank of its least option, else its
    :meth:`~repro.core.preferences.Preference.probe_bound`, else none and
    opened at once — is at most every option's rank, and the tie is a
    strict prefix of every option's tie.
    """

    def __init__(self, enumerator: "CTDEnumerator", block_id: int, parent_bag, cls):
        self._enumerator = enumerator
        self._block_id = block_id
        self._parent_bag = parent_bag
        self._class = cls
        self._members: List[Tuple] = []  # the combinations, as _combinations lists them
        self._heap: Optional[List[Tuple]] = None
        self._entries: List[_Entry] = []

    def _push(self, member: int, position: int) -> None:
        """Push the member combination's ``position``-th option, if it has one."""
        probe_idx, classes, _ = self._members[member]
        stream = self._enumerator._probe_stream(self._block_id, probe_idx, classes)
        entry = stream.get(position)
        if entry is not None:
            rank = self._enumerator._rank(self._parent_bag, entry[0], entry[2])
            heappush(self._heap, (rank, entry[1], member, position))

    def _initialise(self) -> None:
        self._heap = []
        enumerator = self._enumerator
        # One work unit per stream opened: its probe list is one (memoised)
        # candidate scan.
        budget = enumerator.core.budget
        if budget is not None:
            budget.tick()
        probe_bound = enumerator.preference.probe_bound
        candidate_bags = enumerator.index.candidate_bags
        probes = enumerator.index.candidate_probes(self._block_id)
        combos = enumerator._combinations(self._block_id)
        if self._parent_bag is None:
            self._members = [combo for members in combos.values() for combo in members]
        else:
            self._members = combos.get(self._class, [])
        for member, (probe_idx, classes, least) in enumerate(self._members):
            bag = candidate_bags[probes[probe_idx][0]]
            if least is None:
                bound = probe_bound(self._parent_bag, bag, [None] * len(classes))
            else:
                bound = enumerator._rank(self._parent_bag, *least)
            if bound is None:
                self._push(member, 0)
            else:
                heappush(self._heap, (bound, (bag_sort_key(bag),), member, -1))

    def get(self, i: int) -> Optional[_Entry]:
        """The ``i``-th option of the class, or ``None`` if fewer exist."""
        if self._heap is None:
            self._initialise()
        entries = self._entries
        while len(entries) <= i and self._heap:
            _, _, member, position = heappop(self._heap)
            if position >= 0:
                probe_idx, classes, _ = self._members[member]
                stream = self._enumerator._probe_stream(self._block_id, probe_idx, classes)
                entries.append(stream.get(position))
            self._push(member, position + 1)
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
        self._probe_streams: Dict[Tuple, _ProbeStream] = {}
        self._merged_streams: Dict[Tuple, _MergedStream] = {}
        # block id -> its combinations; -> {class: (rank, least fragment)}.
        self._combos: Dict[int, Dict] = {}
        self._least: Dict[int, Dict] = {}
        self._products: Dict[Tuple, List[Tuple]] = {}

    def _rank(self, parent_bag, key, state):
        if not self.preference.monotone:
            return key  # the state is the option itself
        return self.preference.child_rank_key(parent_bag, state)

    def _combinations(self, block_id: int) -> Dict:
        """Class -> ``(probe index, live subs' classes, least)`` per combination.

        Without an interface a block has one class, ``None``, and each probe
        is one combination with no ``least``.  Otherwise a combination's
        least option is its bag over its sub classes' least-ranked options
        under that bag (its key strictly tracks each child's rank), and
        ``least`` is that option's ``(key, state)``; its interface is the
        combination's class.
        """
        combos = self._combos.get(block_id)
        if combos is not None:
            return combos
        probes = self.index.candidate_probes(block_id)
        interface = self.preference.interface
        if interface is None:
            combos = {
                None: [
                    (probe_idx, (None,) * len(live_subs), None)
                    for probe_idx, (_, live_subs) in enumerate(probes)
                ]
            }
        else:
            combos, least = {}, {}
            block = self.index.block_at(block_id)
            for probe_idx, (cand_id, live_subs) in enumerate(probes):
                for classes, key, state, fragment in self._product(cand_id, live_subs):
                    cls = interface(block.component, state)
                    rank = self._rank(block.head, key, state)
                    if cls not in least or rank < least[cls][0]:
                        least[cls] = (rank, fragment)
                    combos.setdefault(cls, []).append((probe_idx, classes, (key, state)))
            self._least[block_id] = least
        self._combos[block_id] = combos
        return combos

    def _product(self, cand_id: int, live_subs) -> List[Tuple]:
        """``(sub classes, key, state, least fragment)`` per combination.

        The same for every block that lists the probe, so built once.
        """
        found = self._products.get((cand_id, live_subs))
        if found is None:
            found = []
            for sub in live_subs:
                self._combinations(sub)
            bag = self.index.candidate_bags[cand_id]
            state_of = self.core.evaluator.state_of
            for combination in product(*[self._least[sub].items() for sub in live_subs]):
                if self.budget is not None:
                    self.budget.tick()
                fragment = make_fragment(bag, [least[1] for _, least in combination])
                classes = tuple(cls for cls, _ in combination)
                found.append((classes, *state_of(fragment), fragment))
            self._products[cand_id, live_subs] = found
        return found

    # -- lazy streams ----------------------------------------------------------

    def _probe_stream(self, block_id: int, probe_idx: int, classes) -> _ProbeStream:
        key = (block_id, probe_idx, classes)
        stream = self._probe_streams.get(key)
        if stream is None:
            cand_id, live_subs = self.index.candidate_probes(block_id)[probe_idx]
            stream = _ProbeStream(self, cand_id, live_subs, classes)
            self._probe_streams[key] = stream
        return stream

    def _merged_stream(self, block_id: int, parent_bag, cls) -> _MergedStream:
        key = (block_id, parent_bag, cls)
        stream = self._merged_streams.get(key)
        if stream is None:
            stream = _MergedStream(self, block_id, parent_bag, cls)
            self._merged_streams[key] = stream
        return stream

    # -- enumeration -----------------------------------------------------------

    def iter_decompositions(self) -> Iterator[TreeDecomposition]:
        """All distinct CTDs in exact ``(preference, canonical tie)`` order.

        Under a budget the generator is *anytime*: when the budget exhausts
        (or Ctrl-C arrives) it stops cleanly, and everything already
        yielded is an exact prefix of the unbudgeted enumeration order —
        check ``budget.outcome()`` for how the run ended.
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
        entries = map(self._merged_stream(root_id, None, None).get, count())
        try:
            for entry in takewhile(lambda entry: entry is not None, entries):
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
