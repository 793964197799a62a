"""The one solve front door: ``SolveRequest`` → :func:`execute` → ``SolveResult``.

Every way of asking the solver stack for decompositions — the CLI verbs,
the experiment harness, the supervised batch runtime — used to build its
own parameter bundle and call into :mod:`repro.core.ctd`,
:mod:`repro.core.constrained`, :mod:`repro.core.enumerate` or
:mod:`repro.core.soft` directly.  This module replaces those bundles with
a single frozen :class:`SolveRequest`:

* ``mode`` — ``decide`` (Algorithm 1 existence + witness), ``optimal``
  (Algorithm 2, the single best CTD under the constraint/preference),
  ``enumerate`` (exact any-k ranked enumeration, ``limit`` results), or
  ``soft-width`` (search ``k = 1.. width`` for the least width with a CTD);
* ``constraint`` / ``preference`` — *names*, not objects (``"concov"``;
  ``"nodecount"``, ``"cardinalities"``, ``"estimates"``), so a request is
  a plain JSON-able value with a deterministic canonical serialisation
  (:meth:`SolveRequest.to_payload`) and a stable fingerprint
  (:meth:`SolveRequest.fingerprint`, same idiom as the batch ledger's
  ``task_fingerprint``);
* ``data_key`` — cost preferences depend on database *data*, not just the
  query shape; a request carrying one is only cacheable when the caller
  names the data (e.g. ``"tpcds:1:7:q_ds:cardinalities"``), because two
  different databases rank the same CTDs differently.

:func:`execute` routes a request to the right solver and — when a
:class:`~repro.core.cache.DecompositionCache` is available and the request
is shape-pure (or data-keyed) — consults the persistent cache first, keyed
by the hypergraph's canonical fingerprint
(:func:`repro.hypergraph.canonical.canonical_form`).  Cached entries store
bags as canonical vertex indices; a hit is mapped back through the
caller's own permutation and **re-certified** with
:func:`repro.core.certify.certify_ctd` before being served, so a poisoned,
stale or fingerprint-colliding entry is quarantined and re-solved, never
trusted.  Negative answers and budget-truncated (anytime) results are
never cached — the former has no cheap certificate, the latter is not the
full answer.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

from repro.hypergraph.hypergraph import Edge, Hypergraph
from repro.decompositions.td import TreeDecomposition
from repro.core.cache import DecompositionCache, resolve_cache
from repro.core.certify import (
    certify_ctd,
    decomposition_from_payload,
    decomposition_to_payload,
)
from repro.core.constraints import SubtreeConstraint
from repro.runtime.budget import Budget, SolveOutcome, completed_outcome

__all__ = [
    "MODES",
    "CONSTRAINTS",
    "PREFERENCES",
    "DATA_PREFERENCES",
    "SolveRequest",
    "SolveResult",
    "execute",
    "lookup",
    "serve_canonical_record",
    "constraint_object",
    "preference_object",
]

MODES = ("decide", "optimal", "enumerate", "soft-width")
CONSTRAINTS = (None, "concov")
PREFERENCES = (None, "nodecount", "cardinalities", "estimates")

#: Preferences whose ranking depends on database contents, not just the
#: hypergraph shape.  Requests carrying one need ``database``/``query`` at
#: execution time and a ``data_key`` to be cacheable.
DATA_PREFERENCES = frozenset({"cardinalities", "estimates"})

#: Request fields that do not change the answer, only how long the solver
#: may spend finding it — excluded from the fingerprint and the cache
#: kind, mirroring ``NON_SEMANTIC_TASK_KEYS`` in the batch ledger.
NON_SEMANTIC_FIELDS = ("deadline", "max_work", "label")

_CACHE_STATUS = ("hit", "miss", "stored", "uncacheable", "off")


def _vertex_sort_key(vertex) -> Tuple[str, str]:
    return (str(type(vertex)), str(vertex))


@dataclass(frozen=True)
class SolveRequest:
    """One immutable, serialisable description of a solve.

    ``width`` is the bag-cover bound ``k`` (for ``soft-width`` it is the
    *upper* search bound; ``None`` there means the number of edges).
    ``iterations`` selects the iterated hierarchy ``shw_i``.  ``deadline``
    and ``max_work`` are the resource caps a governed execution applies;
    they are non-semantic (two requests differing only in caps have the
    same fingerprint), as is the display ``label``.
    """

    hypergraph: Hypergraph
    mode: str = "decide"
    width: Optional[int] = None
    iterations: int = 0
    constraint: Optional[str] = None
    preference: Optional[str] = None
    limit: int = 1
    data_key: Optional[str] = None
    deadline: Optional[float] = None
    max_work: Optional[int] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.constraint not in CONSTRAINTS:
            raise ValueError(
                f"unknown constraint {self.constraint!r}; expected one of {CONSTRAINTS}"
            )
        if self.preference not in PREFERENCES:
            raise ValueError(
                f"unknown preference {self.preference!r}; expected one of {PREFERENCES}"
            )
        if self.mode == "soft-width":
            if self.width is not None and self.width < 1:
                raise ValueError("soft-width bound must be >= 1 when given")
        elif self.width is None or self.width < 1:
            raise ValueError(f"mode {self.mode!r} needs a width >= 1")
        if self.mode == "decide" and (self.constraint or self.preference):
            raise ValueError(
                "mode 'decide' is the plain Algorithm 1 path; use mode "
                "'optimal' for constraints/preferences"
            )
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.limit < 1:
            raise ValueError("limit must be >= 1")

    # -- serialisation -----------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """The request as a plain JSON-able dict (the wire format)."""
        vertices = sorted(self.hypergraph.vertices, key=_vertex_sort_key)
        edges = {
            edge.name: sorted(edge.vertices, key=_vertex_sort_key)
            for edge in self.hypergraph.edges
        }
        return {
            "hypergraph": {"vertices": vertices, "edges": edges},
            "mode": self.mode,
            "width": self.width,
            "iterations": self.iterations,
            "constraint": self.constraint,
            "preference": self.preference,
            "limit": self.limit,
            "data_key": self.data_key,
            "deadline": self.deadline,
            "max_work": self.max_work,
            "label": self.label,
        }

    @classmethod
    def from_payload(cls, payload: object) -> "SolveRequest":
        """Reconstruct a request from its wire payload.

        Raises :class:`ValueError` on malformed payloads — a garbage task
        spec must become a structured failure, never an arbitrary crash.
        """
        if not isinstance(payload, dict):
            raise ValueError(
                f"solve request payload is not a dict: {type(payload).__name__}"
            )
        raw = payload.get("hypergraph")
        if not isinstance(raw, dict) or not isinstance(raw.get("edges"), dict):
            raise ValueError("solve request payload misses its hypergraph")
        edges = [
            Edge(str(name), frozenset(vertices))
            for name, vertices in sorted(raw["edges"].items())
        ]
        try:
            hypergraph = Hypergraph(edges, vertices=raw.get("vertices"))
            return cls(
                hypergraph=hypergraph,
                mode=str(payload.get("mode", "decide")),
                width=payload.get("width"),
                iterations=int(payload.get("iterations") or 0),
                constraint=payload.get("constraint"),
                preference=payload.get("preference"),
                limit=int(payload.get("limit") or 1),
                data_key=payload.get("data_key"),
                deadline=payload.get("deadline"),
                max_work=payload.get("max_work"),
                label=payload.get("label"),
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed solve request payload: {exc}") from exc

    def fingerprint(self) -> str:
        """A short stable hash of the request's semantic fields."""
        payload = self.to_payload()
        for key in NON_SEMANTIC_FIELDS:
            payload.pop(key, None)
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    # -- caching -----------------------------------------------------------

    def cache_kind(self) -> Optional[str]:
        """The request-kind half of the cache key, or ``None`` if uncacheable.

        The kind covers everything semantic *except* the hypergraph (that
        is the canonical fingerprint's job).  ``None`` — no caching — for
        ``soft-width`` (its per-``k`` sub-requests cache individually, so
        the found width is always re-derived from certified witnesses) and
        for data-dependent preferences without a ``data_key``.
        """
        if self.mode == "soft-width":
            return None
        if self.preference in DATA_PREFERENCES and self.data_key is None:
            return None
        return json.dumps(
            {
                "mode": self.mode,
                "width": self.width,
                "iterations": self.iterations,
                "constraint": self.constraint,
                "preference": self.preference,
                "limit": self.limit if self.mode == "enumerate" else 1,
                "data_key": self.data_key,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    # -- derived requests --------------------------------------------------

    def degraded_to_decide(self) -> "SolveRequest":
        """The decide-only degradation of this request (ladder bottom rung)."""
        return replace(
            self,
            mode="decide",
            constraint=None,
            preference=None,
            limit=1,
            data_key=None,
        )

    def governed(
        self, deadline: Optional[float], max_work: Optional[int]
    ) -> "SolveRequest":
        """The same request under different (non-semantic) resource caps."""
        return replace(self, deadline=deadline, max_work=max_work)


@dataclass
class SolveResult:
    """What one :func:`execute` produced.

    ``decided`` is the mode's boolean answer (a decomposition exists / a
    width was found); when ``outcome.partial`` a ``False`` is
    *inconclusive*, not a proof.  ``width`` is the achieved width — the
    request's bound for the fixed-``k`` modes, the discovered least width
    for ``soft-width`` (``None`` when undetermined).  ``cache_status`` is
    ``hit`` / ``miss`` / ``stored`` / ``uncacheable`` / ``off`` and
    ``cache_stats`` snapshots the cache's counters after this call.
    """

    request: SolveRequest
    decided: bool
    decompositions: List[TreeDecomposition] = field(default_factory=list)
    width: Optional[int] = None
    outcome: SolveOutcome = field(default_factory=completed_outcome)
    cache_status: str = "off"
    cache_stats: Optional[Dict[str, int]] = None
    elapsed: float = 0.0

    @property
    def decomposition(self) -> Optional[TreeDecomposition]:
        return self.decompositions[0] if self.decompositions else None

    @property
    def complete(self) -> bool:
        return self.outcome.complete

    def to_payload(self) -> Dict[str, object]:
        """The result as a JSON-able wire dict (supervisor/worker format)."""
        return {
            "ok": True,
            "mode": self.request.mode,
            "width": self.width,
            "decided": self.decided,
            "decomposition": (
                decomposition_to_payload(self.decompositions[0])
                if self.decompositions
                else None
            ),
            "decompositions": [
                decomposition_to_payload(ctd) for ctd in self.decompositions
            ],
            "outcome": {
                "status": self.outcome.status,
                "work": self.outcome.work,
                "elapsed": round(self.outcome.elapsed, 6),
            },
            "cache": self.cache_status,
        }


# -- spec -> object resolution ------------------------------------------------


def constraint_object(
    spec: Optional[str], hypergraph: Hypergraph, width: int
) -> Optional[SubtreeConstraint]:
    """The constraint instance a spec names, bound to a hypergraph + width."""
    if spec is None:
        return None
    if spec == "concov":
        from repro.core.constraints import ConnectedCoverConstraint

        return ConnectedCoverConstraint(hypergraph, width)
    raise ValueError(f"unknown constraint {spec!r}")


def preference_object(spec: Optional[str], database=None, query=None):
    """The preference instance a spec names.

    Cost preferences (``cardinalities`` / ``estimates``) rank by database
    statistics and therefore need ``database`` and ``query``.
    """
    if spec is None:
        return None
    if spec == "nodecount":
        from repro.core.preferences import NodeCountPreference

        return NodeCountPreference()
    if spec in DATA_PREFERENCES:
        if database is None or query is None:
            raise ValueError(
                f"preference {spec!r} ranks by database statistics; "
                "execute() needs database= and query= for it"
            )
        from repro.db.cost import make_cost_preference

        return make_cost_preference(spec, query, database)
    raise ValueError(f"unknown preference {spec!r}")


# -- execution ----------------------------------------------------------------


def _candidate_bags(request: SolveRequest, width: int, budget: Optional[Budget]):
    from repro.core.candidate_bags import SoftBagGenerator

    generator = SoftBagGenerator(request.hypergraph, width, budget=budget)
    return generator.candidate_bags(request.iterations)


def _solve_fixed_width(
    request: SolveRequest,
    database,
    query,
    budget: Optional[Budget],
) -> List[TreeDecomposition]:
    """Run the decide/optimal/enumerate modes at the request's width."""
    hypergraph = request.hypergraph
    width = int(request.width)  # type: ignore[arg-type]
    bags = _candidate_bags(request, width, budget)
    constraint = constraint_object(request.constraint, hypergraph, width)
    preference = preference_object(request.preference, database, query)
    if request.mode == "enumerate":
        from repro.core.enumerate import enumerate_ctds

        return enumerate_ctds(
            hypergraph,
            bags,
            constraint=constraint,
            preference=preference,
            limit=request.limit,
            budget=budget,
        )
    # One solver either way; the two entry points keep the decide and the
    # optimal solves apart in the end-to-end benchmark's trace spans.
    if constraint is None and preference is None:
        from repro.core.ctd import candidate_td

        found = candidate_td(hypergraph, bags, budget=budget)
    else:
        from repro.core.constrained import constrained_candidate_td

        found = constrained_candidate_td(
            hypergraph,
            bags,
            constraint=constraint,
            preference=preference,
            budget=budget,
        )
    return [found] if found is not None else []


def _record_for(
    canonical, decompositions: List[TreeDecomposition], width: int
) -> Dict[str, object]:
    """A cache record: bags translated to canonical vertex indices."""
    stored = []
    for ctd in decompositions:
        payload = decomposition_to_payload(ctd)
        stored.append(
            {
                "bags": [canonical.to_canonical_bag(bag) for bag in payload["bags"]],
                "parents": payload["parents"],
            }
        )
    return {"width": width, "decompositions": stored}


def serve_canonical_record(
    request: SolveRequest,
    canonical,
    record: Dict[str, object],
    started: float,
    cache_status: str = "hit",
) -> SolveResult:
    """Map a canonical record to the caller's vertices and re-certify it.

    A *canonical record* stores bags as canonical vertex indices
    (:func:`_record_for`) — the storage format shared by the persistent
    decomposition cache and the batch scheduler's fan-out.
    Every decomposition is translated through the caller's own
    permutation and certified with :func:`certify_ctd` before being
    served (the cache-is-never-an-authority trust model: a record is
    evidence, the certificate is the proof).  Raises :class:`ValueError`
    on any record that does not withstand certification.
    """
    hypergraph = request.hypergraph
    width = int(record["width"])  # type: ignore[index]
    stored = record["decompositions"]  # type: ignore[index]
    if not isinstance(stored, list) or not stored:
        raise ValueError("entry stores no decompositions")
    constraint = constraint_object(request.constraint, hypergraph, width)
    decompositions = []
    for item in stored:
        if not isinstance(item, dict):
            raise ValueError("entry decomposition is not a dict")
        mapped = {
            "bags": [
                sorted(canonical.from_canonical_bag(bag), key=str)
                for bag in item.get("bags", ())
            ],
            "parents": item.get("parents"),
        }
        ctd = decomposition_from_payload(hypergraph, mapped)
        certification = certify_ctd(
            hypergraph, ctd, constraint=constraint, width_claim=width
        )
        if not certification:
            raise ValueError(
                f"cached decomposition failed certification: "
                f"{certification.describe()}"
            )
        decompositions.append(ctd)
    return SolveResult(
        request=request,
        decided=True,
        decompositions=decompositions,
        width=width,
        outcome=completed_outcome(),
        cache_status=cache_status,
        elapsed=time.perf_counter() - started,
    )


def _serve_cached(
    request: SolveRequest,
    canonical,
    record: Dict[str, object],
    store: DecompositionCache,
    kind: str,
    started: float,
) -> Optional[SolveResult]:
    """Serve a persistent-cache record, quarantining entries that fail.

    Returns the servable result, or ``None`` after quarantining an entry
    that does not withstand certification — the caller then solves
    normally, so cache corruption degrades to a miss, never a wrong answer.
    """
    try:
        result = serve_canonical_record(request, canonical, record, started)
    except (KeyError, TypeError, ValueError) as exc:
        store.reject(canonical.fingerprint, kind, str(exc))
        return None
    result.cache_stats = store.stats.as_dict()
    return result


def _miss_status(store: Optional[DecompositionCache], kind: Optional[str]) -> str:
    """The ``cache_status`` of a request the cache does not answer."""
    return "off" if store is None else ("uncacheable" if kind is None else "miss")


def execute(
    request: SolveRequest,
    database=None,
    query=None,
    cache: Union[str, DecompositionCache, None] = "auto",
    budget: Optional[Budget] = None,
) -> SolveResult:
    """Execute one request: cache lookup, solve, cache store.

    ``cache`` is ``"auto"`` (the default directory, honoring
    ``REPRO_CTD_CACHE_OFF``), a :class:`DecompositionCache`, a directory
    path, or ``None``.  ``budget`` overrides the request's own
    ``deadline``/``max_work`` caps when given; either way a single budget
    governs candidate-bag generation and the block DP, and
    truncated (anytime) results are returned but never cached.
    """
    started = time.perf_counter()
    if budget is None and (request.deadline is not None or request.max_work is not None):
        budget = Budget(deadline=request.deadline, max_work=request.max_work)
    store = resolve_cache(cache)

    if request.mode == "soft-width":
        return _execute_soft_width(request, database, query, store, budget, started)

    kind = request.cache_kind()
    canonical = None
    cache_status = _miss_status(store, kind)
    if store is not None and kind is not None:
        from repro.hypergraph.canonical import canonical_form

        canonical = canonical_form(request.hypergraph)
        record = store.get(canonical.fingerprint, kind)
        if record is not None:
            served = _serve_cached(request, canonical, record, store, kind, started)
            if served is not None:
                return served

    decompositions = _solve_fixed_width(request, database, query, budget)
    outcome = budget.outcome() if budget is not None else completed_outcome()
    decided = bool(decompositions)
    width = int(request.width) if decided else None  # type: ignore[arg-type]

    if (
        store is not None
        and kind is not None
        and canonical is not None
        and decided
        and outcome.complete
    ):
        store.put(
            canonical.fingerprint,
            kind,
            _record_for(canonical, decompositions, int(request.width)),  # type: ignore[arg-type]
        )
        cache_status = "stored"

    return SolveResult(
        request=request,
        decided=decided,
        decompositions=decompositions,
        width=width,
        outcome=outcome,
        cache_status=cache_status,
        cache_stats=store.stats.as_dict() if store is not None else None,
        elapsed=time.perf_counter() - started,
    )


def lookup(
    request: SolveRequest,
    cache: Union[str, DecompositionCache, None] = "auto",
) -> Optional[SolveResult]:
    """A cache-only probe: the certified cached result on a hit, else ``None``.

    Never solves.  The batch supervisor uses this to satisfy a task without
    spawning a worker; the same trust rules as :func:`execute` apply — a
    hit is mapped back through the caller's permutation and re-certified,
    and an entry that fails certification is quarantined (the probe then
    reports a miss).
    """
    store = resolve_cache(cache)
    if store is None:
        return None
    kind = request.cache_kind()
    if kind is None:
        return None
    from repro.hypergraph.canonical import canonical_form

    started = time.perf_counter()
    canonical = canonical_form(request.hypergraph)
    record = store.get(canonical.fingerprint, kind)
    if record is None:
        return None
    return _serve_cached(request, canonical, record, store, kind, started)


def _execute_soft_width(
    request: SolveRequest,
    database,
    query,
    store: Optional[DecompositionCache],
    budget: Optional[Budget],
    started: float,
) -> SolveResult:
    """``soft-width``: search ``k = 1..bound`` through cached sub-requests.

    Each level is a fixed-width sub-request executed through
    :func:`execute`, so positive witnesses cache and re-certify per level.
    Negative levels ``k >= 2`` re-solve every time by design: "no CTD at
    width k" has no cheap certificate, so it must never be served from a
    cache.  Level 1's certificate is the GYO reduction: shw = 1 ⇔ ghw = 1
    ⇔ α-acyclic, and candidate bags, constraints and preferences only
    remove CTDs, so a cyclic hypergraph's level 1 is a complete negative
    without a solve.
    """
    from repro.baselines.acyclic import is_alpha_acyclic

    hypergraph = request.hypergraph
    bound = (
        int(request.width)
        if request.width is not None
        else max(1, hypergraph.num_edges())
    )
    mode = "decide" if (request.constraint is None and request.preference is None) else "optimal"
    cache_status = "off"
    for k in range(1, bound + 1):
        if budget is not None and budget.exhausted:
            break
        sub = replace(request, mode=mode, width=k, limit=1)
        if k == 1 and not is_alpha_acyclic(hypergraph):
            cache_status = _miss_status(store, sub.cache_kind())
            continue
        last = execute(
            sub,
            database=database,
            query=query,
            cache=store,
            budget=budget,
        )
        if last.decided:
            outcome = budget.outcome() if budget is not None else completed_outcome()
            return SolveResult(
                request=request,
                decided=True,
                decompositions=last.decompositions,
                width=k,
                outcome=outcome,
                cache_status=last.cache_status,
                cache_stats=store.stats.as_dict() if store is not None else None,
                elapsed=time.perf_counter() - started,
            )
        cache_status = last.cache_status
    outcome = budget.outcome() if budget is not None else completed_outcome()
    return SolveResult(
        request=request,
        decided=False,
        decompositions=[],
        width=None,
        outcome=outcome,
        cache_status=cache_status,
        cache_stats=store.stats.as_dict() if store is not None else None,
        elapsed=time.perf_counter() - started,
    )
