"""Persistent on-disk cache of candidate tree decompositions.

The solvers are pure functions of the query *shape*: two hypergraphs with
equal canonical fingerprints (:mod:`repro.hypergraph.canonical`) and the
same request kind have the same CTDs up to vertex renaming.  This module
stores solved decompositions on disk keyed by
``(canonical_fingerprint, request_kind)`` so repeated shapes — across
processes, batch runs and CLI invocations — become cache hits instead of
re-solves.

Trust model
-----------

The cache is an *accelerator*, never an authority.  Entries store bags as
canonical vertex indices; :func:`repro.core.solve.execute` maps them back
through the caller's own permutation and re-certifies the result with
:func:`repro.core.certify.certify_ctd` before serving it.  An entry that
fails certification is quarantined (renamed to ``*.corrupt`` and left for
``repro cache list`` to report) and the request falls back to a normal
solve — a poisoned, stale or colliding entry can cost time, never
correctness.  Negative answers are deliberately **not** cached: a "no
decomposition exists" claim has no cheap certificate.

Layout and eviction
-------------------

One JSON file per entry, named ``<fingerprint-prefix>-<kind-hash>.json``,
written atomically (temp file + rename).  The directory is size-bounded:
after each store, least-recently-used entries (by mtime — reads touch the
file) are evicted until the directory fits ``max_bytes``.  Defaults:
``workloads/.ctd-cache`` under the cwd, 64 MiB; overridable with
``REPRO_CTD_CACHE`` (directory), ``REPRO_CTD_CACHE_MAX_BYTES``, and
``REPRO_CTD_CACHE_OFF`` (disable entirely).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.runtime.faults import maybe_fail

logger = logging.getLogger(__name__)

__all__ = [
    "CACHE_VERSION",
    "CACHE_ENV_VAR",
    "CACHE_OFF_ENV_VAR",
    "CACHE_MAX_BYTES_ENV_VAR",
    "DEFAULT_MAX_BYTES",
    "QUARANTINE_SUFFIX",
    "CacheStats",
    "CacheEntryInfo",
    "CorruptCacheEntry",
    "DecompositionCache",
    "default_cache_dir",
    "cache_disabled",
    "resolve_cache",
]

#: On-disk format version; bump on layout changes so old entries are
#: treated as corrupt (quarantined) rather than misread.
CACHE_VERSION = 1

#: Environment variable overriding the default cache directory.
CACHE_ENV_VAR = "REPRO_CTD_CACHE"

#: Set (to anything non-empty) to disable the cache for ``"auto"`` callers.
CACHE_OFF_ENV_VAR = "REPRO_CTD_CACHE_OFF"

#: Environment variable overriding the size bound in bytes.
CACHE_MAX_BYTES_ENV_VAR = "REPRO_CTD_CACHE_MAX_BYTES"

#: Default size bound: far beyond any realistic query-shape working set
#: (entries are a few KiB), small enough to never matter on disk.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024

#: Suffix of a quarantined entry: kept for inspection, never served.
QUARANTINE_SUFFIX = ".corrupt"

_ENTRY_SUFFIX = ".json"


class CorruptCacheEntry(RuntimeError):
    """An entry file exists but cannot be trusted: unreadable JSON, wrong
    format version, or key fields that do not match its filename's key."""


def default_cache_dir() -> str:
    """``$REPRO_CTD_CACHE`` or ``workloads/.ctd-cache`` under the cwd."""
    return os.environ.get(CACHE_ENV_VAR) or os.path.join("workloads", ".ctd-cache")


def cache_disabled() -> bool:
    """Whether ``REPRO_CTD_CACHE_OFF`` disables the default cache."""
    return bool(os.environ.get(CACHE_OFF_ENV_VAR))


def _default_max_bytes() -> int:
    raw = os.environ.get(CACHE_MAX_BYTES_ENV_VAR)
    if raw:
        try:
            return max(0, int(raw))
        except ValueError:
            logger.warning(
                "ignoring non-integer %s=%r", CACHE_MAX_BYTES_ENV_VAR, raw
            )
    return DEFAULT_MAX_BYTES


def kind_hash(kind: str) -> str:
    """A short stable hash of a request-kind string (part of the filename)."""
    return hashlib.sha256(kind.encode("utf-8")).hexdigest()[:12]


@dataclass
class CacheStats:
    """Counters surfaced in :class:`~repro.core.solve.SolveResult` payloads.

    ``hits`` counts entries read back successfully (before certification);
    ``rejected`` counts hits that subsequently failed re-certification and
    were quarantined — the difference is what was actually served.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    quarantined: int = 0
    rejected: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "quarantined": self.quarantined,
            "rejected": self.rejected,
        }


@dataclass
class CacheEntryInfo:
    """One entry file as reported by :meth:`DecompositionCache.entries`."""

    path: str
    fingerprint: str
    kind: str
    width: Optional[int]
    decompositions: int
    size_bytes: int
    version: int
    readable: bool = True

    @property
    def stale(self) -> bool:
        return not self.readable or self.version != CACHE_VERSION


@dataclass
class DecompositionCache:
    """A directory of solved decompositions keyed by canonical form."""

    directory: str = ""
    max_bytes: Optional[int] = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.directory = self.directory or default_cache_dir()
        if self.max_bytes is None:
            self.max_bytes = _default_max_bytes()

    # -- keying ------------------------------------------------------------

    def entry_path(self, fingerprint: str, kind: str) -> str:
        return os.path.join(
            self.directory, f"{fingerprint[:24]}-{kind_hash(kind)}{_ENTRY_SUFFIX}"
        )

    # -- read side ---------------------------------------------------------

    def _read(self, path: str, fingerprint: str, kind: str) -> dict:
        try:
            maybe_fail("ctdcache.read")
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except Exception as exc:  # JSONDecodeError, OSError, injected fault
            raise CorruptCacheEntry(f"cache entry {path!r} is unreadable: {exc}") from exc
        if not isinstance(record, dict):
            raise CorruptCacheEntry(f"cache entry {path!r} is not a record")
        if record.get("version") != CACHE_VERSION:
            raise CorruptCacheEntry(
                f"cache entry {path!r} has version {record.get('version')}, "
                f"this code reads version {CACHE_VERSION}"
            )
        if record.get("fingerprint") != fingerprint or record.get("kind") != kind:
            # A filename-hash collision or a copied-in foreign file: the
            # entry is about some other request, so it is no answer here.
            raise CorruptCacheEntry(
                f"cache entry {path!r} does not match its key"
            )
        return record

    def get(self, fingerprint: str, kind: str) -> Optional[dict]:
        """The stored record for a key, or ``None`` on a miss.

        Corrupt entries are quarantined and count as misses.  Successful
        reads touch the file's mtime, which is what the eviction policy
        ranks by.
        """
        path = self.entry_path(fingerprint, kind)
        if not os.path.exists(path):
            self.stats.misses += 1
            return None
        try:
            record = self._read(path, fingerprint, kind)
        except CorruptCacheEntry as exc:
            self.quarantine(path, str(exc))
            self.stats.misses += 1
            return None
        try:
            os.utime(path)
        except OSError:
            pass
        self.stats.hits += 1
        return record

    def reject(self, fingerprint: str, kind: str, reason: str) -> None:
        """Quarantine an entry whose payload failed re-certification."""
        self.stats.rejected += 1
        self.quarantine(self.entry_path(fingerprint, kind), reason)

    # -- write side --------------------------------------------------------

    def put(self, fingerprint: str, kind: str, record: dict) -> str:
        """Atomically store ``record`` under a key, then enforce the size bound."""
        path = self.entry_path(fingerprint, kind)
        payload = dict(record)
        payload["version"] = CACHE_VERSION
        payload["fingerprint"] = fingerprint
        payload["kind"] = kind
        payload.setdefault("created", time.time())
        os.makedirs(self.directory, exist_ok=True)
        handle, temp_path = tempfile.mkstemp(
            dir=self.directory, suffix=_ENTRY_SUFFIX + ".tmp"
        )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                maybe_fail("ctdcache.write")
                json.dump(payload, stream, sort_keys=True, separators=(",", ":"))
            os.replace(temp_path, path)
        except BaseException:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            raise
        self.stats.stores += 1
        self._evict(keep=path)
        return path

    def _evict(self, keep: Optional[str] = None) -> None:
        """Drop least-recently-used entries until the directory fits.

        The just-written entry is exempt, so a single oversized store does
        not evict itself into a permanently cold cache.
        """
        assert self.max_bytes is not None
        files = []
        total = 0
        for path in self._entry_paths():
            try:
                stat = os.stat(path)
            except OSError:
                continue
            files.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        if total <= self.max_bytes:
            return
        for mtime, size, path in sorted(files):
            if path == keep:
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            self.stats.evictions += 1
            total -= size
            if total <= self.max_bytes:
                return

    # -- maintenance -------------------------------------------------------

    def quarantine(self, path: str, reason: str) -> Optional[str]:
        """Move an untrustworthy entry aside as ``<path>.corrupt``."""
        if not os.path.exists(path):
            return None
        quarantined = path + QUARANTINE_SUFFIX
        os.replace(path, quarantined)
        self.stats.quarantined += 1
        logger.warning(
            "quarantined cache entry %s -> %s: %s", path, quarantined, reason
        )
        return quarantined

    def _entry_paths(self) -> List[str]:
        if not os.path.isdir(self.directory):
            return []
        return [
            os.path.join(self.directory, filename)
            for filename in sorted(os.listdir(self.directory))
            if filename.endswith(_ENTRY_SUFFIX)
        ]

    def entries(self) -> List[CacheEntryInfo]:
        """All entry files, unreadable ones included (as stale placeholders)."""
        infos = []
        for path in self._entry_paths():
            size = os.path.getsize(path)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    record = json.load(handle)
                if not isinstance(record, dict):
                    raise ValueError("not a record")
            except Exception:
                infos.append(
                    CacheEntryInfo(path, "?", "?", None, 0, size, -1, readable=False)
                )
                continue
            infos.append(
                CacheEntryInfo(
                    path=path,
                    fingerprint=str(record.get("fingerprint", "?")),
                    kind=str(record.get("kind", "?")),
                    width=record.get("width"),
                    decompositions=len(record.get("decompositions") or ()),
                    size_bytes=size,
                    version=int(record.get("version", -1)),
                )
            )
        return infos

    def quarantined(self) -> List[str]:
        """Paths of quarantined (``*.corrupt``) files in the cache directory."""
        if not os.path.isdir(self.directory):
            return []
        return [
            os.path.join(self.directory, filename)
            for filename in sorted(os.listdir(self.directory))
            if filename.endswith(QUARANTINE_SUFFIX)
        ]

    def size_bytes(self) -> int:
        return sum(os.path.getsize(path) for path in self._entry_paths())

    def clean(self) -> int:
        """Delete every entry, quarantine file and stray temp file."""
        removed = 0
        if not os.path.isdir(self.directory):
            return removed
        for filename in sorted(os.listdir(self.directory)):
            if (
                filename.endswith(_ENTRY_SUFFIX)
                or filename.endswith(QUARANTINE_SUFFIX)
                or _ENTRY_SUFFIX + ".tmp" in filename
            ):
                os.unlink(os.path.join(self.directory, filename))
                removed += 1
        return removed


def resolve_cache(
    cache: Union[str, DecompositionCache, None] = "auto",
) -> Optional[DecompositionCache]:
    """Normalise a caller's cache argument to a cache instance or ``None``.

    ``"auto"`` means the default directory, honoring ``REPRO_CTD_CACHE_OFF``
    (the common entry-point setting); an explicit :class:`DecompositionCache`
    or directory path is always honored (tests point these at temp dirs
    regardless of the ambient environment); ``None`` disables caching.
    """
    if cache is None:
        return None
    if isinstance(cache, DecompositionCache):
        return cache
    if cache == "auto":
        if cache_disabled():
            return None
        return DecompositionCache()
    return DecompositionCache(str(cache))
