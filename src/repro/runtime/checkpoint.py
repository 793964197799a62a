"""Durable checkpoint ledger for supervised batch runs.

One batch run writes one **ledger**: an append-only JSONL journal where
every line is a self-contained JSON record.  The journal gives the batch
its crash-consistency story:

* **appends are durable** — each record is one ``\\n``-terminated line,
  flushed and ``fsync``'d before the supervisor moves on, so a completed
  task survives a ``kill -9`` of the supervisor itself;
* **a torn tail is expected** — a crash mid-append can tear exactly the
  final line.  :meth:`BatchLedger.records` tolerates (and reports) a
  single unparseable *trailing* line; corruption anywhere *before* the
  tail means the file cannot be trusted and raises
  :class:`~repro.runtime.errors.LedgerError` instead of resuming from a
  lying journal;
* **compaction is atomic** — :meth:`BatchLedger.compact` rewrites the
  journal (latest record per task, transient events dropped) through the
  same fsync'd temp-file + rename idiom as the snapshot cache, so a crash
  mid-compaction leaves the old journal intact.

Tasks are keyed by :func:`task_fingerprint`: a SHA-256 over the canonical
JSON of the task's *semantic* fields (fault-injection directives and other
operational noise are excluded), so a re-run of the same batch recognises
completed tasks and returns their recorded results byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Dict, IO, List, Mapping, Optional, Tuple

from repro.runtime.errors import LedgerError
from repro.runtime.faults import maybe_fail

__all__ = [
    "LEDGER_VERSION",
    "task_fingerprint",
    "BatchLedger",
]

#: Version of the ledger format; bump on any record-layout change.  A
#: ledger written by a different version refuses to resume.
LEDGER_VERSION = 1

#: Task-spec keys excluded from the fingerprint: they direct *how* a run
#: is exercised (fault injection, labels), not *what* is computed, and a
#: resumed run must recognise its tasks regardless of them.
NON_SEMANTIC_TASK_KEYS = frozenset(
    {
        "faults",
        "label",
        # Legacy, no longer emitted: ledgers written while the intra-solve
        # sharding layer existed store task specs that carry this key, and
        # task_fingerprint / default_ledger_path must keep matching them.
        "shards",
    }
)

#: Terminal record statuses: a task with one of these has finished for
#: this batch (``ok`` results are reused verbatim on resume; ``failed``
#: and ``interrupted`` tasks are retried).
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_INTERRUPTED = "interrupted"


def task_fingerprint(task: Mapping[str, object]) -> str:
    """A short deterministic fingerprint of a task's semantic content."""
    semantic = {
        key: value
        for key, value in task.items()
        if key not in NON_SEMANTIC_TASK_KEYS
    }
    canonical = json.dumps(
        semantic, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class BatchLedger:
    """An append-only JSONL journal of one batch's task outcomes.

    Records are plain dicts with a ``type`` field.  The supervisor writes:

    * ``header`` — first line: format version and batch metadata;
    * ``task`` — one terminal outcome per task attempt cycle
      (``status`` of ``ok`` / ``failed`` / ``interrupted``, the task spec,
      degradation level, attempts, failures, and the result payload);
    * ``quarantine`` — a result that failed certification, kept for the
      post-mortem (the task itself is retried and gets a later ``task``
      record);
    * ``batch`` — batch-level events (``interrupted``).
    """

    def __init__(self, path: str):
        self.path = path
        self._handle: Optional[IO[str]] = None

    # -- writing -----------------------------------------------------------

    def _open_for_append(self) -> IO[str]:
        if self._handle is None:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            exists = os.path.exists(self.path) and os.path.getsize(self.path) > 0
            self._handle = open(self.path, "a", encoding="utf-8")
            if not exists:
                self._write_line({"type": "header", "version": LEDGER_VERSION})
        return self._handle

    def _write_line(self, record: Dict[str, object]) -> None:
        assert self._handle is not None
        maybe_fail("ledger.append")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append(self, record: Dict[str, object]) -> None:
        """Durably append one record (fsync'd before returning)."""
        self._open_for_append()
        self._write_line(dict(record))

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "BatchLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reading -----------------------------------------------------------

    def exists(self) -> bool:
        return os.path.exists(self.path) and os.path.getsize(self.path) > 0

    def records(self) -> Tuple[List[Dict[str, object]], bool]:
        """``(records, torn_tail)`` — every parseable record of the journal.

        A single unparseable **final** line is the signature of an append
        torn by a crash: it is dropped and reported via ``torn_tail``.
        An unparseable or non-dict line anywhere earlier, a missing or
        foreign header, or a version mismatch raise :class:`LedgerError` —
        resuming from a ledger that cannot be trusted could silently drop
        or duplicate work.
        """
        maybe_fail("ledger.read")
        if not self.exists():
            return [], False
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.read().split("\n")
        if lines and lines[-1] == "":
            lines.pop()  # the trailing newline of a clean final append
        records: List[Dict[str, object]] = []
        torn_tail = False
        for number, line in enumerate(lines):
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("record is not an object")
            except ValueError as exc:
                if number == len(lines) - 1:
                    torn_tail = True
                    break
                raise LedgerError(
                    f"ledger {self.path!r} is corrupt at line {number + 1}: {exc}"
                ) from exc
            records.append(record)
        if not records:
            if torn_tail:
                raise LedgerError(
                    f"ledger {self.path!r} has no readable records"
                )
            return [], False
        header = records[0]
        if header.get("type") != "header":
            raise LedgerError(
                f"ledger {self.path!r} does not start with a header record"
            )
        if header.get("version") != LEDGER_VERSION:
            raise LedgerError(
                f"ledger {self.path!r} has version {header.get('version')}, "
                f"this code reads version {LEDGER_VERSION}"
            )
        return records[1:], torn_tail

    def task_records(self) -> Dict[str, Dict[str, object]]:
        """Latest ``task`` record per fingerprint (journal order wins)."""
        latest: Dict[str, Dict[str, object]] = {}
        for record in self.records()[0]:
            if record.get("type") == "task" and "fingerprint" in record:
                latest[str(record["fingerprint"])] = record
        return latest

    def completed(self) -> Dict[str, Dict[str, object]]:
        """Fingerprints this batch never needs to re-run: ``ok`` records.

        ``failed`` and ``interrupted`` records are *not* completed — a
        resumed batch retries them (crash containment bounded the damage;
        the retry is free to succeed on a healthier machine).
        """
        return {
            fingerprint: record
            for fingerprint, record in self.task_records().items()
            if record.get("status") == STATUS_OK
        }

    def quarantined(self) -> List[Dict[str, object]]:
        """Every ``quarantine`` record, for post-mortems and reports."""
        return [
            record
            for record in self.records()[0]
            if record.get("type") == "quarantine"
        ]

    # -- compaction --------------------------------------------------------

    def compact(self) -> int:
        """Atomically rewrite the journal to its minimal resume state.

        Keeps the latest ``task`` record per fingerprint (in first-seen
        task order) and drops transient events; quarantine records are
        preserved.  Uses the fsync'd temp-file + rename idiom so a crash
        mid-compaction leaves the previous journal intact.  Returns the
        number of records written (header excluded).
        """
        self.close()
        records, _ = self.records()
        latest = self.task_records()
        kept: List[Dict[str, object]] = []
        seen: set = set()
        for record in records:
            if record.get("type") == "task":
                fingerprint = str(record.get("fingerprint"))
                if fingerprint in seen:
                    continue
                seen.add(fingerprint)
                kept.append(latest[fingerprint])
            elif record.get("type") == "quarantine":
                kept.append(record)
        directory = os.path.dirname(self.path) or "."
        handle, temp_path = tempfile.mkstemp(dir=directory, suffix=".jsonl.tmp")
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                stream.write(
                    json.dumps({"type": "header", "version": LEDGER_VERSION}) + "\n"
                )
                for record in kept:
                    stream.write(json.dumps(record, sort_keys=True) + "\n")
                stream.flush()
                os.fsync(stream.fileno())
            os.replace(temp_path, self.path)
        except BaseException:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            raise
        return len(kept)
