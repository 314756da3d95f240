"""Append-only run journal: checkpoint/resume for experiment grids.

A multi-hour grid (Tables I-IV: model x alpha x seed x corner cells)
must survive a SIGKILL.  The journal is the simplest structure with
that property: one JSONL file, one line per completed cell, appended
with flush+fsync so a crash can only ever lose the line being written.
On resume, completed cells are skipped and their recorded results
reused -- bit-identical to an uninterrupted run, because JSON round-
trips Python floats exactly (``float(repr(x)) == x``).

File layout (``schema_version`` 1)::

    {"kind": "header", "schema_version": 1, "meta": {...}}
    {"kind": "cell", "fingerprint": "<sha256>", "key": [...], "payload": {...}}
    ...

Cells are keyed by a *fingerprint*: the SHA-256 of the canonical JSON
of everything that determines the result (grid kind, model/method name,
temperature, read point, feature set, alpha, profile, seed, git sha).
Any configuration change -- a different profile budget, a new commit --
changes the fingerprint, so stale journal entries are never silently
reused; they are simply not matched.

Truncated final lines (the crash signature) are tolerated and dropped;
corruption *before* the final line means the file was edited or the
disk lied, and raises :class:`JournalError` rather than resuming from
bad state.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional, Union

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "JournalError",
    "RunJournal",
    "canonical_json",
    "cell_fingerprint",
]

JOURNAL_SCHEMA_VERSION = 1


class JournalError(ValueError):
    """A journal file violates the schema (corrupt, wrong version)."""


def canonical_json(value: Any) -> str:
    """Serialise ``value`` to canonical JSON (sorted keys, no spaces).

    The canonical form is what gets hashed into fingerprints, so two
    dicts with the same content always fingerprint identically
    regardless of insertion order.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def cell_fingerprint(fields: Mapping[str, Any]) -> str:
    """Stable SHA-256 hex fingerprint of a cell's configuration.

    ``fields`` must be JSON-serialisable and must contain *everything*
    that determines the cell's result; see the module docstring for the
    grid convention.
    """
    if not fields:
        raise ValueError("fingerprint fields must be non-empty")
    digest = hashlib.sha256(canonical_json(dict(fields)).encode("utf-8"))
    return digest.hexdigest()


class RunJournal:
    """Append-only JSONL journal of completed grid cells.

    Parameters
    ----------
    path:
        Journal file location.  A missing file means a fresh run; the
        header line is written on the first :meth:`record`.
    meta:
        Free-form run metadata stored in the header (grid kind, profile
        name, git sha).  Informational only -- resume correctness rests
        on fingerprints, not on the header.
    """

    def __init__(
        self,
        path: Union[str, Path],
        meta: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.path = Path(path)
        self._meta: Dict[str, Any] = dict(meta) if meta else {}
        self._header_written = self.path.exists() and self.path.stat().st_size > 0
        # Reentrant: record() holds the lock across the header check and
        # the cell append so concurrent writers interleave whole lines,
        # never fragments.
        self._lock = threading.RLock()

    def _entries(self) -> Iterator[Dict[str, Any]]:
        """Yield parsed journal lines, dropping a truncated final line."""
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        for index, line in enumerate(lines):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                entry = json.loads(stripped)
            except json.JSONDecodeError as error:
                if index == len(lines) - 1:
                    # The crash signature: a partially flushed final
                    # line.  Dropping it is exactly the resume contract.
                    return
                raise JournalError(
                    f"{self.path}: corrupt journal entry on line {index + 1}: "
                    f"{error}"
                ) from error
            if not isinstance(entry, dict) or "kind" not in entry:
                raise JournalError(
                    f"{self.path}: line {index + 1} is not a journal entry"
                )
            if index == 0:
                self._validate_header(entry)
            yield entry

    def _validate_header(self, entry: Dict[str, Any]) -> None:
        if entry.get("kind") != "header":
            raise JournalError(
                f"{self.path}: first line must be the journal header"
            )
        version = entry.get("schema_version")
        if version != JOURNAL_SCHEMA_VERSION:
            raise JournalError(
                f"{self.path}: journal schema_version {version!r} is not "
                f"supported (this reader understands {JOURNAL_SCHEMA_VERSION})"
            )

    def completed(self) -> Dict[str, Dict[str, Any]]:
        """Map fingerprint -> cell entry for every recorded cell.

        Returns an empty mapping when the journal does not exist yet.
        Later duplicates win (a cell re-recorded after a resume race is
        harmless: payloads for one fingerprint are identical by
        construction).
        """
        if not self.path.exists():
            return {}
        cells: Dict[str, Dict[str, Any]] = {}
        for entry in self._entries():
            if entry.get("kind") != "cell":
                continue
            fingerprint = entry.get("fingerprint")
            if not isinstance(fingerprint, str):
                raise JournalError(
                    f"{self.path}: cell entry without a fingerprint"
                )
            cells[fingerprint] = entry
        return cells

    def _append(self, entry: Dict[str, Any]) -> None:
        line = json.dumps(entry, sort_keys=True) + "\n"
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())

    def _ensure_header(self) -> None:
        if self._header_written:
            return
        self._append(
            {
                "kind": "header",
                "schema_version": JOURNAL_SCHEMA_VERSION,
                "meta": self._meta,
            }
        )
        self._header_written = True

    def record(
        self,
        fingerprint: str,
        key: Any,
        payload: Mapping[str, Any],
    ) -> None:
        """Append one completed cell (header written first if needed).

        ``key`` is the human-readable cell identity (stored for
        inspection); ``payload`` is the JSON-serialisable result.  The
        line is flushed and fsynced before returning: once ``record``
        returns, the cell survives any crash.  The grids record every
        cell from the parent process; concurrent threads are safe too
        (one journal object per run), but the journal is not meant to be
        shared across processes.
        """
        if not fingerprint:
            raise ValueError("fingerprint must be non-empty")
        with self._lock:
            self._ensure_header()
            self._append(
                {
                    "kind": "cell",
                    "fingerprint": fingerprint,
                    "key": key,
                    "payload": dict(payload),
                }
            )

    def __len__(self) -> int:
        return len(self.completed())

    def __repr__(self) -> str:
        return f"RunJournal(path={str(self.path)!r}, cells={len(self)})"
