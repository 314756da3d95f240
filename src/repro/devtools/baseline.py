"""Committed baseline of accepted findings, both rule packs.

A baseline lets a project adopt a rule incrementally: existing
findings are recorded once (``--write-baseline``), committed, and
filtered out of subsequent runs, so CI only fails on *new* findings.

Entries are keyed by ``(path, rule_id, message)`` -- deliberately not
by line number, so unrelated edits above a finding do not invalidate
the baseline.  The path is the finding's file resolved and made
relative to the baseline file's directory, so one tree gives the same
keys whether it was named by a relative or an absolute path.  Matching
is multiset-aware: two identical findings in one file need two baseline
entries, and fixing one of them retires one entry.  ``unused_entries`` reports baseline rows that no longer match
anything so the file can be shrunk as debt is paid down.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from repro.devtools.diagnostics import Diagnostic

__all__ = ["Baseline", "load_baseline", "write_baseline"]

_VERSION = 1

_Key = Tuple[str, str, str]


def _key(diagnostic: Diagnostic, root: Path) -> _Key:
    path = os.path.relpath(Path(diagnostic.path).resolve(), root)
    return (Path(path).as_posix(), diagnostic.rule_id, diagnostic.message)


def _root(baseline_path: Union[str, Path]) -> Path:
    """The directory a baseline file's paths are relative to."""
    return Path(baseline_path).resolve().parent


class Baseline:
    """An in-memory baseline: a multiset of accepted finding keys.

    ``root`` is the directory the entries' paths are relative to (the
    baseline file's own directory).
    """

    def __init__(
        self, entries: Sequence[_Key] = (), root: Union[str, Path] = "."
    ) -> None:
        self._entries: Counter = Counter(entries)
        self._root = Path(root).resolve()

    def __len__(self) -> int:
        return sum(self._entries.values())

    def filter(
        self, diagnostics: Sequence[Diagnostic]
    ) -> Tuple[List[Diagnostic], List[Diagnostic]]:
        """Split findings into (new, baselined) against this baseline."""
        remaining = Counter(self._entries)
        new: List[Diagnostic] = []
        matched: List[Diagnostic] = []
        for diagnostic in diagnostics:
            key = _key(diagnostic, self._root)
            if remaining.get(key, 0) > 0:
                remaining[key] -= 1
                matched.append(diagnostic)
            else:
                new.append(diagnostic)
        return new, matched

    def unused_entries(self, diagnostics: Sequence[Diagnostic]) -> List[_Key]:
        """Baseline rows no current finding consumes (stale debt)."""
        remaining = Counter(self._entries)
        for diagnostic in diagnostics:
            key = _key(diagnostic, self._root)
            if remaining.get(key, 0) > 0:
                remaining[key] -= 1
        stale: List[_Key] = []
        for key, count in sorted(remaining.items()):
            stale.extend([key] * count)
        return stale


def load_baseline(path: str) -> Baseline:
    """Read a baseline file; malformed content raises ``ValueError``."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: baseline is not valid JSON: {error}") from None
    if not isinstance(data, dict) or data.get("version") != _VERSION:
        raise ValueError(
            f"{path}: unsupported baseline format (expected version {_VERSION})"
        )
    findings = data.get("findings", [])
    if not isinstance(findings, list):
        raise ValueError(f"{path}: baseline 'findings' must be a list")
    entries: List[_Key] = []
    for row in findings:
        if not isinstance(row, dict) or not all(
            isinstance(row.get(k), str) for k in ("path", "rule_id", "message")
        ):
            raise ValueError(
                f"{path}: each baseline finding needs string "
                "'path', 'rule_id' and 'message' fields"
            )
        entries.append((row["path"], row["rule_id"], row["message"]))
    return Baseline(entries, root=_root(path))


def write_baseline(path: str, diagnostics: Sequence[Diagnostic]) -> None:
    """Serialise current findings as the new baseline (sorted, stable)."""
    root = _root(path)
    rows: List[Dict[str, str]] = [
        {"path": key[0], "rule_id": key[1], "message": key[2]}
        for key in sorted(_key(d, root) for d in diagnostics)
    ]
    document = {"version": _VERSION, "findings": rows}
    Path(path).write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
