"""The diagnostic record emitted by every rule.

A diagnostic pins one finding to a ``path:line:column`` location plus
the rule that produced it.  Keeping this a frozen dataclass makes
findings hashable (deduplication), orderable by file, position, rule
and message (stable report output), and trivially serialisable (the
JSON reporter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

__all__ = ["Diagnostic", "PARSE_ERROR_ID"]

PARSE_ERROR_ID = "REP000"
"""Rule id reserved for files the engine cannot read or parse."""


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One lint finding at a specific source location.

    Attributes
    ----------
    path:
        File the finding was made in (as given to the linter).
    line, column:
        1-based line and 0-based column of the offending node.
    rule_id:
        Stable machine identifier, e.g. ``"REP102"``.
    rule_name:
        Human-readable slug, e.g. ``"no-float-equality"``.
    message:
        What is wrong and what to do instead.
    """

    path: str
    line: int
    column: int
    rule_id: str
    rule_name: str
    message: str

    def location(self) -> str:
        """Return the ``path:line:column`` prefix used by reporters."""
        return f"{self.path}:{self.line}:{self.column}"

    def as_dict(self) -> Dict[str, Any]:
        """Return a JSON-serialisable view of the finding."""
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "rule_id": self.rule_id,
            "rule_name": self.rule_name,
            "message": self.message,
        }
