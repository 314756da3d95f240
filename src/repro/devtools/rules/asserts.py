"""REP104 -- no ``assert`` statements in library code.

``python -O`` strips every ``assert``; a precondition or invariant
expressed that way silently stops being checked in optimised
deployments.  Library code must raise explicit exceptions
(``ValueError`` / ``TypeError`` / ``RuntimeError``) that survive any
interpreter flag.  Tests are exempt -- pytest's ``assert`` rewriting
is the point there -- which is why this rule is scoped to ``src``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.analysis.project import ModuleInfo
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.rules.base import Rule

__all__ = ["NoAssertRule"]


class NoAssertRule(Rule):
    """Forbid ``assert`` outside tests."""

    rule_id = "REP104"
    name = "no-assert-in-src"
    summary = "library code must raise explicit exceptions, not assert"
    rationale = (
        "python -O removes asserts, so invariants guarded by them vanish "
        "in optimised builds; raise ValueError/RuntimeError instead"
    )
    scopes = frozenset({"src"})

    def visit_Assert(
        self, node: ast.Assert, module: ModuleInfo
    ) -> Iterator[Diagnostic]:
        """Flag every ``assert`` statement in src-role files."""
        yield self.diagnostic(
            node,
            module,
            "assert is stripped under python -O; raise an explicit "
            "exception (ValueError/RuntimeError) so the check survives "
            "optimised builds",
        )
