"""Rule protocol: how a reprolint check plugs into the engine.

A rule is a small stateful object, and both rule packs share this one
base.  A per-module (REP1xx) rule defines ``visit_<Type>`` handlers,
which the engine dispatches from one shared walk of each module's tree
(rules never re-walk the tree themselves unless they need a private
pass), and may yield findings that need the whole module from
:meth:`Rule.finish_module`.  A whole-program (REP2xx/REP3xx) rule
overrides :meth:`Rule.check` and sees the project at once.  Either way
handlers yield :class:`~repro.devtools.diagnostics.Diagnostic` objects;
the engine applies config filtering and inline suppressions afterwards.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Tuple

from repro.devtools.diagnostics import Diagnostic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.devtools.analysis.interproc import ProjectContext
    from repro.devtools.analysis.project import ModuleInfo

__all__ = ["AnalysisRule", "Rule"]


class Rule:
    """Base class for all reprolint rules.

    Class attributes
    ----------------
    rule_id:
        Stable machine id (``"REP1xx"``); used in reports, config, and
        ``# reprolint: disable=`` comments.
    name:
        Human-readable slug, also accepted in suppressions and config.
    summary:
        One-line description shown by ``--list-rules``.
    rationale:
        Why the rule exists (shown by ``--list-rules`` and the docs).
    scopes:
        File roles whose modules the per-module handlers visit:
        ``"src"``, ``"test"`` or both.  Path→role classification lives
        in the project model.
    """

    rule_id: str = "REP999"
    name: str = "abstract-rule"
    summary: str = ""
    rationale: str = ""
    scopes: FrozenSet[str] = frozenset({"src"})

    def applies_to(self, role: str) -> bool:
        """Return whether this rule runs on files classified as ``role``."""
        return role in self.scopes

    def finish_module(self, module: "ModuleInfo") -> Iterable[Diagnostic]:
        """Yield findings that need the whole module to have been seen."""
        return ()

    def check(self, context: "ProjectContext") -> Iterable[Diagnostic]:
        """Yield whole-program findings; per-module rules have none."""
        return ()

    def handlers(self) -> Dict[type, Tuple[str, ...]]:
        """Map AST node types to the names of ``visit_*`` methods defined.

        The engine uses this to dispatch each node exactly once per rule
        without ``getattr`` probing on every node.
        """
        table: Dict[type, Tuple[str, ...]] = {}
        for attr in dir(self):
            if not attr.startswith("visit_"):
                continue
            node_type = getattr(ast, attr[len("visit_") :], None)
            if isinstance(node_type, type) and issubclass(node_type, ast.AST):
                table[node_type] = table.get(node_type, ()) + (attr,)
        return table

    def diagnostic(
        self, node: ast.AST, module: "ModuleInfo", message: str
    ) -> Diagnostic:
        """Build a finding pinned to ``node`` in ``module``."""
        return Diagnostic(
            path=module.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            rule_name=self.name,
            message=message,
        )


class AnalysisRule(Rule):
    """Base class for whole-program (REP2xx/REP3xx) rules.

    The rule sees every loaded module whatever its role; per-path
    coverage (this repository keeps the pack off ``tests/``) comes from
    config scopes.
    """

    scopes = frozenset({"src", "test"})

    def check(self, context: "ProjectContext") -> List[Diagnostic]:
        """Return every finding of this rule across the project."""
        raise NotImplementedError
