"""REP105 -- ``__all__`` consistency.

``__all__`` is the module's public contract: docs are generated from
it, ``import *`` follows it, and the API reference promises that
anything not re-exported is internal.  Three things can rot:

* a module forgets to declare ``__all__`` at all,
* ``__all__`` lists a name that no longer exists (renamed or deleted
  -- ``import *`` then raises ``AttributeError`` at a distance),
* a new public function/class never gets added, so the docs and the
  docstring-coverage rule (REP108) never see it.

The rule checks all three for every ``src`` module.  Only top-level
``def``/``class`` statements are *required* to be exported; public
constants may stay out of ``__all__`` (but when listed they must
exist).  Names bound under ``if``/``try`` at module level count as
defined, so version-gated imports work.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from repro.devtools.analysis.project import ModuleInfo
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.rules.base import Rule

__all__ = ["DunderAllRule", "read_dunder_all"]


def read_dunder_all(tree: ast.Module) -> Tuple[Optional[ast.AST], List[str]]:
    """Return the ``__all__`` node and listed names (``+=`` included).

    The node is ``None`` when the module never assigns ``__all__``.
    Only literal lists/tuples of string constants are understood; a
    dynamic ``__all__`` returns the assignment node with an empty name
    list so callers can decide how strict to be.
    """
    node_found: Optional[ast.AST] = None
    names: List[str] = []
    for statement in tree.body:
        target = None
        if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
            target = statement.targets[0]
        elif isinstance(statement, (ast.AugAssign, ast.AnnAssign)):
            target = statement.target
        if not (isinstance(target, ast.Name) and target.id == "__all__"):
            continue
        node_found = statement
        value = statement.value
        if isinstance(value, (ast.List, ast.Tuple)):
            for element in value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    names.append(element.value)
    return node_found, names


def _bound_names(statements: Iterable[ast.stmt]) -> Set[str]:
    """Names bound at module level, descending into if/try/with blocks."""
    bound: Set[str] = set()
    for statement in statements:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(statement.name)
        elif isinstance(statement, ast.Assign):
            for target in statement.targets:
                bound.update(_target_names(target))
        elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
            bound.update(_target_names(statement.target))
        elif isinstance(statement, ast.Import):
            for alias in statement.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(statement, ast.ImportFrom):
            for alias in statement.names:
                if alias.name != "*":
                    bound.add(alias.asname or alias.name)
        elif isinstance(statement, ast.If):
            bound |= _bound_names(statement.body) | _bound_names(statement.orelse)
        elif isinstance(statement, ast.Try):
            bound |= _bound_names(statement.body) | _bound_names(statement.finalbody)
            for handler in statement.handlers:
                bound |= _bound_names(handler.body)
            bound |= _bound_names(statement.orelse)
        elif isinstance(statement, ast.With):
            bound |= _bound_names(statement.body)
    return bound


def _target_names(target: ast.AST) -> Set[str]:
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        names: Set[str] = set()
        for element in target.elts:
            names |= _target_names(element)
        return names
    return set()


class DunderAllRule(Rule):
    """Require a complete, truthful ``__all__`` in every src module."""

    rule_id = "REP105"
    name = "all-consistency"
    summary = "__all__ present, every listed name exists, public defs listed"
    rationale = (
        "__all__ is the public-API contract the docs and import * rely "
        "on; a stale or missing one hides API drift from review"
    )
    scopes = frozenset({"src"})

    def finish_module(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        """Check declaration, existence, and completeness of ``__all__``."""
        tree = module.tree
        node, listed = read_dunder_all(tree)
        if node is None:
            if not tree.body:
                return  # genuinely empty module (namespace placeholder)
            yield self.diagnostic(
                tree.body[0],
                module,
                "module does not declare __all__; every library module "
                "must state its public API explicitly",
            )
            return

        bound = _bound_names(tree.body)
        for exported in listed:
            if exported not in bound:
                yield self.diagnostic(
                    node,
                    module,
                    f"__all__ lists {exported!r} but the module never "
                    "defines or imports it",
                )

        listed_set = set(listed)
        for statement in tree.body:
            if not isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if statement.name.startswith("_"):
                continue
            if statement.name not in listed_set:
                kind = "class" if isinstance(statement, ast.ClassDef) else "function"
                yield self.diagnostic(
                    statement,
                    module,
                    f"public {kind} '{statement.name}' is missing from "
                    "__all__; export it or rename it with a leading "
                    "underscore",
                )
