"""REP103 -- no mutable default arguments.

A default evaluated once at ``def`` time and mutated inside the body
leaks state across calls.  In modelling code this is how "fit results
depend on how many times you called the helper before" bugs are born
-- exactly the hidden statefulness the reproducibility contract bans.
Use ``None`` and construct the container inside the function.

Flags list/dict/set literals and comprehensions, and calls to the
``list``/``dict``/``set``/``bytearray`` constructors, used as defaults
for positional or keyword-only parameters (lambdas included).
"""

from __future__ import annotations

import ast
from typing import Iterator, Union

from repro.devtools.analysis.project import ModuleInfo, dotted_name
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.rules.base import Rule

__all__ = ["MutableDefaultRule"]

_MUTABLE_LITERALS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)
_MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set", "bytearray", "defaultdict"})

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]


def _is_mutable(node: ast.AST) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        return dotted_name(node.func).split(".")[-1] in _MUTABLE_CONSTRUCTORS
    return False


class MutableDefaultRule(Rule):
    """Forbid mutable default argument values."""

    rule_id = "REP103"
    name = "no-mutable-defaults"
    summary = "no list/dict/set (literals or constructors) as defaults"
    rationale = (
        "defaults are evaluated once; mutating one leaks state between "
        "calls and makes results depend on call history"
    )
    scopes = frozenset({"src", "test"})

    def _check(
        self, node: _FunctionNode, module: ModuleInfo
    ) -> Iterator[Diagnostic]:
        label = getattr(node, "name", "<lambda>")
        for default in (*node.args.defaults, *node.args.kw_defaults):
            if default is not None and _is_mutable(default):
                yield self.diagnostic(
                    default,
                    module,
                    f"mutable default argument in '{label}'; default to None "
                    "and build the container inside the function",
                )

    def visit_FunctionDef(
        self, node: ast.FunctionDef, module: ModuleInfo
    ) -> Iterator[Diagnostic]:
        """Check defaults of a plain function or method."""
        return self._check(node, module)

    def visit_AsyncFunctionDef(
        self, node: ast.AsyncFunctionDef, module: ModuleInfo
    ) -> Iterator[Diagnostic]:
        """Check defaults of an async function."""
        return self._check(node, module)

    def visit_Lambda(
        self, node: ast.Lambda, module: ModuleInfo
    ) -> Iterator[Diagnostic]:
        """Check defaults of a lambda."""
        return self._check(node, module)
