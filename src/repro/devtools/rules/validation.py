"""REP107 -- validation parity for the coverage level ``alpha``.

``alpha`` is the miscoverage budget behind every guarantee this
library prints.  An ``alpha`` outside ``(0, 1)`` that is silently
accepted produces garbage quantile indices deep inside the conformal
machinery -- far from the call site, with no traceback pointing at
the real mistake.  The repository contract: every *public* function
or constructor that accepts a parameter literally named ``alpha``
must either

* validate it locally (an ``if`` mentioning ``alpha`` that raises), or
* visibly delegate it (pass ``alpha`` itself onward as a call
  argument, e.g. to a validating constructor or helper).

Purely-arithmetic uses (``1 - alpha/2`` and friends) with no guard and
no delegation are flagged: the function computes with an unchecked
level.  Private helpers (leading underscore) are exempt -- their
callers already validated.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Union

from repro.devtools.analysis.project import ModuleInfo
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.rules.base import Rule

__all__ = ["AlphaValidationRule"]

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _takes_alpha(function: _FunctionNode) -> bool:
    names = [
        arg.arg
        for arg in (
            *function.args.posonlyargs,
            *function.args.args,
            *function.args.kwonlyargs,
        )
    ]
    return "alpha" in names


def _body_nodes(function: _FunctionNode) -> List[ast.AST]:
    # Nested defs are included deliberately: a closure capturing `alpha`
    # and passing it on (the experiment-builder pattern) is delegation.
    collected: List[ast.AST] = []
    for statement in function.body:
        collected.extend(ast.walk(statement))
    return collected


def _mentions_alpha(node: ast.AST) -> bool:
    return any(
        isinstance(child, ast.Name) and child.id == "alpha"
        for child in ast.walk(node)
    )


def _validates_locally(nodes: List[ast.AST]) -> bool:
    for node in nodes:
        if isinstance(node, ast.If) and _mentions_alpha(node.test):
            if any(isinstance(inner, ast.Raise) for inner in ast.walk(node)):
                return True
    return False


def _delegates(nodes: List[ast.AST]) -> bool:
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        arguments = [*node.args, *[kw.value for kw in node.keywords]]
        if any(
            isinstance(argument, ast.Name) and argument.id == "alpha"
            for argument in arguments
        ):
            return True
    return False


class AlphaValidationRule(Rule):
    """Require every public ``alpha`` entry point to validate or delegate."""

    rule_id = "REP107"
    name = "validation-parity"
    summary = "public functions taking alpha must validate or delegate it"
    rationale = (
        "an unchecked miscoverage level fails far from the call site "
        "inside quantile index arithmetic; the guarantee printed to the "
        "user is then silently wrong"
    )
    scopes = frozenset({"src"})

    def _is_public_entry(self, function: _FunctionNode) -> bool:
        name = function.name
        if name != "__init__" and name.startswith("_"):
            return False
        # Methods of private classes are internal plumbing: their callers
        # sit in the same module and have already validated.
        parent = getattr(function, "_reprolint_parent", None)
        while parent is not None:
            if isinstance(
                parent, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ) and parent.name.startswith("_"):
                return False
            parent = getattr(parent, "_reprolint_parent", None)
        return True

    def _check(
        self, node: _FunctionNode, module: ModuleInfo
    ) -> Iterator[Diagnostic]:
        if not self._is_public_entry(node) or not _takes_alpha(node):
            return
        nodes = _body_nodes(node)
        if _validates_locally(nodes) or _delegates(nodes):
            return
        yield self.diagnostic(
            node,
            module,
            f"'{node.name}' accepts alpha but neither validates it "
            "(raise on alpha outside (0, 1)) nor passes it to a "
            "validating callee; an out-of-range level would fail deep "
            "inside quantile arithmetic",
        )

    def visit_FunctionDef(
        self, node: ast.FunctionDef, module: ModuleInfo
    ) -> Iterator[Diagnostic]:
        """Check one function or method."""
        return self._check(node, module)

    def visit_AsyncFunctionDef(
        self, node: ast.AsyncFunctionDef, module: ModuleInfo
    ) -> Iterator[Diagnostic]:
        """Check one async function."""
        return self._check(node, module)
