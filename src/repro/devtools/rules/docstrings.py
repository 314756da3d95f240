"""REP108 -- docstring coverage for the exported API.

If a name is in ``__all__`` it is public API, and public API without a
docstring is an interface whose contract lives only in the author's
head.  The rule requires:

* a module docstring on every ``src`` module, and
* a docstring on every ``__all__``-exported function/class *defined in
  that module* (re-exports are checked where they are defined).

Constants listed in ``__all__`` are exempt -- assignments cannot carry
docstrings -- and so are ``@overload`` stubs.  Method-level coverage is
deliberately out of scope: ``__all__`` is the exported contract, and
the class docstring owns its methods.
"""

from __future__ import annotations

import ast
from typing import Iterator, Union

from repro.devtools.analysis.project import ModuleInfo, dotted_name
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.rules.base import Rule
from repro.devtools.rules.exports import read_dunder_all

__all__ = ["DocstringCoverageRule"]

_Documentable = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef]


def _has_docstring(node: _Documentable) -> bool:
    return ast.get_docstring(node, clean=False) is not None


def _is_overload_stub(node: ast.AST) -> bool:
    decorators = getattr(node, "decorator_list", [])
    return any(dotted_name(d).split(".")[-1] == "overload" for d in decorators)


class DocstringCoverageRule(Rule):
    """Require docstrings on modules and everything exported in ``__all__``."""

    rule_id = "REP108"
    name = "docstring-coverage"
    summary = "module + every __all__-exported def/class carries a docstring"
    rationale = (
        "the API reference is generated from __all__; an undocumented "
        "export ships a contract nobody wrote down"
    )
    scopes = frozenset({"src"})

    def finish_module(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        """Check the module docstring and each exported definition."""
        tree = module.tree
        if tree.body and ast.get_docstring(tree, clean=False) is None:
            yield self.diagnostic(
                tree.body[0],
                module,
                "module has no docstring; state what the module provides "
                "and why it exists",
            )
        _, exported = read_dunder_all(tree)
        exported_set = set(exported)
        for statement in tree.body:
            if not isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if statement.name not in exported_set:
                continue
            if not _has_docstring(statement) and not _is_overload_stub(statement):
                kind = "class" if isinstance(statement, ast.ClassDef) else "function"
                yield self.diagnostic(
                    statement,
                    module,
                    f"exported {kind} '{statement.name}' has no docstring",
                )
