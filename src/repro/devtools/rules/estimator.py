"""REP106 -- the estimator contract: ``fit`` chains, ``predict`` is pure.

Every estimator in this repository follows the scikit-learn protocol
(:mod:`repro.models.base`): ``fit(X, y)`` returns ``self`` so calls
chain and :func:`~repro.models.base.clone`-based cross-validation
works, and prediction methods are *read-only* -- an estimator whose
``predict``/``predict_interval`` mutates ``self`` gives different
answers depending on how often it was queried, which destroys both
reproducibility and the exchangeability bookkeeping of the conformal
wrappers (the calibration state used at prediction time must be
exactly the state ``fit`` left behind).

Checks, per class in ``src``:

* ``fit`` must ``return self`` (an abstract body that only raises is
  exempt), and must not return anything else on any path;
* ``predict`` and every ``predict_*`` method must not assign to
  ``self.<attr>`` (including augmented assigns and ``setattr(self,
  ...)``); state updates belong in ``fit`` or an explicit ``update``.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Union

from repro.devtools.analysis.project import ModuleInfo
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.rules.base import Rule

__all__ = ["EstimatorContractRule"]

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _own_statements(function: _FunctionNode) -> List[ast.AST]:
    """All nodes of a function body, excluding nested function/class scopes."""
    collected: List[ast.AST] = []
    stack: List[ast.AST] = list(function.body)
    while stack:
        node = stack.pop()
        collected.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue  # different scope; its returns/assigns are not ours
        stack.extend(ast.iter_child_nodes(node))
    return collected


def _is_self_attribute(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _is_super_fit_call(node: ast.AST) -> bool:
    """Match the ``return super().fit(...)`` chaining idiom."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "fit"
        and isinstance(node.func.value, ast.Call)
        and isinstance(node.func.value.func, ast.Name)
        and node.func.value.func.id == "super"
    )


class EstimatorContractRule(Rule):
    """Enforce ``fit -> self`` and side-effect-free prediction methods."""

    rule_id = "REP106"
    name = "estimator-contract"
    summary = "fit returns self; predict/predict_* never assign to self"
    rationale = (
        "chainable fit is what clone/CV assume; a predict that mutates "
        "state makes answers depend on query history and invalidates "
        "the calibration snapshot conformal wrappers rely on"
    )
    scopes = frozenset({"src"})

    def visit_ClassDef(
        self, node: ast.ClassDef, module: ModuleInfo
    ) -> Iterator[Diagnostic]:
        """Audit ``fit`` and prediction methods of one class."""
        for member in node.body:
            if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if member.name == "fit":
                yield from self._check_fit(member, node, module)
            elif member.name == "predict" or member.name.startswith("predict_"):
                yield from self._check_predict(member, node, module)

    def _check_fit(
        self, method: _FunctionNode, owner: ast.ClassDef, module: ModuleInfo
    ) -> Iterator[Diagnostic]:
        own = _own_statements(method)
        returns = [n for n in own if isinstance(n, ast.Return)]
        raises = [n for n in own if isinstance(n, ast.Raise)]
        if not returns:
            if raises:
                return  # abstract/NotImplementedError-style stub
            yield self.diagnostic(
                method,
                module,
                f"{owner.name}.fit never returns; the estimator contract "
                "requires 'return self' so calls chain and clone()-based "
                "CV works",
            )
            return
        for statement in returns:
            value = statement.value
            if _is_super_fit_call(value):
                continue  # the parent's fit is held to the same contract
            if not (isinstance(value, ast.Name) and value.id == "self"):
                yield self.diagnostic(
                    statement,
                    module,
                    f"{owner.name}.fit must 'return self', not another "
                    "value; put derived results in trailing-underscore "
                    "attributes",
                )

    def _check_predict(
        self, method: _FunctionNode, owner: ast.ClassDef, module: ModuleInfo
    ) -> Iterator[Diagnostic]:
        for statement in _own_statements(method):
            targets: List[ast.AST] = []
            if isinstance(statement, ast.Assign):
                targets = list(statement.targets)
            elif isinstance(statement, (ast.AugAssign, ast.AnnAssign)):
                targets = [statement.target]
            elif (
                isinstance(statement, ast.Call)
                and isinstance(statement.func, ast.Name)
                and statement.func.id == "setattr"
                and statement.args
                and isinstance(statement.args[0], ast.Name)
                and statement.args[0].id == "self"
            ):
                yield self.diagnostic(
                    statement,
                    module,
                    f"{owner.name}.{method.name} calls setattr(self, ...); "
                    "prediction must not mutate estimator state",
                )
                continue
            for target in targets:
                flattened = (
                    target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]
                )
                if any(_is_self_attribute(t) for t in flattened):
                    yield self.diagnostic(
                        statement,
                        module,
                        f"{owner.name}.{method.name} assigns to self.*; "
                        "prediction must be read-only -- move state "
                        "updates to fit() or an explicit update() method",
                    )
