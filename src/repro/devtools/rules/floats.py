"""REP102 -- no ``==`` / ``!=`` between computed floating-point values.

Two floating-point expressions that are mathematically equal are not
reliably bit-equal: ``(a + b) - b == a`` fails for garden-variety
inputs, and a quantile crossing check written with ``==`` will pass or
fail depending on BLAS build and summation order.  For computed values
use a tolerance (``math.isclose`` / ``np.isclose``) or restructure the
comparison.

The rule is deliberately conservative -- static analysis cannot know
every type, so it only flags comparisons where one side *provably*
looks like a computed float:

* arithmetic involving a float literal, or any true-division /
  power expression (``x / y``, ``x ** 0.5``),
* calls to float-producing functions (``mean``, ``std``, ``sqrt``,
  ``np.quantile`` ...),
* a non-zero float literal compared against such an expression.

The zero-guard allowlist: comparing *anything* against literal zero
(``std == 0.0``) stays legal, because exact-zero checks against
degenerate denominators are a correct and common numerical idiom.
Plain name-vs-name or attribute-vs-literal comparisons (``self.nu ==
0.5`` dispatch on a user-set parameter) are never flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.analysis.project import ModuleInfo, dotted_name
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.rules.base import Rule

__all__ = ["FloatEqualityRule"]

_FLOAT_CALLS = frozenset(
    {
        "mean",
        "nanmean",
        "std",
        "nanstd",
        "var",
        "median",
        "average",
        "quantile",
        "nanquantile",
        "percentile",
        "sqrt",
        "exp",
        "expm1",
        "log",
        "log10",
        "log1p",
        "log2",
        "norm",
        "dot",
        "trapz",
        "interp",
        "hypot",
        "float",
    }
)


def _is_zero_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
        and float(node.value) == 0.0
    )


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _is_computed_float(node: ast.AST) -> bool:
    """Heuristic: does this expression provably produce a computed float?"""
    if isinstance(node, ast.UnaryOp):
        return _is_computed_float(node.operand)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, (ast.Div, ast.Pow)):
            return True
        return (
            _is_float_literal(node.left)
            or _is_float_literal(node.right)
            or _is_computed_float(node.left)
            or _is_computed_float(node.right)
        )
    if isinstance(node, ast.Call):
        dotted = dotted_name(node.func)
        if not dotted:
            return False
        return dotted.split(".")[-1] in _FLOAT_CALLS
    return False


class FloatEqualityRule(Rule):
    """Forbid exact equality between computed floating-point expressions."""

    rule_id = "REP102"
    name = "no-float-equality"
    summary = "no == / != on computed float expressions (zero guards allowed)"
    rationale = (
        "bitwise float equality depends on summation order and BLAS build; "
        "computed values need isclose or a restructured comparison"
    )
    scopes = frozenset({"src"})

    def visit_Compare(
        self, node: ast.Compare, module: ModuleInfo
    ) -> Iterator[Diagnostic]:
        """Flag ``==``/``!=`` pairs where one side is a computed float."""
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[index], operands[index + 1]
            if _is_zero_literal(left) or _is_zero_literal(right):
                continue  # the zero-guard allowlist
            computed_left = _is_computed_float(left)
            computed_right = _is_computed_float(right)
            if not (computed_left or computed_right):
                continue
            symbol = "==" if isinstance(op, ast.Eq) else "!="
            yield self.diagnostic(
                node,
                module,
                f"exact '{symbol}' on a computed float expression; use "
                "math.isclose/np.isclose or compare against an explicit "
                "tolerance (exact zero guards like 'std == 0.0' are exempt)",
            )
