"""REP101 -- RNG discipline: no legacy ``numpy.random`` module calls.

Calls like ``np.random.seed(...)`` or ``np.random.normal(...)`` draw
from (or mutate) one hidden process-global ``RandomState``.  Any such
call makes results depend on import order and on every other draw in
the process -- which silently breaks the exchangeability that the
conformal coverage guarantee rests on, and makes experiments
irreproducible.  The repository contract is explicit generator
passing: accept a seed/``np.random.Generator`` parameter and thread it
through (see ``repro.models.base.check_random_state``).

Flags, in both src and tests:

* calls to anything under ``numpy.random`` except the explicitly
  allowed modern constructors (``default_rng``, ``Generator``,
  ``SeedSequence`` and the bit generators),
* the same functions imported directly (``from numpy.random import
  seed``) and then called,
* ``numpy.random.RandomState(...)`` -- legacy even when seeded.

Names resolve through the module's import alias map in the project
model, the same resolver the whole-program rules use.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.analysis.project import ModuleInfo, resolve_dotted
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.rules.base import Rule

__all__ = ["RngDisciplineRule"]

_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)


class RngDisciplineRule(Rule):
    """Forbid the process-global legacy ``numpy.random`` API."""

    rule_id = "REP101"
    name = "rng-discipline"
    summary = "no np.random.seed / legacy global-state np.random calls"
    rationale = (
        "global RNG state couples every draw in the process; conformal "
        "splits must come from an explicitly passed np.random.Generator"
    )
    scopes = frozenset({"src", "test"})

    def visit_Call(self, node: ast.Call, module: ModuleInfo) -> Iterator[Diagnostic]:
        """Flag calls resolving into the legacy ``numpy.random`` surface."""
        full = resolve_dotted(module, node.func)
        if not full.startswith("numpy.random."):
            return
        member = full[len("numpy.random.") :].split(".")[0]
        if member in _ALLOWED:
            return
        if member == "seed":
            advice = (
                "np.random.seed mutates the process-global RNG; pass an "
                "explicit np.random.Generator (see check_random_state) instead"
            )
        elif member == "RandomState":
            advice = (
                "np.random.RandomState is the legacy RNG; construct "
                "np.random.default_rng(seed) instead"
            )
        else:
            advice = (
                f"np.random.{member} draws from the hidden global RandomState; "
                "call the method on an explicitly passed np.random.Generator"
            )
        yield self.diagnostic(node, module, advice)
