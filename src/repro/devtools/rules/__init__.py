"""The reprolint rule registry: both rule packs in one table.

``ALL_RULES`` is the ordered tuple of rule *classes* (the engine
instantiates them per run, so rules can keep per-module state without
cross-run leakage): the per-module REP1xx rules, then the
whole-program REP2xx (:mod:`.concurrency`) and REP3xx
(:mod:`.conformal`) rules.  Adding a rule means: write the module,
import the class here, append it to ``ALL_RULES``, document it in
``docs/ANALYSIS.md``, and add fire/silent unit tests.
"""

from __future__ import annotations

from typing import Tuple, Type

from repro.devtools.rules.asserts import NoAssertRule
from repro.devtools.rules.base import AnalysisRule, Rule
from repro.devtools.rules.concurrency import (
    ClosureCaptureRule,
    TaskRngRule,
    UnorderedIterationRule,
    WallClockFingerprintRule,
)
from repro.devtools.rules.conformal import CalibrationLeakRule, RefitAfterCalibrateRule
from repro.devtools.rules.defaults import MutableDefaultRule
from repro.devtools.rules.docstrings import DocstringCoverageRule
from repro.devtools.rules.estimator import EstimatorContractRule
from repro.devtools.rules.exports import DunderAllRule
from repro.devtools.rules.floats import FloatEqualityRule
from repro.devtools.rules.rng import RngDisciplineRule
from repro.devtools.rules.validation import AlphaValidationRule

__all__ = [
    "ALL_RULES",
    "AlphaValidationRule",
    "AnalysisRule",
    "CalibrationLeakRule",
    "ClosureCaptureRule",
    "DocstringCoverageRule",
    "DunderAllRule",
    "EstimatorContractRule",
    "FloatEqualityRule",
    "MutableDefaultRule",
    "NoAssertRule",
    "RefitAfterCalibrateRule",
    "RngDisciplineRule",
    "Rule",
    "TaskRngRule",
    "UnorderedIterationRule",
    "WallClockFingerprintRule",
    "get_rule",
]

ALL_RULES: Tuple[Type[Rule], ...] = (
    RngDisciplineRule,
    FloatEqualityRule,
    MutableDefaultRule,
    NoAssertRule,
    DunderAllRule,
    EstimatorContractRule,
    AlphaValidationRule,
    DocstringCoverageRule,
    ClosureCaptureRule,
    TaskRngRule,
    UnorderedIterationRule,
    WallClockFingerprintRule,
    CalibrationLeakRule,
    RefitAfterCalibrateRule,
)


def get_rule(identifier: str) -> Type[Rule]:
    """Look a rule class up by id (``REP101``) or name (``rng-discipline``)."""
    for rule in ALL_RULES:
        if identifier in (rule.rule_id, rule.name):
            return rule
    raise KeyError(
        f"unknown rule {identifier!r}; known rules: "
        + ", ".join(f"{r.rule_id} ({r.name})" for r in ALL_RULES)
    )
