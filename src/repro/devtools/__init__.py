"""Development tooling enforcing the repository's reproducibility contracts.

The coverage guarantee of split CP / CQR (:mod:`repro.core`) rests on
statistical hygiene that ordinary review cannot reliably police: no
module-level global RNG, no hidden state mutation inside ``predict``,
no silently-skipped ``alpha`` validation, no calibration rows reaching
a ``fit``, no completion-order results from parallel tasks.
``repro.devtools`` provides ``reprolint`` -- a stdlib-``ast``
static-analysis suite with two rule packs, per-module contracts
(REP1xx) and whole-program flow rules (REP2xx/REP3xx), run from one
parse of the files -- so those contracts are machine-checked on every
change.

Run it as::

    python -m repro analyze src tests

or programmatically::

    from repro.devtools import analyze_paths, load_config
    result = analyze_paths(["src", "tests"], config=load_config("."))
    result.diagnostics

Rules, rationale, configuration and the suppression syntax are
documented in ``docs/ANALYSIS.md``.
"""

from __future__ import annotations

from repro.devtools.analysis.project import classify_role
from repro.devtools.config import LintConfig, load_config
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.engine import AnalysisResult, analyze_paths, lint_source
from repro.devtools.reporters import render_json, render_sarif, render_text
from repro.devtools.rules import ALL_RULES, get_rule

__all__ = [
    "ALL_RULES",
    "AnalysisResult",
    "Diagnostic",
    "LintConfig",
    "analyze_paths",
    "classify_role",
    "get_rule",
    "lint_source",
    "load_config",
    "render_json",
    "render_sarif",
    "render_text",
]
