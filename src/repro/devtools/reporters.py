"""Render findings as text, JSON or SARIF 2.1.0.

All reporters are pure functions from a diagnostic list to a string so
they stay trivially testable; the CLI decides where the string goes.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Type

from repro.devtools.diagnostics import Diagnostic
from repro.devtools.rules.base import Rule

__all__ = ["render_json", "render_sarif", "render_text"]


def render_text(diagnostics: Sequence[Diagnostic], checked_files: int = 0) -> str:
    """GCC-style ``path:line:col: RULE [name] message`` lines plus summary."""
    lines: List[str] = [
        f"{d.location()}: {d.rule_id} [{d.rule_name}] {d.message}"
        for d in diagnostics
    ]
    if diagnostics:
        by_rule = Counter(d.rule_id for d in diagnostics)
        breakdown = ", ".join(
            f"{rule_id}: {count}" for rule_id, count in sorted(by_rule.items())
        )
        lines.append("")
        lines.append(
            f"found {len(diagnostics)} issue(s) in {checked_files} file(s) "
            f"({breakdown})"
        )
    else:
        lines.append(f"checked {checked_files} file(s): all clean")
    return "\n".join(lines)


def render_json(diagnostics: Sequence[Diagnostic], checked_files: int = 0) -> str:
    """Stable JSON document: ``{version, summary, diagnostics}``."""
    by_rule = Counter(d.rule_id for d in diagnostics)
    document = {
        "version": 1,
        "summary": {
            "checked_files": checked_files,
            "total": len(diagnostics),
            "by_rule": dict(sorted(by_rule.items())),
        },
        "diagnostics": [d.as_dict() for d in diagnostics],
    }
    return json.dumps(document, indent=2, sort_keys=True)


def render_sarif(
    diagnostics: Sequence[Diagnostic],
    tool_name: str = "reprolint",
    rules: Iterable[Type[Rule]] = (),
) -> str:
    """SARIF 2.1.0 document -- one run, one result per finding.

    ``rules`` (normally every registered rule) become the run's rule
    metadata, so SARIF viewers can show the rationale next to each
    finding.
    """
    rule_entries: List[Dict[str, Any]] = [
        {
            "id": rule.rule_id,
            "name": rule.name,
            "shortDescription": {"text": rule.summary},
            "fullDescription": {"text": rule.rationale},
            "defaultConfiguration": {"level": "warning"},
        }
        for rule in rules
    ]
    indexed = {entry["id"]: index for index, entry in enumerate(rule_entries)}
    results: List[Dict[str, Any]] = []
    for diagnostic in diagnostics:
        result: Dict[str, Any] = {
            "ruleId": diagnostic.rule_id,
            "level": "warning",
            "message": {"text": f"[{diagnostic.rule_name}] {diagnostic.message}"},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": Path(diagnostic.path).as_posix()
                        },
                        "region": {
                            "startLine": max(diagnostic.line, 1),
                            # SARIF columns are 1-based; ours are 0-based.
                            "startColumn": diagnostic.column + 1,
                        },
                    }
                }
            ],
        }
        if diagnostic.rule_id in indexed:
            result["ruleIndex"] = indexed[diagnostic.rule_id]
        results.append(result)
    document = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": tool_name,
                        "rules": rule_entries,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)
