"""The reprolint engine: one parse, both rule packs, one finding filter.

One run does this:

* collects the ``.py`` files under the given paths, each file once,
  minus the config's ``exclude`` globs;
* parses every file once into a :class:`~repro.devtools.analysis.project.Project`
  (files that cannot be read or parsed become ``REP000`` diagnostics);
* walks each module's tree once, dispatching every node to the
  per-module (REP1xx) rules whose role scope covers the module -- rules
  register handlers by defining ``visit_<Type>``;
* hands one shared :class:`~repro.devtools.analysis.interproc.ProjectContext`
  (cached CFGs, call graph) to every whole-program (REP2xx/REP3xx) rule;
* keeps a finding only when the config enables its rule on its path
  (global enable/disable plus scopes) and no ``# reprolint:
  disable=RULE`` comment silences its line, then sorts.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type, Union

from repro.devtools.analysis.interproc import ProjectContext
from repro.devtools.analysis.project import ModuleInfo, Project
from repro.devtools.config import LintConfig
from repro.devtools.diagnostics import PARSE_ERROR_ID, Diagnostic
from repro.devtools.rules import ALL_RULES
from repro.devtools.rules.base import Rule

__all__ = ["AnalysisResult", "analyze_paths", "collect_files", "lint_source"]

_Dispatch = Dict[type, List[Tuple[Rule, Callable[..., Optional[Iterable[Diagnostic]]]]]]
_RuleSpec = Union[Rule, Type[Rule]]


def collect_files(paths: Sequence[str], config: Optional[LintConfig] = None) -> List[str]:
    """Expand files/directories into a list of ``.py`` files, each once.

    Directories are walked recursively in sorted order; a file reached
    twice (``src src/repro/core/cqr.py``, or a relative and an absolute
    spelling) is kept at its first spelling.  Config ``exclude`` globs
    are matched against the path as given (and its POSIX form), so both
    ``src/repro/legacy/*`` and absolute patterns behave.  A path that
    does not exist raises ``FileNotFoundError`` -- the CLI turns that
    into exit code 2.
    """
    config = config or LintConfig()
    found: List[str] = []
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise FileNotFoundError(f"no such file or directory: {raw}")
        if path.is_dir():
            found.extend(str(p) for p in sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            found.append(str(path))
    seen: Set[Path] = set()
    files: List[str] = []
    for file_path in found:
        real = Path(file_path).resolve()
        if real not in seen and not config.is_excluded(file_path):
            seen.add(real)
            files.append(file_path)
    return files


@dataclass
class AnalysisResult:
    """Everything one pass produced.

    ``diagnostics`` holds the kept findings of both packs and the
    ``REP000`` parse errors, sorted; ``checked_files`` counts the files
    the pass was given.
    """

    diagnostics: List[Diagnostic]
    checked_files: int = 0

    @property
    def errors(self) -> List[Diagnostic]:
        """The ``REP000`` records of files that could not be read or parsed."""
        return [d for d in self.diagnostics if d.rule_id == PARSE_ERROR_ID]


def _module_findings(
    module: ModuleInfo, rules: Sequence[Rule], dispatch: _Dispatch
) -> List[Diagnostic]:
    """One walk of ``module``'s tree through the per-module handlers."""
    active = {id(rule) for rule in rules if rule.applies_to(module.role)}
    findings: List[Diagnostic] = []
    for node in ast.walk(module.tree):
        for rule, handler in dispatch.get(type(node), ()):
            if id(rule) in active:
                findings.extend(handler(node, module) or ())
    for rule in rules:
        if id(rule) in active:
            findings.extend(rule.finish_module(module))
    return findings


def _run_rules(project: Project, rules: Optional[Sequence[_RuleSpec]] = None) -> List[Diagnostic]:
    """Run both packs over a loaded project; return the kept findings, sorted.

    ``rules`` defaults to :data:`~repro.devtools.rules.ALL_RULES`
    (classes or instances); rules the config disables everywhere do not
    run at all.  Parse errors bypass the filters: a file nobody could
    read is never silenced.
    """
    config = project.config
    selected = [
        rule() if isinstance(rule, type) else rule
        for rule in (ALL_RULES if rules is None else rules)
        if config.rule_enabled(rule.rule_id, rule.name)
    ]
    dispatch: _Dispatch = {}
    for rule in selected:
        for node_type, names in rule.handlers().items():
            bucket = dispatch.setdefault(node_type, [])
            bucket.extend((rule, getattr(rule, name)) for name in names)
    findings: List[Diagnostic] = []
    for module in project.by_path.values():
        findings.extend(_module_findings(module, selected, dispatch))
    context = ProjectContext(project)
    for rule in selected:
        findings.extend(rule.check(context))
    kept = {
        d
        for d in findings
        if config.rule_enabled_for(d.path, d.rule_id, d.rule_name)
        and not project.is_suppressed(d)
    }
    return sorted(kept.union(project.errors))


def analyze_paths(
    paths: Sequence[str],
    config: Optional[LintConfig] = None,
    rules: Optional[Sequence[_RuleSpec]] = None,
) -> AnalysisResult:
    """Collect, parse once and check files; the programmatic entry point."""
    config = config or LintConfig()
    files = collect_files(paths, config)
    project = Project.load(files, config)
    return AnalysisResult(_run_rules(project, rules), checked_files=len(files))


def lint_source(
    source: str,
    path: str = "<snippet>",
    config: Optional[LintConfig] = None,
    rules: Optional[Sequence[_RuleSpec]] = None,
) -> List[Diagnostic]:
    """Check one source string as a one-module project (rule unit tests)."""
    project = Project(config)
    project.add_source(source, path)
    return _run_rules(project, rules)
