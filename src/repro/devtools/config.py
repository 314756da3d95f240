"""``[tool.reprolint]`` configuration loading.

Configuration lives in ``pyproject.toml`` next to the code::

    [tool.reprolint]
    disable = ["REP108"]          # rule ids or names switched off
    enable = []                   # when non-empty, ONLY these run
    exclude = ["examples/*"]      # path globs never checked
    test-dirs = ["tests"]         # directory names classified as tests
    baseline = "analysis-baseline.json"   # accepted findings, if any

    [tool.reprolint.perf]         # a named *scope*: extra filtering
    paths = ["src/repro/perf/*"]  # globs the scope applies to
    disable = ["REP102"]          # rules off for matching files only

Nested tables under ``[tool.reprolint]`` are scopes: per-path overlays
that *narrow* the rule set for files matching their ``paths`` globs
(``disable`` switches rules off there; a non-empty ``enable`` keeps only
those rules there).  Scopes never re-enable a rule the base config
disabled, so the global configuration stays the single source of truth
for what can run at all.  Every key and scope covers both rule packs.
The name ``analysis`` is reserved: the old ``[tool.reprolint.analysis]``
table is refused with a pointer to the keys that replace it.

TOML parsing uses :mod:`tomllib` (Python >= 3.11) and degrades
gracefully: on older interpreters without ``tomli`` installed the
defaults are used and a note is attached to :attr:`LintConfig.notes`
-- the linter never gains a third-party dependency.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, FrozenSet, Optional, Tuple

try:  # Python >= 3.11
    import tomllib as _toml
except ModuleNotFoundError:  # pragma: no cover - exercised only on <3.11
    try:
        import tomli as _toml  # type: ignore[no-redef]
    except ModuleNotFoundError:
        _toml = None  # type: ignore[assignment]

__all__ = [
    "LintConfig",
    "ScopeConfig",
    "find_pyproject",
    "load_config",
]

_DEFAULT_TEST_DIRS = ("tests",)


@dataclass(frozen=True)
class ScopeConfig:
    """Per-path rule filtering for one ``[tool.reprolint.<name>]`` table.

    A scope applies to every linted file matching one of its ``paths``
    globs.  Within its paths, ``disable`` switches listed rules off and a
    non-empty ``enable`` keeps *only* the listed rules -- both can only
    narrow the globally enabled set, never resurrect a rule the base
    config disabled.
    """

    name: str
    paths: Tuple[str, ...]
    disable: FrozenSet[str] = frozenset()
    enable: FrozenSet[str] = frozenset()

    def matches(self, path: str) -> bool:
        """Return whether ``path`` falls inside this scope."""
        candidates = (path, Path(path).as_posix())
        return any(
            fnmatch.fnmatch(candidate, pattern)
            for candidate in candidates
            for pattern in self.paths
        )


@dataclass(frozen=True)
class LintConfig:
    """Resolved configuration of one run, both rule packs.

    ``enable`` beats ``disable``: when ``enable`` is non-empty only the
    listed rules run, mirroring how focused CI jobs are usually set up.
    Entries may be rule ids (``REP102``) or names
    (``no-float-equality``) interchangeably.  ``baseline`` names a
    committed file of accepted findings (anchored at the pyproject
    directory when loaded from one).
    """

    disable: FrozenSet[str] = frozenset()
    enable: FrozenSet[str] = frozenset()
    exclude: Tuple[str, ...] = ()
    test_dirs: FrozenSet[str] = frozenset(_DEFAULT_TEST_DIRS)
    scopes: Tuple[ScopeConfig, ...] = ()
    baseline: Optional[str] = None
    notes: Tuple[str, ...] = ()

    def rule_enabled(self, rule_id: str, rule_name: str) -> bool:
        """Return whether a rule survives the enable/disable filters."""
        keys = {rule_id, rule_name}
        if self.enable:
            return bool(keys & self.enable)
        return not keys & self.disable

    def rule_enabled_for(self, path: str, rule_id: str, rule_name: str) -> bool:
        """Return whether a rule runs on ``path``, scopes included.

        The base enable/disable filters apply everywhere; every scope
        whose ``paths`` match then gets a veto.  Scopes therefore only
        narrow -- a rule the base config disables stays off even inside
        a scope that lists it under ``enable``.
        """
        if not self.rule_enabled(rule_id, rule_name):
            return False
        keys = {rule_id, rule_name}
        for scope in self.scopes:
            if not scope.matches(path):
                continue
            if scope.enable and not keys & scope.enable:
                return False
            if keys & scope.disable:
                return False
        return True

    def is_excluded(self, path: str) -> bool:
        """Return whether ``path`` matches any configured exclude glob."""
        candidates = (path, Path(path).as_posix())
        return any(
            fnmatch.fnmatch(candidate, pattern)
            for candidate in candidates
            for pattern in self.exclude
        )


def find_pyproject(start: Optional[str] = None) -> Optional[Path]:
    """Walk upward from ``start`` (default: cwd) to find pyproject.toml."""
    here = Path(start or ".").resolve()
    if here.is_file():
        here = here.parent
    for directory in (here, *here.parents):
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None


def _as_str_tuple(value: Any, key: str) -> Tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) for item in value
    ):
        raise ValueError(f"[tool.reprolint] {key} must be a list of strings")
    return tuple(value)


def load_config(start: Optional[str] = None) -> LintConfig:
    """Load ``[tool.reprolint]`` for the project containing ``start``.

    Missing file, missing section, or an unavailable TOML parser all
    yield the default config; malformed sections raise ``ValueError``
    so CI fails loudly rather than silently linting with defaults.
    """
    pyproject = find_pyproject(start)
    if pyproject is None:
        return LintConfig()
    if _toml is None:
        return LintConfig(
            notes=(
                f"{pyproject}: [tool.reprolint] ignored -- no TOML parser "
                "on this interpreter (Python < 3.11 without tomli)",
            )
        )
    with open(pyproject, "rb") as handle:
        data: Dict[str, Any] = _toml.load(handle)
    section = data.get("tool", {}).get("reprolint")
    if section is None:
        return LintConfig()
    if not isinstance(section, dict):
        raise ValueError("[tool.reprolint] must be a table")
    # Nested tables are named scopes ([tool.reprolint.perf] etc.); every
    # other key must come from the known top-level set.
    scope_items = {
        key: value for key, value in section.items() if isinstance(value, dict)
    }
    if "analysis" in scope_items:
        raise ValueError(
            "[tool.reprolint.analysis] is no longer read: move 'baseline' to "
            "[tool.reprolint] and express per-path rule sets as scopes"
        )
    known = {"disable", "enable", "exclude", "test-dirs", "baseline"}
    unknown = set(section) - known - set(scope_items)
    if unknown:
        raise ValueError(
            f"[tool.reprolint] has unknown keys {sorted(unknown)}; "
            f"expected a subset of {sorted(known)} or nested scope tables"
        )
    baseline = section.get("baseline")
    if baseline is not None and not isinstance(baseline, str):
        raise ValueError("[tool.reprolint] baseline must be a string")
    # A relative baseline is anchored at the pyproject.toml directory, so
    # the pass finds the committed file from any working directory.
    if baseline is not None and not Path(baseline).is_absolute():
        baseline = str(pyproject.parent / baseline)
    return LintConfig(
        disable=frozenset(_as_str_tuple(section.get("disable", []), "disable")),
        enable=frozenset(_as_str_tuple(section.get("enable", []), "enable")),
        exclude=_as_str_tuple(section.get("exclude", []), "exclude"),
        test_dirs=frozenset(
            _as_str_tuple(section.get("test-dirs", list(_DEFAULT_TEST_DIRS)), "test-dirs")
        ),
        scopes=tuple(
            _load_scope(name, table) for name, table in sorted(scope_items.items())
        ),
        baseline=baseline,
    )


def _load_scope(name: str, table: Dict[str, Any]) -> ScopeConfig:
    known = {"paths", "disable", "enable"}
    unknown = set(table) - known
    if unknown:
        raise ValueError(
            f"[tool.reprolint.{name}] has unknown keys {sorted(unknown)}; "
            f"expected a subset of {sorted(known)}"
        )
    paths = _as_str_tuple(table.get("paths", []), f"{name}.paths")
    if not paths:
        raise ValueError(
            f"[tool.reprolint.{name}] must declare a non-empty 'paths' list"
        )
    return ScopeConfig(
        name=name,
        paths=paths,
        disable=frozenset(_as_str_tuple(table.get("disable", []), f"{name}.disable")),
        enable=frozenset(_as_str_tuple(table.get("enable", []), f"{name}.enable")),
    )
