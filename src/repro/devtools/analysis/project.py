"""Project model: every module of a run, parsed once, cross-linked.

Both rule packs read this one model.  Each file is parsed once into a
:class:`ModuleInfo`: the tree with parent links, the file's role
(``src`` or ``test``, classified with the run's config), its inline
suppressions and its import alias map (local name -> absolute dotted
target, relative imports resolved against the package).  On top of the
modules the project builds a *module table* keyed by dotted import name
(so ``from repro.core.split_cp import split_train_calibration``
resolves to the defining module) and a *function table* keyed by
qualified name (``repro.core.cqr.ConformalizedQuantileRegressor.fit``,
nested functions included).

Files that cannot be read or parsed become ``REP000 [parse-error]``
diagnostics in :attr:`Project.errors` instead of raising: the CLI
reports them and exits 2, so a broken file can never crash -- or
silently skip -- a pass.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Union

from repro.devtools.config import LintConfig
from repro.devtools.diagnostics import PARSE_ERROR_ID, Diagnostic

__all__ = [
    "FunctionInfo",
    "ModuleInfo",
    "Project",
    "classify_role",
    "collect_suppressions",
    "dotted_name",
    "module_name_for",
    "resolve_dotted",
]

_SUPPRESSION_RE = re.compile(
    r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\-\s]+)", re.IGNORECASE
)


def classify_role(path: str, config: Optional[LintConfig] = None) -> str:
    """Classify ``path`` as ``"src"`` or ``"test"``.

    A file is a test when any path component matches one of the
    configured test directory names (default ``tests``) or its basename
    looks like ``test_*.py`` / ``conftest.py``.  Everything else is
    held to the stricter ``src`` contract.
    """
    config = config or LintConfig()
    parts = Path(path).parts
    if any(part in config.test_dirs for part in parts[:-1]):
        return "test"
    basename = Path(path).name
    if basename.startswith("test_") or basename == "conftest.py":
        return "test"
    return "src"


def collect_suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """Map line numbers to the rule ids/names suppressed on that line.

    Recognises ``# reprolint: disable=REP102`` and comma-separated
    lists; the special token ``all`` silences every rule for the line.
    Comments are read from the token stream, so suppressions attached
    to continuation lines or after code both work.
    """
    suppressions: Dict[int, FrozenSet[str]] = {}
    try:
        tokens = tokenize.generate_tokens(StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESSION_RE.search(token.string)
            if not match:
                continue
            names = frozenset(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
            line = token.start[0]
            suppressions[line] = suppressions.get(line, frozenset()) | names
    except tokenize.TokenError:
        # Unterminated strings etc.: the parse-error diagnostic covers it.
        pass
    return suppressions


def _annotate_parents(tree: ast.Module) -> None:
    """Attach a ``_reprolint_parent`` link to every node (rules use it)."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            setattr(child, "_reprolint_parent", node)


def dotted_name(node: ast.AST) -> str:
    """Resolve an ``ast.Attribute``/``ast.Name`` chain to ``"a.b.c"``.

    Returns an empty string for expressions that are not plain dotted
    access (subscripts, calls, literals), which callers treat as
    "cannot tell -- do not flag".
    """
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _parse_error(path: str, line: int, column: int, message: str) -> Diagnostic:
    return Diagnostic(
        path=path,
        line=line,
        column=column,
        rule_id=PARSE_ERROR_ID,
        rule_name="parse-error",
        message=message,
    )


FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]


@dataclass(frozen=True)
class FunctionInfo:
    """One function (or method, or nested function) in the project."""

    qualname: str
    module: str
    node: FunctionNode
    parent_class: Optional[str] = None

    def params(self) -> List[str]:
        """Positional + keyword parameter names, in signature order."""
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if self.parent_class is not None and names and names[0] in ("self", "cls"):
            names = names[1:]
        return names


@dataclass
class ModuleInfo:
    """One parsed module plus the lookup tables rules need."""

    path: str
    name: str
    source: str
    tree: ast.Module
    role: str
    suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    aliases: Dict[str, str] = field(default_factory=dict)
    module_globals: Dict[str, ast.AST] = field(default_factory=dict)


def module_name_for(path: Union[str, Path]) -> str:
    """Derive the dotted module name from the package layout on disk.

    Walks parent directories upward while they contain ``__init__.py``;
    the chain of package directories plus the file stem is the module
    name (``src/repro/core/cqr.py`` -> ``repro.core.cqr``).  A file
    outside any package is its bare stem.
    """
    path = Path(path).resolve()
    parts: List[str] = []
    if path.name != "__init__.py":
        parts.append(path.stem)
    directory = path.parent
    while (directory / "__init__.py").is_file():
        parts.append(directory.name)
        directory = directory.parent
    return ".".join(reversed(parts))


def _collect_aliases(module: str, tree: ast.Module) -> Dict[str, str]:
    """Map local names to absolute dotted targets for one module."""
    package = module.rsplit(".", 1)[0] if "." in module else ""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Relative import: level 1 is the containing package,
                # each extra level climbs one more.
                anchor = package.split(".") if package else []
                climb = anchor[: max(0, len(anchor) - (node.level - 1))]
                prefix = ".".join(climb)
                base = f"{prefix}.{node.module}" if node.module else prefix
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{base}.{alias.name}" if base else alias.name
    return aliases


def _collect_globals(tree: ast.Module) -> Dict[str, ast.AST]:
    """Top-level ``name = value`` bindings (shared-state detection)."""
    bindings: Dict[str, ast.AST] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    bindings[target.id] = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name):
                bindings[stmt.target.id] = stmt.value
    return bindings


class Project:
    """Parsed modules, functions, and import links for one run."""

    def __init__(self, config: Optional[LintConfig] = None) -> None:
        self.config = config or LintConfig()
        self.modules: Dict[str, ModuleInfo] = {}
        self.by_path: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.errors: List[Diagnostic] = []

    @classmethod
    def load(
        cls, files: Sequence[str], config: Optional[LintConfig] = None
    ) -> "Project":
        """Parse every file once; read and parse failures become REP000."""
        project = cls(config)
        for file_path in sorted(files):
            try:
                source = Path(file_path).read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as error:
                project.errors.append(
                    _parse_error(file_path, 1, 0, f"file could not be read: {error}")
                )
                continue
            project.add_source(source, file_path)
        return project

    def add_source(
        self, source: str, path: str, name: Optional[str] = None
    ) -> Optional[ModuleInfo]:
        """Parse one source string into the project tables.

        ``name`` overrides the dotted module name; without it the name
        is derived from the package layout on disk (or the bare stem
        for in-memory sources whose path does not exist).
        """
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            self.errors.append(
                _parse_error(
                    path,
                    error.lineno or 1,
                    (error.offset or 1) - 1,
                    f"file could not be parsed: {error.msg}",
                )
            )
            return None
        _annotate_parents(tree)
        if name is None:
            name = (
                module_name_for(path) if Path(path).exists() else Path(path).stem
            )
        name = self._unclaimed_name(name, path)
        info = ModuleInfo(
            path=path,
            name=name,
            source=source,
            tree=tree,
            role=classify_role(path, self.config),
            suppressions=collect_suppressions(source),
            aliases=_collect_aliases(name, tree),
            module_globals=_collect_globals(tree),
        )
        self.modules[name] = info
        self.by_path[path] = info
        self._register_functions(info)
        return info

    def _unclaimed_name(self, name: str, path: str) -> str:
        """``name``, or ``name@2``, ``name@3``, ... when another file
        already holds it (two non-package ``util.py`` in different
        directories), so neither module shadows the other's functions.
        No import can spell the suffixed name, just as none could tell
        the two modules apart."""
        candidate, copy = name, 1
        while candidate in self.modules and self.modules[candidate].path != path:
            copy += 1
            candidate = f"{name}@{copy}"
        return candidate

    def is_suppressed(self, diagnostic: Diagnostic) -> bool:
        """Return whether an inline comment silences ``diagnostic``."""
        module = self.by_path.get(diagnostic.path)
        active = module.suppressions.get(diagnostic.line) if module else None
        return bool(active and {"all", diagnostic.rule_id, diagnostic.rule_name} & active)

    def _register_functions(self, info: ModuleInfo) -> None:
        def visit(node: ast.AST, prefix: str, parent_class: Optional[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}.{child.name}"
                    self.functions[qualname] = FunctionInfo(
                        qualname=qualname,
                        module=info.name,
                        node=child,
                        parent_class=parent_class,
                    )
                    visit(child, f"{qualname}.<locals>", None)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}.{child.name}", child.name)
                elif isinstance(child, (ast.If, ast.Try, ast.With)):
                    # Conditionally defined module-level functions still
                    # count; nested scoping inside them is rare enough
                    # that the plain prefix is the honest approximation.
                    visit(child, prefix, parent_class)

        visit(info.tree, info.name, None)

    def resolve(self, module: str, dotted: str) -> Optional[str]:
        """Resolve a dotted reference in ``module`` to a known qualname.

        ``dotted`` is the local spelling (``split_train_calibration``,
        ``experiments.run_point_grid``); the module's alias map rewrites
        the head, then the function table is consulted.  Returns the
        qualified function name or ``None`` when the reference leaves
        the analyzed project (numpy, stdlib, unresolvable attributes).
        """
        info = self.modules.get(module)
        if info is None or not dotted:
            return None
        head, _, rest = dotted.partition(".")
        target = info.aliases.get(head)
        if target is None:
            # Unimported head: a name defined in this module itself.
            candidate = f"{module}.{dotted}"
            return candidate if candidate in self.functions else None
        # ``from pkg import mod`` followed by ``mod.fn`` expands to
        # ``pkg.mod.fn`` (class methods one level down resolve the same way).
        full = f"{target}.{rest}" if rest else target
        return full if full in self.functions else None


def resolve_dotted(info: ModuleInfo, node: ast.AST) -> str:
    """Absolute dotted name of an expression, through the import aliases.

    ``np.random.default_rng`` becomes ``numpy.random.default_rng`` when
    ``np`` aliases numpy (the conventional ``np`` spelling is also
    normalised without a visible import); a bare imported name expands
    to its full target.  Returns ``""`` when the expression is not a
    plain dotted chain.
    """
    dotted = dotted_name(node)
    if not dotted:
        return ""
    head, _, rest = dotted.partition(".")
    full = info.aliases.get(head, head) + (f".{rest}" if rest else "")
    if full == "np.random" or full.startswith("np.random."):
        full = "numpy" + full[len("np"):]
    return full
