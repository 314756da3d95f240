"""Project-wide call graph with best-effort static resolution.

Resolution is name-based and deliberately modest: direct calls to
module-level functions (local or imported, including ``module.fn``
attribute chains), calls to nested functions of the enclosing scope,
and *references* to functions (a nested ``def`` passed to
``parallel_map`` creates an edge, because whoever receives the
reference may call it).  Method calls on arbitrary objects cannot be
resolved without type inference; the call site still records the
attribute name so name-matching rules (``.fit`` sinks) can use it.

Every call site is attributed to the *innermost* enclosing function:
statements inside a nested ``def`` belong to the nested function's
node in the graph, not its parent's.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.devtools.analysis.project import FunctionInfo, Project, dotted_name

__all__ = [
    "CallGraph",
    "CallSite",
    "build_call_graph",
    "owned_nodes",
    "resolve_function_reference",
]


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function."""

    caller: str
    node: ast.Call
    callee: Optional[str]  # resolved project qualname, or None
    attr: Optional[str]  # terminal attribute name for method calls


@dataclass
class CallGraph:
    """Edges and call sites of the whole project."""

    sites: Dict[str, List[CallSite]] = field(default_factory=dict)
    edges: Dict[str, Set[str]] = field(default_factory=dict)

    def add(self, site: CallSite) -> None:
        self.sites.setdefault(site.caller, []).append(site)
        if site.callee is not None:
            self.edges.setdefault(site.caller, set()).add(site.callee)

    def add_edge(self, caller: str, callee: str) -> None:
        self.edges.setdefault(caller, set()).add(callee)

    def callees(self, qualname: str) -> Set[str]:
        return set(self.edges.get(qualname, set()))

    def reachable(self, roots: Iterable[str]) -> Set[str]:
        """Transitive closure of ``roots`` over the edge relation."""
        seen: Set[str] = set()
        frontier = [root for root in roots]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self.edges.get(current, ()))
        return seen


def owned_nodes(function: FunctionInfo) -> List[ast.AST]:
    """AST nodes belonging to ``function`` itself, nested defs excluded.

    Walks the function body but stops at nested function/lambda
    boundaries (their bodies belong to their own :class:`FunctionInfo`).
    The nested ``def``/``lambda`` node itself is yielded, so callers can
    see the reference without descending into it.
    """
    owned: List[ast.AST] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            owned.append(child)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            visit(child)

    visit(function.node)
    return owned


def _local_function_index(project: Project) -> Dict[str, Dict[str, str]]:
    """Per-function map: simple name -> qualname of its nested functions."""
    nested: Dict[str, Dict[str, str]] = {}
    for qualname in project.functions:
        if ".<locals>." in qualname:
            parent = qualname.rsplit(".<locals>.", 1)[0]
            simple = qualname.rsplit(".", 1)[-1]
            nested.setdefault(parent, {})[simple] = qualname
    return nested


def resolve_function_reference(
    project: Project,
    caller: FunctionInfo,
    expr: ast.expr,
    nested_index: Optional[Dict[str, Dict[str, str]]] = None,
) -> Optional[str]:
    """Resolve an expression naming a function to its project qualname."""
    nested_index = nested_index or _local_function_index(project)
    dotted = dotted_name(expr)
    if not dotted:
        return None
    head, _, rest = dotted.partition(".")
    # 1. nested function of the calling scope (walk outward).
    scope = caller.qualname
    while scope:
        local = nested_index.get(scope, {})
        if not rest and head in local:
            return local[head]
        scope = scope.rsplit(".<locals>.", 1)[0] if ".<locals>." in scope else ""
    # 2. class sibling: a method calling another method via self.
    if head in ("self", "cls") and caller.parent_class is not None and rest:
        prefix = caller.qualname.rsplit(".", 1)[0]
        candidate = f"{prefix}.{rest}"
        if candidate in project.functions:
            return candidate
    # 3. module-level / imported resolution.
    return project.resolve(caller.module, dotted)


def build_call_graph(project: Project) -> CallGraph:
    """Resolve every call site of every registered function."""
    graph = CallGraph()
    nested_index = _local_function_index(project)
    for qualname, function in project.functions.items():
        for node in owned_nodes(function):
            if isinstance(node, ast.Call):
                callee = resolve_function_reference(
                    project, function, node.func, nested_index
                )
                attr = node.func.attr if isinstance(node.func, ast.Attribute) else None
                graph.add(
                    CallSite(caller=qualname, node=node, callee=callee, attr=attr)
                )
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                # A bare reference to a function (callback passing)
                # conservatively counts as a potential call.
                referenced = resolve_function_reference(
                    project, function, node, nested_index
                )
                if referenced is not None and referenced != qualname:
                    graph.add_edge(qualname, referenced)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Defining a nested function creates the edge lazily via
                # references; the definition alone is not a call.
                continue
        graph.sites.setdefault(qualname, [])
    return graph
