"""Inter-procedural source-to-sink flow detection.

The pattern both the conformal-hygiene and determinism rules need is
"does a value from *source* reach a *sink call* -- possibly through
other functions".  This module composes the per-function
:class:`~repro.devtools.analysis.dataflow.TaintAnalysis` with the call
graph:

1. :func:`compute_param_leaks` -- a fixpoint over the project computing,
   for every function, which of its *parameters* can reach a sink
   (directly, or by being forwarded to another function whose summary
   already says so).  This is the one-level-at-a-time summarisation
   that lets a calibration array be caught "three calls away", across
   module boundaries, without whole-program path explosion.
2. :func:`find_source_flows` -- the reporting pass: taint rule-specific
   sources in every function and flag tainted arguments hitting a sink
   call or a leaking parameter position of a resolved callee.

Sinks are described by a :class:`SinkSpec`: terminal callee names
(``fit`` matches both ``model.fit(...)`` and a bare ``fit(...)``) plus
keyword-argument names that are sinks on *any* call (``seed=``).
:class:`ProjectContext` is the one per-run cache (call graph, CFGs) the
passes here and every whole-program rule read.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple

from repro.devtools.analysis.callgraph import CallGraph, CallSite, build_call_graph
from repro.devtools.analysis.cfg import ControlFlowGraph, build_cfg
from repro.devtools.analysis.dataflow import TaintAnalysis, TaintState
from repro.devtools.analysis.project import FunctionInfo, ModuleInfo, Project

__all__ = [
    "FlowFinding",
    "ProjectContext",
    "SinkSpec",
    "compute_param_leaks",
    "find_source_flows",
]

Label = Hashable
ExprSources = Callable[[ast.expr], Iterable[Label]]
Seams = Optional[Callable[[ast.Call], Optional[Tuple[Iterable[Label], Iterable[int]]]]]


class ProjectContext:
    """Shared lookups for one analysis run (CFGs and call graph cached)."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self._callgraph: Optional[CallGraph] = None
        self._cfgs: Dict[str, ControlFlowGraph] = {}

    @property
    def callgraph(self) -> CallGraph:
        if self._callgraph is None:
            self._callgraph = build_call_graph(self.project)
        return self._callgraph

    def cfg(self, qualname: str) -> ControlFlowGraph:
        """The (cached) CFG of a registered function."""
        if qualname not in self._cfgs:
            node = self.project.functions[qualname].node
            body = node.body if not isinstance(node, ast.Lambda) else [
                ast.Expr(value=node.body)
            ]
            self._cfgs[qualname] = build_cfg(body)
        return self._cfgs[qualname]

    def functions(self) -> Iterable[FunctionInfo]:
        return self.project.functions.values()

    def module_of(self, function: FunctionInfo) -> Optional[ModuleInfo]:
        return self.project.modules.get(function.module)


@dataclass(frozen=True)
class SinkSpec:
    """What counts as a sink for one rule."""

    call_names: FrozenSet[str] = frozenset()
    keyword_names: FrozenSet[str] = frozenset()
    exempt_receivers: FrozenSet[str] = frozenset()

    def is_sink_call(self, call: ast.Call) -> bool:
        func = call.func
        if isinstance(func, ast.Name):
            return func.id in self.call_names
        if isinstance(func, ast.Attribute):
            if func.attr not in self.call_names:
                return False
            receiver = func.value
            if (
                isinstance(receiver, ast.Name)
                and receiver.id in self.exempt_receivers
            ):
                return False
            return True
        return False


@dataclass(frozen=True)
class FlowFinding:
    """One tainted value arriving at a sink."""

    function: FunctionInfo
    call: ast.Call
    labels: FrozenSet[Label]
    via: Optional[str] = None  # callee qualname when the sink is indirect


@dataclass
class _FunctionPass:
    """Bookkeeping for one function's taint run."""

    function: FunctionInfo
    analysis: TaintAnalysis
    sites_by_call: Dict[int, CallSite] = field(default_factory=dict)


def _call_sites_by_node(context: ProjectContext, qualname: str) -> Dict[int, CallSite]:
    return {
        id(site.node): site for site in context.callgraph.sites.get(qualname, [])
    }


def _iter_calls(stmt: ast.stmt) -> Iterable[ast.Call]:
    """Calls appearing in one statement, nested defs excluded."""

    def visit(node: ast.AST) -> Iterable[ast.Call]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Call):
                yield child
            yield from visit(child)

    return visit(stmt)


def _positional_slots(
    call: ast.Call, callee: Optional[FunctionInfo]
) -> List[Tuple[ast.expr, Optional[int]]]:
    """Map call arguments to callee parameter positions (best effort)."""
    slots: List[Tuple[ast.expr, Optional[int]]] = []
    for index, arg in enumerate(call.args):
        slots.append((arg, index if not isinstance(arg, ast.Starred) else None))
    if callee is not None:
        params = callee.params()
        for keyword in call.keywords:
            position = (
                params.index(keyword.arg)
                if keyword.arg in params
                else None
            )
            slots.append((keyword.value, position))
    else:
        slots.extend((keyword.value, None) for keyword in call.keywords)
    return slots


def compute_param_leaks(
    context: ProjectContext, sink: SinkSpec
) -> Dict[str, Set[int]]:
    """Fixpoint: parameter positions of each function that reach a sink."""
    leaks: Dict[str, Set[int]] = {q: set() for q in context.project.functions}
    passes: Dict[str, _FunctionPass] = {}

    def function_pass(qualname: str) -> Optional[_FunctionPass]:
        if qualname in passes:
            return passes[qualname]
        function = context.project.functions[qualname]
        if isinstance(function.node, ast.Lambda):
            return None
        params = function.params()
        initial: TaintState = {
            name: frozenset({("param", index)})
            for index, name in enumerate(params)
        }
        analysis = TaintAnalysis(
            context.cfg(qualname),
            expr_sources=lambda expr: (),
            initial=initial,
        )
        analysis.run()
        record = _FunctionPass(
            function=function,
            analysis=analysis,
            sites_by_call=_call_sites_by_node(context, qualname),
        )
        passes[qualname] = record
        return record

    changed = True
    while changed:
        changed = False
        for qualname in context.project.functions:
            record = function_pass(qualname)
            if record is None:
                continue
            found: Set[int] = set()

            def inspect(stmt: ast.stmt, state: TaintState) -> None:
                for call in _iter_calls(stmt):
                    site = record.sites_by_call.get(id(call))
                    callee_info = (
                        context.project.functions.get(site.callee)
                        if site and site.callee
                        else None
                    )
                    direct = sink.is_sink_call(call)
                    callee_leaks = (
                        leaks.get(site.callee, set())
                        if site and site.callee
                        else set()
                    )
                    for keyword in call.keywords:
                        if keyword.arg in sink.keyword_names:
                            for label in record.analysis.expr_labels(
                                keyword.value, state
                            ):
                                if isinstance(label, tuple) and label[0] == "param":
                                    found.add(label[1])
                    if not direct and not callee_leaks:
                        continue
                    for arg_expr, position in _positional_slots(call, callee_info):
                        labels = record.analysis.expr_labels(arg_expr, state)
                        if not labels:
                            continue
                        hits = direct or (
                            position is not None and position in callee_leaks
                        )
                        if not hits:
                            continue
                        for label in labels:
                            if isinstance(label, tuple) and label[0] == "param":
                                found.add(label[1])

            record.analysis.visit_statements(inspect)
            if found - leaks[qualname]:
                leaks[qualname] |= found
                changed = True
    return {q: positions for q, positions in leaks.items() if positions}


def find_source_flows(
    context: ProjectContext,
    expr_sources_for: Callable[[FunctionInfo], ExprSources],
    seams_for: Callable[[FunctionInfo], Seams],
    sink: SinkSpec,
    leaks: Dict[str, Set[int]],
    initial_for: Optional[Callable[[FunctionInfo], Optional[TaintState]]] = None,
) -> List[FlowFinding]:
    """Report every rule-source value reaching a sink, summaries included."""
    findings: List[FlowFinding] = []
    for qualname, function in context.project.functions.items():
        if isinstance(function.node, ast.Lambda):
            continue
        sources = expr_sources_for(function)
        analysis = TaintAnalysis(
            context.cfg(qualname),
            expr_sources=sources,
            call_result_positions=seams_for(function),
            initial=(initial_for(function) if initial_for else None) or {},
        )
        analysis.run()
        sites = _call_sites_by_node(context, qualname)

        def inspect(stmt: ast.stmt, state: TaintState) -> None:
            for call in _iter_calls(stmt):
                site = sites.get(id(call))
                callee_qualname = site.callee if site else None
                callee_info = (
                    context.project.functions.get(callee_qualname)
                    if callee_qualname
                    else None
                )
                direct = sink.is_sink_call(call)
                callee_leaks = leaks.get(callee_qualname or "", set())
                for keyword in call.keywords:
                    if keyword.arg in sink.keyword_names:
                        labels = analysis.expr_labels(keyword.value, state)
                        if labels:
                            findings.append(
                                FlowFinding(
                                    function=function, call=call, labels=labels
                                )
                            )
                if not direct and not callee_leaks:
                    continue
                for arg_expr, position in _positional_slots(call, callee_info):
                    labels = analysis.expr_labels(arg_expr, state)
                    if not labels:
                        continue
                    if direct:
                        findings.append(
                            FlowFinding(function=function, call=call, labels=labels)
                        )
                        break
                    if position is not None and position in callee_leaks:
                        findings.append(
                            FlowFinding(
                                function=function,
                                call=call,
                                labels=labels,
                                via=callee_qualname,
                            )
                        )
                        break

        analysis.visit_statements(inspect)
    return findings
