"""Reaching definitions and taint propagation over the function CFG.

Two classic forward may-analyses share the worklist here:

* :func:`reaching_definitions` -- which ``(name, site)`` definitions can
  reach each block entry.  Used by engine tests to pin down the CFG
  semantics (branch joins, loop back edges) and by rules that need
  "where was this name last assigned".
* :class:`TaintAnalysis` -- labelled taint: the abstract state maps
  variable names to the *set of source labels* that may have flowed
  into them.  Labels survive through assignments, tuple unpacking,
  augmented assignment, ``for`` targets, conservative call
  pass-through, and keyword arguments, so a rule asking "does a
  calibration array reach this ``fit`` call" gets back *which* source
  it was and where it entered.

Both analyses only track plain variable names.  Attribute and
subscript stores (``self.x = ...``, ``d[k] = ...``) are deliberately
out of scope -- tracking them soundly needs alias analysis, and the
rules built on top are calibrated for name-level precision.
"""

from __future__ import annotations

import ast
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.devtools.analysis.cfg import BasicBlock, ControlFlowGraph

__all__ = [
    "DefinitionSite",
    "TaintAnalysis",
    "TaintState",
    "assigned_names",
    "call_name",
    "reaching_definitions",
]

Label = Hashable
TaintState = Dict[str, FrozenSet[Label]]
DefinitionSite = Tuple[str, int, int]  # (name, block id, statement index)

# Builtins whose result carries no information flow worth tracking.
_SANITIZERS = frozenset(
    {"len", "bool", "isinstance", "issubclass", "type", "id", "hash", "repr"}
)


def _target_names(target: ast.expr) -> Iterator[str]:
    """Plain names bound by one assignment target (nested tuples too)."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)
    # Attribute / Subscript stores bind no tracked name.


def assigned_names(stmt: ast.stmt) -> List[str]:
    """Variable names a statement (re)binds, compound headers included."""
    names: List[str] = []
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            names.extend(_target_names(target))
    elif isinstance(stmt, ast.AugAssign):
        names.extend(_target_names(stmt.target))
    elif isinstance(stmt, ast.AnnAssign):
        if stmt.value is not None:
            names.extend(_target_names(stmt.target))
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        names.extend(_target_names(stmt.target))
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                names.extend(_target_names(item.optional_vars))
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names.append(stmt.name)
    elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
        for alias in stmt.names:
            if alias.name == "*":
                continue
            names.append(alias.asname or alias.name.split(".")[0])
    return names


def reaching_definitions(
    cfg: ControlFlowGraph,
) -> Dict[int, Set[DefinitionSite]]:
    """Definition sites reaching each block *entry* (classic RD fixpoint)."""
    gen: Dict[int, Dict[str, DefinitionSite]] = {}
    for block in cfg.blocks:
        last: Dict[str, DefinitionSite] = {}
        for index, stmt in enumerate(block.statements):
            for name in assigned_names(stmt):
                last[name] = (name, block.id, index)
        gen[block.id] = last

    entries: Dict[int, Set[DefinitionSite]] = {b.id: set() for b in cfg.blocks}
    predecessors: Dict[int, List[BasicBlock]] = {
        b.id: cfg.predecessors(b) for b in cfg.blocks
    }
    changed = True
    while changed:
        changed = False
        for block in cfg.blocks:
            incoming: Set[DefinitionSite] = set()
            for pred in predecessors[block.id]:
                killed = set(gen[pred.id])
                incoming |= {
                    site
                    for site in entries[pred.id]
                    if site[0] not in killed
                }
                incoming |= set(gen[pred.id].values())
            if incoming - entries[block.id]:
                entries[block.id] |= incoming
                changed = True
    return entries


def _merge(into: TaintState, other: TaintState) -> bool:
    """Union-merge ``other`` into ``into``; return whether it grew."""
    grew = False
    for name, labels in other.items():
        current = into.get(name, frozenset())
        union = current | labels
        if union != current:
            into[name] = union
            grew = True
    return grew


class TaintAnalysis:
    """Labelled forward taint over one function CFG.

    Parameters
    ----------
    cfg:
        The function's control-flow graph.
    expr_sources:
        ``expr_sources(expr) -> iterable of labels`` -- intrinsic taint of
        one expression node (e.g. "this name matches ``X_cal``", "this is
        a ``time.time()`` call").  Checked on every sub-expression.
    call_result_positions:
        ``call_result_positions(call) -> (labels, positions) | None`` --
        seam calls whose *tuple result* is tainted only at the given
        positions (``train, cal = split(...)`` taints only ``cal``).
        ``None`` means "not a seam".
    initial:
        Taint present at function entry (parameter sources).

    Call results are conservatively tainted by their tainted arguments
    (keyword arguments included) unless the callee is a known
    information-free builtin (``len``, ``isinstance``...).
    """

    def __init__(
        self,
        cfg: ControlFlowGraph,
        expr_sources: Callable[[ast.expr], Iterable[Label]],
        call_result_positions: Optional[
            Callable[[ast.Call], Optional[Tuple[Iterable[Label], Iterable[int]]]]
        ] = None,
        initial: Optional[TaintState] = None,
    ) -> None:
        self.cfg = cfg
        self._expr_sources = expr_sources
        self._seams = call_result_positions
        self._initial: TaintState = dict(initial or {})
        self._entry_states: Dict[int, TaintState] = {}

    # -- expression-level taint -------------------------------------------------

    def expr_labels(self, expr: Optional[ast.expr], state: TaintState) -> FrozenSet[Label]:
        """All labels that may flow out of ``expr`` under ``state``."""
        if expr is None:
            return frozenset()
        labels: Set[Label] = set(self._expr_sources(expr))
        if isinstance(expr, ast.Name):
            labels |= state.get(expr.id, frozenset())
        elif isinstance(expr, ast.Call):
            func_name = call_name(expr)
            if func_name not in _SANITIZERS:
                for arg in expr.args:
                    labels |= self.expr_labels(arg, state)
                for keyword in expr.keywords:
                    labels |= self.expr_labels(keyword.value, state)
                # The callee expression itself (method receiver).
                if isinstance(expr.func, ast.Attribute):
                    labels |= self.expr_labels(expr.func.value, state)
        elif isinstance(expr, (ast.Lambda, ast.FunctionDef)):
            pass  # closures are analyzed as their own functions
        else:
            for child in ast.iter_child_nodes(expr):
                if isinstance(child, ast.expr):
                    labels |= self.expr_labels(child, state)
                elif isinstance(child, ast.comprehension):
                    labels |= self.expr_labels(child.iter, state)
        return frozenset(labels)

    # -- statement transfer -----------------------------------------------------

    def transfer(self, stmt: ast.stmt, state: TaintState) -> TaintState:
        """Apply one statement to a copy of ``state`` and return it."""
        state = dict(state)
        if isinstance(stmt, ast.Assign):
            self._assign(stmt.targets, stmt.value, state)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign([stmt.target], stmt.value, state)
        elif isinstance(stmt, ast.AugAssign):
            labels = self.expr_labels(stmt.value, state)
            if isinstance(stmt.target, ast.Name):
                existing = state.get(stmt.target.id, frozenset())
                state[stmt.target.id] = existing | labels
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            labels = self.expr_labels(stmt.iter, state)
            for name in _target_names(stmt.target):
                state[name] = labels
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    labels = self.expr_labels(item.context_expr, state)
                    for name in _target_names(item.optional_vars):
                        state[name] = labels
        return state

    def _assign(
        self, targets: List[ast.expr], value: ast.expr, state: TaintState
    ) -> None:
        seam = self._seams(value) if self._seams and isinstance(value, ast.Call) else None
        for target in targets:
            if (
                seam is not None
                and isinstance(target, (ast.Tuple, ast.List))
                and all(isinstance(e, ast.Name) for e in target.elts)
            ):
                labels, positions = seam
                label_set, position_set = frozenset(labels), set(positions)
                for index, element in enumerate(target.elts):
                    state[element.id] = (
                        label_set if index in position_set else frozenset()
                    )
                continue
            if (
                isinstance(target, (ast.Tuple, ast.List))
                and isinstance(value, (ast.Tuple, ast.List))
                and len(target.elts) == len(value.elts)
                and all(isinstance(e, ast.Name) for e in target.elts)
            ):
                for element, sub_value in zip(target.elts, value.elts):
                    state[element.id] = self.expr_labels(sub_value, state)
                continue
            labels = self.expr_labels(value, state)
            if seam is not None:
                seam_labels, _ = seam
                labels = labels | frozenset(seam_labels)
            for name in _target_names(target):
                state[name] = labels

    # -- fixpoint ---------------------------------------------------------------

    def run(self) -> "TaintAnalysis":
        """Iterate block transfer to fixpoint; states stabilise (finite labels)."""
        self._entry_states = {block.id: {} for block in self.cfg.blocks}
        self._entry_states[self.cfg.entry.id] = dict(self._initial)
        predecessors = {b.id: self.cfg.predecessors(b) for b in self.cfg.blocks}
        changed = True
        while changed:
            changed = False
            for block in self.cfg.blocks:
                entry: TaintState = dict(self._entry_states[block.id])
                for pred in predecessors[block.id]:
                    _merge(entry, self._block_exit(pred))
                if _merge(self._entry_states[block.id], entry):
                    changed = True
        return self

    def _block_exit(self, block: BasicBlock) -> TaintState:
        state = dict(self._entry_states.get(block.id, {}))
        for stmt in block.statements:
            state = self.transfer(stmt, state)
        return state

    def visit_statements(
        self, visit: Callable[[ast.stmt, TaintState], None]
    ) -> None:
        """Final pass: call ``visit(stmt, state-before-stmt)`` everywhere."""
        for block in self.cfg.blocks:
            state = dict(self._entry_states.get(block.id, {}))
            for stmt in block.statements:
                visit(stmt, state)
                state = self.transfer(stmt, state)


def call_name(call: ast.Call) -> str:
    """Terminal callee name: ``len`` for ``len(x)``, ``fit`` for ``m.fit(x)``."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""
