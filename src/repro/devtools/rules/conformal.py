"""REP3xx: conformal-prediction data hygiene.

Split conformal prediction's coverage guarantee rests on one invariant:
the calibration set must stay *exchangeable* with test data, which
means it can never influence model fitting.  These rules taint-track
calibration arrays from where they are born -- the
``split_train_calibration`` seam, ``X_cal``/``y_cal``-style names,
``calibration_scores_`` attribute reads, parameter annotations naming
calibration -- and flag any flow into a ``fit``-like call, including
flows that cross function and module boundaries through the
inter-procedural parameter-leak summaries.

REP302 covers the temporal version of the same mistake: refitting a
model after it has been calibrated silently invalidates the stored
conformal scores, so a ``.fit(...)`` on a calibrated object without a
subsequent recalibration is flagged.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.devtools.analysis.callgraph import owned_nodes
from repro.devtools.analysis.dataflow import TaintState, call_name
from repro.devtools.analysis.interproc import (
    ProjectContext,
    SinkSpec,
    compute_param_leaks,
    find_source_flows,
)
from repro.devtools.analysis.project import FunctionInfo
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.rules.base import AnalysisRule

__all__ = ["CalibrationLeakRule", "RefitAfterCalibrateRule"]

# Functions whose call means "training happens here".  ``calibrate`` is
# deliberately absent: feeding calibration data to calibrate() is the
# whole point of split CP.
_FIT_SINKS = frozenset({"fit", "fit_binned", "fit_gradients", "partial_fit", "train_on"})

# Seam functions returning (train, calibration) index/array tuples,
# mapped to the tuple positions that carry calibration data.
_SPLIT_SEAMS: Dict[str, Tuple[int, ...]] = {
    "split_train_calibration": (1,),
    # sklearn-style: X_train, X_test, y_train, y_test -- the held-out
    # halves are the calibration set in a split-CP pipeline.
    "train_test_split": (1, 3),
}


def _is_calibration_name(name: str) -> bool:
    """Token-wise match: ``X_cal``, ``cal_idx``, ``calibration_scores_``.

    Matching whole underscore-separated tokens keeps ``scale``,
    ``local`` and ``calc`` out of scope.
    """
    tokens = [t for t in name.lower().split("_") if t]
    return any(t == "cal" or t.startswith("calib") for t in tokens)


class CalibrationLeakRule(AnalysisRule):
    """REP301: calibration data must never reach a fit-like call."""

    rule_id = "REP301"
    name = "calibration-data-in-fit"
    summary = "calibration array flows into a fit()/training call"
    rationale = (
        "Split conformal prediction guarantees coverage only while the "
        "calibration set stays exchangeable with test data; any use of "
        "calibration samples during model fitting breaks the guarantee "
        "silently -- intervals keep looking plausible but under-cover."
    )

    def check(self, context: ProjectContext) -> List[Diagnostic]:
        sink = SinkSpec(call_names=_FIT_SINKS)
        leaks = compute_param_leaks(context, sink)

        def expr_sources_for(function: FunctionInfo):
            def sources(expr: ast.expr) -> Iterable:
                if isinstance(expr, ast.Name) and _is_calibration_name(expr.id):
                    return (("cal", expr.id),)
                if isinstance(expr, ast.Attribute) and _is_calibration_name(
                    expr.attr
                ):
                    return (("cal", expr.attr),)
                return ()

            return sources

        def seams_for(function: FunctionInfo):
            def seam(call: ast.Call) -> Optional[Tuple[Iterable, Iterable[int]]]:
                positions = _SPLIT_SEAMS.get(call_name(call))
                if positions is None:
                    return None
                return (("cal", call_name(call)),), positions

            return seam

        def initial_for(function: FunctionInfo) -> Optional[TaintState]:
            """Parameters annotated as calibration data are sources."""
            if isinstance(function.node, ast.Lambda):
                return None
            initial: TaintState = {}
            args = function.node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                if arg.annotation is None:
                    continue
                try:
                    rendered = ast.unparse(arg.annotation).lower()
                except Exception:  # pragma: no cover - malformed annotation
                    continue
                if "calib" in rendered:
                    initial[arg.arg] = frozenset({("cal", arg.arg)})
            return initial or None

        findings = find_source_flows(
            context, expr_sources_for, seams_for, sink, leaks, initial_for
        )
        diagnostics: List[Diagnostic] = []
        seen: Set[Tuple[str, int, int]] = set()
        for finding in findings:
            module = context.module_of(finding.function)
            if module is None:
                continue
            key = (module.path, finding.call.lineno, finding.call.col_offset)
            if key in seen:
                continue
            seen.add(key)
            names = ", ".join(
                sorted(
                    str(label[1])
                    for label in finding.labels
                    if isinstance(label, tuple) and label[0] == "cal"
                )
            )
            route = (
                f" via {finding.via}()" if finding.via else ""
            )
            diagnostics.append(
                self.diagnostic(
                    finding.call,
                    module,
                    f"calibration data ({names}) reaches a training call"
                    f"{route}; split-CP coverage requires calibration "
                    "samples stay out of fitting",
                )
            )
        return diagnostics


class RefitAfterCalibrateRule(AnalysisRule):
    """REP302: refitting a calibrated model invalidates its scores."""

    rule_id = "REP302"
    name = "refit-after-calibrate"
    summary = "model refit after calibration without recalibrating"
    rationale = (
        "Conformal scores are residuals of one specific fitted model; "
        "calling fit() again leaves calibration_scores_ describing a "
        "model that no longer exists, so every interval built afterwards "
        "is miscalibrated until calibrate() runs again."
    )

    _CALIBRATORS = frozenset({"calibrate", "recalibrate", "conformalize"})

    def check(self, context: ProjectContext) -> List[Diagnostic]:
        diagnostics: List[Diagnostic] = []
        for function in context.functions():
            if isinstance(function.node, ast.Lambda):
                continue
            module = context.module_of(function)
            if module is None:
                continue
            events = self._events(function)
            calibrated: Dict[str, bool] = {}
            for index, (_, receiver, kind, node) in enumerate(events):
                if kind == "calibrate":
                    calibrated[receiver] = True
                elif kind == "fit" and calibrated.get(receiver):
                    calibrated[receiver] = False
                    # Refit followed by recalibration is the correct
                    # update sequence; only an *unrecalibrated* refit
                    # leaves stale scores behind.
                    recalibrated = any(
                        later[1] == receiver and later[2] == "calibrate"
                        for later in events[index + 1 :]
                    )
                    if recalibrated:
                        continue
                    diagnostics.append(
                        self.diagnostic(
                            node,
                            module,
                            f"'{receiver}' is refit after calibrate(); its "
                            "stored conformal scores now describe a stale "
                            "model -- recalibrate after fitting",
                        )
                    )
        return diagnostics

    def _events(
        self, function: FunctionInfo
    ) -> List[Tuple[Tuple[int, int], str, str, ast.AST]]:
        """(position, receiver-root, 'calibrate'|'fit', node), source order."""
        events: List[Tuple[Tuple[int, int], str, str, ast.AST]] = []
        for node in owned_nodes(function):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                root = _receiver_root(node.func.value)
                if root is None:
                    continue
                if node.func.attr in self._CALIBRATORS:
                    events.append(
                        ((node.lineno, node.col_offset), root, "calibrate", node)
                    )
                elif node.func.attr in _FIT_SINKS:
                    events.append(
                        ((node.lineno, node.col_offset), root, "fit", node)
                    )
            elif isinstance(node, ast.Assign):
                # ``model.calibration_scores_ = ...`` marks the object
                # calibrated even without a calibrate() method.
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and _is_calibration_name(target.attr)
                        and _receiver_root(target.value) is not None
                    ):
                        events.append(
                            (
                                (node.lineno, node.col_offset),
                                _receiver_root(target.value) or "",
                                "calibrate",
                                node,
                            )
                        )
        events.sort(key=lambda event: event[0])
        return events


def _receiver_root(expr: ast.expr) -> Optional[str]:
    """Root variable of an attribute chain (``self`` for ``self.band_``)."""
    current = expr
    while isinstance(current, ast.Attribute):
        current = current.value
    return current.id if isinstance(current, ast.Name) else None
