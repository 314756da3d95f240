"""Which compiled kernels a served model scores through.

The boosting models compile themselves into decision tables at ``fit``
time (:mod:`repro.models.tables`), and compile again when unpickled from
a bundle that predates the kernels (their ``__setstate__``), so every
ensemble a registry load hands to the service already carries one.
:func:`compiled_summary` walks a fitted flow to every boosting ensemble
inside it (primary and fallback flows, the CQR band's lower and upper
quantile models, feature-selection wrappers) and reports their kernels
in manifest-ready JSON.  ``ModelRegistry.publish`` records it, so the
manifest documents *how* a version scores, not just what it is, and the
CLI/soak harness can surface it without unpickling, each entry as one
:func:`kernel_label`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List

from repro.models.gbm import GradientBoostingRegressor
from repro.models.oblivious import ObliviousBoostingRegressor

__all__ = ["compiled_summary", "kernel_label"]

# Fitted-attribute edges the walk follows from a flow object down to
# its boosting ensembles.  Templates (unfitted ``estimator`` params)
# are deliberately not walked: only models that actually score traffic
# have kernels to report.
_CHILD_ATTRIBUTES = (
    "primary_",   # RobustVminFlow -> VminPredictionFlow
    "fallback_",  # RobustVminFlow -> monitor-only VminPredictionFlow
    "cqr_",       # VminPredictionFlow -> ConformalizedQuantileRegressor
    "band_",      # ConformalizedQuantileRegressor -> QuantileBandRegressor
    "lower_",     # QuantileBandRegressor -> quantile model
    "upper_",     # QuantileBandRegressor -> quantile model
    "model_",     # CFSSelectedRegressor -> inner fitted model
)


def _iter_ensembles(model: Any) -> Iterator[Any]:
    """Yield every boosting ensemble reachable from ``model``.

    Depth-first over the known fitted-attribute edges, cycle-safe (a
    visited set on object identity), and silent on unknown objects --
    the registry stores arbitrary picklables and the walk must never
    make publishing one fail.
    """
    stack = [model]
    seen = set()
    while stack:
        obj = stack.pop()
        if obj is None or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(
            obj, (GradientBoostingRegressor, ObliviousBoostingRegressor)
        ):
            yield obj
            continue
        for name in _CHILD_ATTRIBUTES:
            child = getattr(obj, name, None)
            if child is not None:
                stack.append(child)


def compiled_summary(model: Any) -> List[Dict[str, Any]]:
    """Manifest-ready description of the kernels ``model`` scores through.

    One entry per reachable boosting ensemble, in walk order; an empty
    list means the model either holds no ensembles or none are compiled
    (e.g. a parametric-only flow).
    """
    summaries: List[Dict[str, Any]] = []
    for ensemble in _iter_ensembles(model):
        kernel = getattr(ensemble, "compiled_", None)
        if kernel is not None:
            summaries.append(kernel.summary())
    return summaries


def kernel_label(entry: Dict[str, Any]) -> str:
    """One manifest entry as text: ``oblivious(n_trees=100, n_leaves=64)``,
    ``depthwise(n_trees=100, max_nodes=63)``."""
    size_key = "n_leaves" if "n_leaves" in entry else "max_nodes"
    return "{}(n_trees={}, {}={})".format(
        entry["kernel"], entry["n_trees"], size_key, entry[size_key]
    )
