"""Entry-wise reference bodies of the serving-side sanitize step.

These are the straightforward ``FeatureHealthGuard.assess`` and
``TrainStatImputer.transform`` computations: every mask is built entry
by entry over the whole batch, with no column-level shortcuts.  The
production classes in :mod:`repro.robust` settle whole columns from
their extremes and share one missing mask between the two steps; the
parity tests assert that their outputs equal these, array for array.
"""

from __future__ import annotations

import numpy as np

from repro.robust.guard import UNHEALTHY_FRACTION, FeatureHealthGuard, HealthReport
from repro.robust.imputation import TrainStatImputer


def assess_reference(guard: FeatureHealthGuard, X: np.ndarray) -> HealthReport:
    """Entry-wise health classification with a fitted guard's statistics.

    The column extremes are masked min/max reductions over the finite
    entries, with the reductions' identities (``+inf`` min, ``-inf``
    max) for a column with no finite entry, and NaN for a non-empty
    column of NaN only.
    """
    X = np.asarray(X, dtype=np.float64)
    missing = ~np.isfinite(X)
    filled = np.where(missing, guard.median_, X)
    out_of_range = ~missing & (
        (filled < guard.lower_bound_) | (filled > guard.upper_bound_)
    )
    finite_max = np.max(X, axis=0, where=~missing, initial=-np.inf)
    finite_min = np.min(X, axis=0, where=~missing, initial=np.inf)
    all_nan = np.isnan(X).all(axis=0) & (X.shape[0] > 0)
    finite_max[all_nan] = finite_min[all_nan] = np.nan
    if X.shape[0] >= 2:
        all_missing = missing.all(axis=0)
        batch_frozen = ~all_missing & (finite_max == finite_min)  # reprolint: disable=REP102
        stuck = batch_frozen & ~guard.train_constant_
    else:
        stuck = np.zeros(X.shape[1], dtype=bool)
    if X.shape[0] == 0:
        broken_fraction = np.zeros(X.shape[1])
    else:
        broken_fraction = (missing | out_of_range).mean(axis=0)
    unhealthy = stuck | (broken_fraction > UNHEALTHY_FRACTION)
    return HealthReport(
        missing=missing,
        out_of_range=out_of_range,
        stuck=stuck,
        unhealthy=unhealthy,
        finite_min=finite_min,
        finite_max=finite_max,
    )


def transform_reference(
    imputer: TrainStatImputer, X: np.ndarray, stuck: np.ndarray
) -> np.ndarray:
    """Median fill, stuck-column medianisation and full-matrix clipping."""
    X = np.asarray(X, dtype=np.float64)
    out = np.where(np.isfinite(X), X, imputer.median_)
    stuck = np.asarray(stuck, dtype=bool)
    out[:, stuck] = imputer.median_[stuck]
    return np.clip(out, imputer.lower_, imputer.upper_)
