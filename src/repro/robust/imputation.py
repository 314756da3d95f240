"""Bounded train-statistic imputation for unhealthy sensor readings.

Once :class:`repro.robust.FeatureHealthGuard` has classified a batch,
something still has to produce a *finite* feature matrix for the
models, which enforce the strict ``check_X`` contract.  The policy here
is deliberately conservative -- it never invents information, it only
bounds the damage:

* missing entries (NaN/Inf) are replaced by the training median of the
  column -- the maximum-ignorance plug-in for a robust location,
* stuck columns are also medianised: a frozen reading carries no
  per-chip information and leaving the stuck code in place would feed a
  systematically wrong but plausible-looking value to the model,
* every value is finally clipped into the (slightly inflated) training
  range, so a drifted-but-alive sensor cannot drag a tree or linear
  model into wild extrapolation.

The interval-width penalty for all this guessing is charged elsewhere:
the degradation policy (:mod:`repro.robust.fallback`) inflates the
interval in proportion to how much of the batch was imputed.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import check_fitted, check_X
from repro.robust.guard import HealthReport

__all__ = ["CLIP_MARGIN", "TrainStatImputer"]

CLIP_MARGIN = 0.25
"""Fraction of each column's training span the clip range extends past
the training min and max."""


class TrainStatImputer:
    """Median fill + clipping into the training range widened by
    :data:`CLIP_MARGIN` spans on each side."""

    def __init__(self) -> None:
        self.median_ = None

    def fit(self, X: np.ndarray) -> "TrainStatImputer":
        """Capture per-feature median and clipping range from clean data."""
        X = check_X(X)
        self.median_ = np.median(X, axis=0)
        span = X.max(axis=0) - X.min(axis=0)
        self.lower_ = X.min(axis=0) - CLIP_MARGIN * span
        self.upper_ = X.max(axis=0) + CLIP_MARGIN * span
        self.n_features_in_ = int(X.shape[1])
        return self

    def transform(self, X: np.ndarray, report: HealthReport) -> np.ndarray:
        """Return a finite, bounded copy of ``X``.

        ``report`` is the guard's :class:`~repro.robust.guard.HealthReport`
        of ``X``: its missing mask says which entries to fill, its stuck
        columns are replaced wholesale by the training median, and its
        finite column extremes say which columns to clip without reading
        the output again.  Clipping runs in place and only on the
        columns whose extremes leave the clip range; every other column
        is already inside it.
        """
        check_fitted(self, "median_")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D (n_samples, n_features), got shape {X.shape}")
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, imputer was fitted on "
                f"{self.n_features_in_}"
            )
        if report.missing.shape != X.shape:
            raise ValueError(
                f"report covers a batch of shape {report.missing.shape}, "
                f"expected {X.shape}"
            )
        out = X.copy()
        if report.missing.any():
            np.copyto(out, self.median_, where=report.missing)
        stuck = report.stuck
        out[:, stuck] = self.median_[stuck]
        # The training median lies inside the clip range, so a filled
        # entry never moves a column past it: the finite extremes
        # decide, and a stuck column (all median) never clips.  NaN
        # extremes and the identities of a column with no finite entry
        # compare False.
        outside = np.flatnonzero(
            ((report.finite_min < self.lower_) | (report.finite_max > self.upper_))
            & ~stuck
        )
        if outside.size:
            out[:, outside] = np.clip(
                out[:, outside], self.lower_[outside], self.upper_[outside]
            )
        return out
