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

from typing import Optional

import numpy as np

from repro.models.base import check_fitted, check_X
from repro.robust.guard import HealthReport

__all__ = ["TrainStatImputer"]


class TrainStatImputer:
    """Median fill + range clipping from training statistics.

    Parameters
    ----------
    clip:
        When True (default), clip every output value into the observed
        training range inflated by ``clip_margin`` on each side.
    clip_margin:
        Fractional range inflation applied before clipping; 0 clips to
        the exact training min/max.
    """

    def __init__(self, clip: bool = True, clip_margin: float = 0.25) -> None:
        if clip_margin < 0:
            raise ValueError(f"clip_margin must be >= 0, got {clip_margin}")
        self.clip = bool(clip)
        self.clip_margin = float(clip_margin)
        self.median_ = None

    def fit(self, X: np.ndarray) -> "TrainStatImputer":
        """Capture per-feature median and clipping range from clean data."""
        X = check_X(X)
        self.median_ = np.median(X, axis=0)
        span = X.max(axis=0) - X.min(axis=0)
        self.lower_ = X.min(axis=0) - self.clip_margin * span
        self.upper_ = X.max(axis=0) + self.clip_margin * span
        self.n_features_in_ = int(X.shape[1])
        return self

    def transform(
        self, X: np.ndarray, report: Optional[HealthReport] = None
    ) -> np.ndarray:
        """Return a finite, bounded copy of ``X``.

        Parameters
        ----------
        X:
            Possibly corrupted batch (NaN/Inf allowed).
        report:
            The :class:`~repro.robust.guard.HealthReport` of ``X``.  Its
            missing mask says which entries to fill, its stuck columns
            are replaced wholesale by the training median, and its
            finite column extremes say which columns to clip without
            reading the output again.  ``None`` fills the non-finite
            entries of ``X``, medianises no column and reads the
            output's extremes.

        Clipping runs in place and only on the columns whose extremes
        leave the clip range; every other column is already inside it.
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
        if report is None:
            missing, stuck = ~np.isfinite(X), None
        elif report.missing.shape != X.shape:
            raise ValueError(
                f"report covers a batch of shape {report.missing.shape}, "
                f"expected {X.shape}"
            )
        else:
            missing, stuck = report.missing, report.stuck
        out = X.copy()
        if missing.any():
            np.copyto(out, self.median_, where=missing)
        if stuck is not None:
            out[:, stuck] = self.median_[stuck]
        if self.clip and out.shape[0]:
            if report is None:
                outside = (out.min(axis=0) < self.lower_) | (out.max(axis=0) > self.upper_)
            else:
                # The training median lies inside the clip range, so a
                # filled entry never moves a column past it: the finite
                # extremes decide, and a stuck column (all median) never
                # clips.  NaN extremes and the identities of a column
                # with no finite entry compare False.
                outside = (
                    (report.finite_min < self.lower_)
                    | (report.finite_max > self.upper_)
                ) & ~stuck
            outside = np.flatnonzero(outside)
            if outside.size:
                out[:, outside] = np.clip(
                    out[:, outside], self.lower_[outside], self.upper_[outside]
                )
        return out
