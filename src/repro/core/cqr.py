"""Conformalized Quantile Regression (paper Section III-C).

CQR combines the adaptivity of quantile regression with the coverage
guarantee of conformal prediction:

1. split the data into proper-training and calibration parts,
2. fit a quantile band (Eq. 2) at quantiles ``α/2`` and ``1 − α/2`` on
   the proper-training part,
3. compute the conformal quantile ``q̂`` of the CQR scores (Eq. 9) on the
   calibration part,
4. report ``[lower(x) − q̂, upper(x) + q̂]`` (Eq. 10).

``q̂`` can be negative (the raw band was conservative and gets *shrunk*)
or positive (the raw band under-covered and gets widened) -- the paper's
Table III shows exactly this correction turning 10-85 % QR coverage into
~90 % CQR coverage.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.calibration import conformal_quantile
from repro.core.intervals import PredictionIntervals, collapse_crossed
from repro.core.scores import cqr_score
from repro.core.split_cp import split_train_calibration
from repro.models.base import (
    BaseRegressor,
    check_fitted,
    check_random_state,
    check_X_y,
    clone,
)
from repro.models.quantile import QuantileBandRegressor

__all__ = ["ConformalizedQuantileRegressor", "PointBand"]


class ConformalizedQuantileRegressor(BaseRegressor):
    """Split CQR around any quantile-capable template model.

    Parameters
    ----------
    estimator:
        Unfitted template with a ``quantile`` constructor parameter (e.g.
        :class:`~repro.models.linear.QuantileLinearRegression`,
        :class:`~repro.models.nn.MLPRegressor`,
        :class:`~repro.models.gbm.GradientBoostingRegressor`, or
        :class:`~repro.models.oblivious.ObliviousBoostingRegressor`).
        Two clones are trained at quantiles ``alpha/2`` and ``1 − alpha/2``.
    alpha:
        Target miscoverage (paper: 0.1).
    calibration_fraction:
        Held-out fraction for calibration (paper: 0.25).
    symmetric:
        ``True`` (paper) calibrates one shared margin from the two-sided
        score of Eq. (9).  ``False`` calibrates the lower and upper
        violations separately at level ``alpha/2`` each -- the asymmetric
        CQR variant of Romano et al.
    band_template:
        Optional unfitted band object (``fit``/``predict_interval``,
        cloneable) used instead of building a
        :class:`~repro.models.quantile.QuantileBandRegressor` from
        ``estimator``; e.g. the package-default CatBoost band of
        :class:`~repro.models.quantile.PackageDefaultQuantileBand`, or
        :class:`PointBand` for split CP around a point model.  When
        given, ``estimator`` may be ``None``.
    n_jobs:
        Concurrency for the band fit: the lo/hi quantile clones are
        independent, so ``n_jobs >= 2`` trains the pair in parallel (see
        :class:`~repro.models.quantile.QuantileBandRegressor`).  ``None``
        reads ``REPRO_N_JOBS``; calibration itself is a single quantile
        computation and always runs inline.  Ignored when
        ``band_template`` is given (the template carries its own
        concurrency configuration).
    random_state:
        Seed for the train/calibration split.
    """

    def __init__(
        self,
        estimator: Optional[BaseRegressor],
        alpha: float = 0.1,
        calibration_fraction: float = 0.25,
        symmetric: bool = True,
        band_template=None,
        n_jobs: Optional[int] = None,
        random_state: Optional[int] = None,
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if estimator is None and band_template is None:
            raise ValueError("provide an estimator or a band_template")
        self.estimator = estimator
        self.alpha = alpha
        self.calibration_fraction = calibration_fraction
        self.symmetric = symmetric
        self.band_template = band_template
        self.n_jobs = n_jobs
        self.random_state = random_state
        self.band_ = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ConformalizedQuantileRegressor":
        X, y = check_X_y(X, y)
        rng = check_random_state(self.random_state)
        train_idx, cal_idx = split_train_calibration(
            X.shape[0], self.calibration_fraction, rng
        )
        if self.band_template is not None:
            band = clone(self.band_template)
        else:
            band = QuantileBandRegressor(
                self.estimator, alpha=self.alpha, n_jobs=self.n_jobs
            )
        band.fit(X[train_idx], y[train_idx])
        self.band_ = band

        cal_lower, cal_upper = band.predict_interval(X[cal_idx])
        y_cal = y[cal_idx]
        # The two-sided scores are stored for downstream consumers that
        # recalibrate online from the deployed model's state (see
        # AdaptiveConformalPredictor.from_fitted), whichever variant
        # computes the margins below.
        self.calibration_scores_ = cqr_score(y_cal, cal_lower, cal_upper)
        # The calibration *features* are the frozen reference window for
        # the shift defense layer: covariate sentinels compare serving
        # batches against them, and weighted recalibration estimates the
        # density ratio from them (repro.shift).  They never flow into a
        # fit -- only into shift detectors and ratio estimation.
        self.calibration_features_ = np.array(X[cal_idx])
        if self.symmetric:
            scores = self.calibration_scores_
            self.quantile_low_ = conformal_quantile(scores, self.alpha)
            self.quantile_high_ = self.quantile_low_
        else:
            # Separate one-sided corrections, each at alpha/2, which also
            # yields >= 1 - alpha marginal coverage by a union bound.
            self.quantile_low_ = conformal_quantile(cal_lower - y_cal, self.alpha / 2)
            self.quantile_high_ = conformal_quantile(y_cal - cal_upper, self.alpha / 2)
        self.n_calibration_ = int(cal_idx.size)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Midpoint of the calibrated interval (diagnostic point estimate)."""
        intervals = self.predict_interval(X)
        return intervals.midpoint

    def predict_interval(
        self,
        X: np.ndarray,
        band: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> PredictionIntervals:
        """Calibrated band ``[lower − q̂_lo, upper + q̂_hi]`` (Eq. 10).

        ``band`` is ``band_.predict_interval(X)`` when the caller has
        already evaluated it; ``None`` evaluates it here.
        """
        check_fitted(self, "band_")
        if not (np.isfinite(self.quantile_low_) and np.isfinite(self.quantile_high_)):
            raise RuntimeError(
                f"calibration set of size {self.n_calibration_} is too small "
                f"for alpha={self.alpha}; intervals would be infinite"
            )
        lower, upper = band if band is not None else self.band_.predict_interval(X)
        return collapse_crossed(lower - self.quantile_low_, upper + self.quantile_high_)

    def serving_note(self) -> Optional[str]:
        """What a served interval notes about its calibration: nothing."""
        return None


class PointBand(BaseRegressor):
    """A point regressor seen as the zero-width band ``[ŷ, ŷ]``.

    Its CQR score ``max(ŷ − y, y − ŷ)`` equals ``|y − ŷ|`` bit for bit,
    so a :class:`ConformalizedQuantileRegressor` with
    ``band_template=PointBand(estimator)`` is split CP (Eqs. 7-8), and
    every variant built on a fitted CQR (Mondrian, weighted repair)
    serves point templates without a code path of its own.

    Parameters
    ----------
    estimator:
        Unfitted point regressor template; a clone is fitted.
    """

    def __init__(self, estimator: BaseRegressor) -> None:
        self.estimator = estimator
        self.estimator_: Optional[BaseRegressor] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "PointBand":
        self.estimator_ = clone(self.estimator).fit(X, y)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Point prediction of the fitted estimator."""
        check_fitted(self, "estimator_")
        return self.estimator_.predict(X)

    def predict_interval(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The zero-width band ``(ŷ, ŷ)``."""
        prediction = self.predict(X)
        return prediction, prediction
