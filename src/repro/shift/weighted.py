"""Likelihood-ratio-weighted conformal prediction (covariate-shift repair).

Standard split CP / CQR takes the ``ceil((n+1)(1-alpha))``-th smallest
calibration score as the margin -- valid only when calibration and test
points are exchangeable.  Under covariate shift with known likelihood
ratio ``w(x)``, Tibshirani et al. (2019) restore exact coverage by
replacing the empirical score distribution with the *weighted* one:
calibration score ``s_i`` carries mass ``w(x_i)``, the test point
contributes mass ``w(x_test)`` at ``+inf``, and the margin is the
``(1-alpha)``-quantile of that mixture.  With estimated ratios (see
:class:`~repro.shift.weights.LogisticDensityRatio`) the guarantee is
approximate, degrading gracefully with the estimation error.

The failure mode is weight degeneracy: a severe shift concentrates the
calibration mass on a few chips and the weighted quantile is fiction.
Every consumer here guards on the Kish effective sample size and raises
:class:`DegenerateWeightsError` instead of emitting such intervals --
refusing loudly is the contract, exactly like the registry refusing an
unverified artifact.

Two consumers are provided: :class:`WeightedBandCalibrator` re-calibrates
an *already fitted* quantile band (the serving-side repair path used by
:meth:`repro.robust.flow.RobustVminFlow.recalibrate_weighted`), and
:class:`WeightedConformalRegressor` is the standalone estimator (point
or quantile template) for offline use.
"""

from __future__ import annotations

import copy
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.calibration import conformal_quantile
from repro.core.intervals import PredictionIntervals
from repro.core.scores import absolute_residual_score, cqr_score
from repro.core.split_cp import split_train_calibration
from repro.models.base import (
    BaseRegressor,
    check_fitted,
    check_random_state,
    check_X_y,
    clone,
)
from repro.models.quantile import QuantileBandRegressor
from repro.shift.weights import LogisticDensityRatio, effective_sample_size

__all__ = [
    "DegenerateWeightsError",
    "WeightedBandCalibrator",
    "WeightedConformalRegressor",
    "weighted_conformal_quantile",
]


class DegenerateWeightsError(RuntimeError):
    """The density-ratio weights collapsed; no honest interval exists.

    Raised when the effective sample size of the calibration weights
    falls below the configured minimum -- the shift is so severe that
    the reference data carries almost no information about the current
    distribution, and a weighted quantile would be an arbitrary number
    wearing a coverage guarantee.  Callers should treat this like a
    rejected request: escalate (refit, re-baseline) rather than retry.
    """


def weighted_conformal_quantile(
    scores: np.ndarray,
    weights: np.ndarray,
    alpha: float,
    test_weight: float = 1.0,
) -> float:
    """Weighted finite-sample conformal quantile of the scores.

    The ``(1-alpha)``-quantile of the distribution placing mass
    ``weights[i]`` on ``scores[i]`` and mass ``test_weight`` on
    ``+inf``.  Returns ``inf`` when the infinite atom is needed (the
    weighted analogue of ``rank > n`` in
    :func:`~repro.core.calibration.conformal_quantile`); with all
    weights equal it reproduces the unweighted quantile exactly.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    weights = np.asarray(weights, dtype=np.float64).ravel()
    if scores.size == 0:
        raise ValueError("scores must be non-empty")
    if scores.shape != weights.shape:
        raise ValueError(
            f"scores and weights must match, got {scores.shape} and "
            f"{weights.shape}"
        )
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise ValueError("weights must be finite and non-negative")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not (np.isfinite(test_weight) and test_weight >= 0):
        raise ValueError(f"test_weight must be finite and >= 0, got {test_weight}")
    order = np.argsort(scores, kind="stable")
    cumulative = np.cumsum(weights[order])
    total = cumulative[-1] + test_weight
    if not total > 0.0:
        raise ValueError("weights and test_weight sum to zero")
    needed = (1.0 - alpha) * total
    index = int(np.searchsorted(cumulative, needed, side="left"))
    if index >= scores.size:
        return float("inf")
    return float(scores[order][index])


def _batch_corrections(
    sorted_scores: np.ndarray,
    cumulative_weights: np.ndarray,
    alpha: float,
    test_weights: np.ndarray,
) -> np.ndarray:
    """Vectorised weighted quantile per test point, clamped to finite.

    Shares the pre-sorted calibration state across the batch: only the
    test point's own mass varies.  A point whose weighted rank needs
    the infinite atom gets the most conservative *finite* correction
    (the maximum calibration score) -- the serving-side counterpart of
    :class:`~repro.core.adaptive.AdaptiveConformalPredictor`'s max-score
    fallback, chosen so a single heavy test weight degrades width, not
    availability.  Batch-level degeneracy is handled upstream by the
    ESS guard.
    """
    totals = cumulative_weights[-1] + test_weights
    needed = (1.0 - alpha) * totals
    indices = np.searchsorted(cumulative_weights, needed, side="left")
    clamped = np.minimum(indices, sorted_scores.size - 1)
    return sorted_scores[clamped]


class WeightedBandCalibrator:
    """Weighted-CQR margins around an already fitted quantile band.

    The serving-side repair object: built from a deployed band's
    calibration scores plus density-ratio weights, it serves per-test-
    point weighted corrections without refitting anything.

    Parameters
    ----------
    band:
        Fitted object exposing ``predict_interval(X) -> (lower, upper)``.
    calibration_scores:
        CQR scores of the band on its calibration split.
    calibration_weights:
        Density-ratio weight per calibration score (aligned).
    alpha:
        Target miscoverage of the corrected band.
    ratio:
        Optional fitted :class:`~repro.shift.weights.LogisticDensityRatio`
        used to weight each *test* point; ``None`` gives every test
        point unit mass.
    ratio_columns:
        Columns of the serving matrix the ratio model was estimated on
        (``None``: all columns).
    min_ess:
        Effective-sample-size floor; construction raises
        :class:`DegenerateWeightsError` below it.
    """

    def __init__(
        self,
        band,
        calibration_scores: np.ndarray,
        calibration_weights: np.ndarray,
        alpha: float = 0.1,
        ratio: Optional[LogisticDensityRatio] = None,
        ratio_columns: Optional[Sequence[int]] = None,
        min_ess: float = 10.0,
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if not hasattr(band, "predict_interval"):
            raise TypeError(
                f"band of type {type(band).__name__} has no predict_interval"
            )
        if not min_ess > 0:
            raise ValueError(f"min_ess must be > 0, got {min_ess}")
        scores = np.asarray(calibration_scores, dtype=np.float64).ravel()
        weights = np.asarray(calibration_weights, dtype=np.float64).ravel()
        if scores.size == 0:
            raise ValueError("calibration_scores must be non-empty")
        if scores.shape != weights.shape:
            raise ValueError(
                f"scores and weights must match, got {scores.shape} and "
                f"{weights.shape}"
            )
        if not np.all(np.isfinite(scores)):
            raise ValueError("calibration_scores must be finite")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0):
            raise ValueError("calibration_weights must be finite, non-negative")
        self.band = band
        self.alpha = alpha
        self.ratio = ratio
        self.ratio_columns = (
            None
            if ratio_columns is None
            else np.asarray(list(ratio_columns), dtype=np.int64)
        )
        self.min_ess = float(min_ess)
        self.ess_ = effective_sample_size(weights)
        if self.ess_ < self.min_ess:
            raise DegenerateWeightsError(
                f"weighted calibration ESS {self.ess_:.2f} below minimum "
                f"{self.min_ess:g} ({scores.size} calibration scores); "
                "refusing to emit intervals"
            )
        order = np.argsort(scores, kind="stable")
        self._sorted_scores = scores[order]
        self._cumulative_weights = np.cumsum(weights[order])
        self.n_calibration_ = int(scores.size)

    def _test_weights(self, X: np.ndarray) -> np.ndarray:
        if self.ratio is None:
            return np.ones(X.shape[0], dtype=np.float64)
        features = X if self.ratio_columns is None else X[:, self.ratio_columns]
        return self.ratio.weights(features)

    def predict_interval(
        self,
        X: np.ndarray,
        band: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> PredictionIntervals:
        """Band interval widened by the per-point weighted correction.

        ``band`` is ``self.band.predict_interval(X)`` when the caller has
        already evaluated it; ``None`` evaluates it here.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        lower, upper = band if band is not None else self.band.predict_interval(X)
        corrections = _batch_corrections(
            self._sorted_scores,
            self._cumulative_weights,
            self.alpha,
            self._test_weights(X),
        )
        lower = lower - corrections
        upper = upper + corrections
        crossed = lower > upper
        if np.any(crossed):
            mid = (lower + upper) / 2.0
            lower = np.where(crossed, mid, lower)
            upper = np.where(crossed, mid, upper)
        return PredictionIntervals(lower, upper)


class WeightedConformalRegressor(BaseRegressor):
    """Split conformal prediction with likelihood-ratio weighting.

    Fits exactly like the unweighted split wrappers (point template ->
    split CP on absolute residuals; quantile template -> CQR band), and
    additionally retains the calibration *features* so the margins can
    later be re-targeted at a shifted covariate distribution via
    :meth:`calibrate_to`.  Before any ``calibrate_to`` call the
    predictions are plain unweighted split CP.

    Parameters
    ----------
    estimator:
        Unfitted template; quantile-capable templates get the CQR
        treatment, point templates the split-CP one.
    alpha:
        Target miscoverage.
    calibration_fraction, random_state:
        As in the unweighted split wrappers.
    ratio_estimator:
        Unfitted :class:`~repro.shift.weights.LogisticDensityRatio`
        template for :meth:`calibrate_to` (deep-copied per call);
        default-configured when ``None``.
    ratio_columns:
        Feature columns the density ratio is estimated on (``None``:
        all).  Restricting to the monitor block keeps the logistic
        solve well-posed when the full matrix is wide.
    min_ess:
        Effective-sample-size floor for :meth:`calibrate_to`.
    """

    def __init__(
        self,
        estimator: BaseRegressor,
        alpha: float = 0.1,
        calibration_fraction: float = 0.25,
        ratio_estimator: Optional[LogisticDensityRatio] = None,
        ratio_columns: Optional[Sequence[int]] = None,
        min_ess: float = 10.0,
        random_state: Optional[int] = None,
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if not min_ess > 0:
            raise ValueError(f"min_ess must be > 0, got {min_ess}")
        self.estimator = estimator
        self.alpha = alpha
        self.calibration_fraction = calibration_fraction
        self.ratio_estimator = ratio_estimator
        self.ratio_columns = ratio_columns
        self.min_ess = min_ess
        self.random_state = random_state
        self.calibration_scores_: Optional[np.ndarray] = None

    @property
    def _is_quantile_model(self) -> bool:
        return self.estimator.get_params().get("quantile") is not None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "WeightedConformalRegressor":
        """Split, fit the template, store calibration scores + features."""
        X, y = check_X_y(X, y)
        rng = check_random_state(self.random_state)
        train_idx, cal_idx = split_train_calibration(
            X.shape[0], self.calibration_fraction, rng
        )
        if self._is_quantile_model:
            self.band_ = QuantileBandRegressor(self.estimator, alpha=self.alpha)
            self.band_.fit(X[train_idx], y[train_idx])
            cal_lower, cal_upper = self.band_.predict_interval(X[cal_idx])
            scores = cqr_score(y[cal_idx], cal_lower, cal_upper)
            self.point_model_ = None
        else:
            self.point_model_ = clone(self.estimator).fit(X[train_idx], y[train_idx])
            prediction = self.point_model_.predict(X[cal_idx])
            scores = absolute_residual_score(y[cal_idx], prediction)
            self.band_ = None
        self.calibration_scores_ = scores
        self.calibration_features_ = X[cal_idx]
        self.n_calibration_ = int(cal_idx.size)
        self.ratio_: Optional[LogisticDensityRatio] = None
        self.calibration_weights_: Optional[np.ndarray] = None
        self.ess_: Optional[float] = None
        return self

    def _columns(self) -> Optional[np.ndarray]:
        if self.ratio_columns is None:
            return None
        return np.asarray(list(self.ratio_columns), dtype=np.int64)

    def calibrate_to(self, X_current: np.ndarray) -> "WeightedConformalRegressor":
        """Re-target the margins at the covariate distribution of a batch.

        Estimates the density ratio between the held-out calibration
        features (reference) and ``X_current`` (the shifted serving
        distribution), installs the calibration weights, and returns
        self.  Raises :class:`DegenerateWeightsError` -- leaving the
        previous weighting untouched -- when the weights' effective
        sample size falls below ``min_ess``.
        """
        check_fitted(self, "calibration_scores_")
        X_current = np.asarray(X_current, dtype=np.float64)
        if X_current.ndim != 2:
            raise ValueError(f"X_current must be 2-D, got shape {X_current.shape}")
        if X_current.shape[1] != self.calibration_features_.shape[1]:
            raise ValueError(
                f"X_current has {X_current.shape[1]} features, fit saw "
                f"{self.calibration_features_.shape[1]}"
            )
        columns = self._columns()
        reference = self.calibration_features_
        current = X_current
        if columns is not None:
            reference = reference[:, columns]
            current = current[:, columns]
        ratio = (
            copy.deepcopy(self.ratio_estimator)
            if self.ratio_estimator is not None
            else LogisticDensityRatio()
        )
        ratio.estimate(reference, current)
        weights = ratio.weights(reference)
        ess = effective_sample_size(weights)
        if ess < self.min_ess:
            raise DegenerateWeightsError(
                f"weighted calibration ESS {ess:.2f} below minimum "
                f"{self.min_ess:g} ({weights.size} calibration chips); "
                "refusing to emit intervals"
            )
        self.ratio_ = ratio
        self.calibration_weights_ = weights
        self.ess_ = ess
        return self

    def _corrections(self, X: np.ndarray) -> np.ndarray:
        if self.ratio_ is None:
            correction = conformal_quantile(self.calibration_scores_, self.alpha)
            if not np.isfinite(correction):
                raise RuntimeError(
                    f"calibration set of size {self.n_calibration_} is too "
                    f"small for alpha={self.alpha}; intervals would be infinite"
                )
            return np.full(X.shape[0], correction, dtype=np.float64)
        columns = self._columns()
        features = X if columns is None else X[:, columns]
        order = np.argsort(self.calibration_scores_, kind="stable")
        return _batch_corrections(
            self.calibration_scores_[order],
            np.cumsum(self.calibration_weights_[order]),
            self.alpha,
            self.ratio_.weights(features),
        )

    def predict_interval(self, X: np.ndarray) -> PredictionIntervals:
        """Interval with unweighted or (after ``calibrate_to``) weighted margins."""
        check_fitted(self, "calibration_scores_")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        corrections = self._corrections(X)
        if self.point_model_ is not None:
            prediction = self.point_model_.predict(X)
            return PredictionIntervals(
                prediction - corrections, prediction + corrections
            )
        lower, upper = self.band_.predict_interval(X)
        lower = lower - corrections
        upper = upper + corrections
        crossed = lower > upper
        if np.any(crossed):
            mid = (lower + upper) / 2.0
            lower = np.where(crossed, mid, lower)
            upper = np.where(crossed, mid, upper)
        return PredictionIntervals(lower, upper)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Point prediction (template output, or interval midpoint)."""
        check_fitted(self, "calibration_scores_")
        if self.point_model_ is not None:
            return self.point_model_.predict(X)
        return self.predict_interval(X).midpoint
