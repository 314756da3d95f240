"""Likelihood-ratio-weighted conformal prediction (covariate-shift repair).

Standard split CP / CQR takes the ``ceil((n+1)(1-alpha))``-th smallest
calibration score as the margin -- valid only when calibration and test
points are exchangeable.  Under covariate shift with known likelihood
ratio ``w(x)``, Tibshirani et al. (2019) restore exact coverage by
replacing the empirical score distribution with the *weighted* one:
calibration score ``s_i`` carries mass ``w(x_i)``, the test point
contributes mass ``w(x_test)`` at ``+inf``, and the margin is the
``(1-alpha)``-quantile of that mixture -- the weighted form of
:func:`~repro.core.calibration.conformal_quantile`.  With estimated
ratios (see :class:`~repro.shift.weights.LogisticDensityRatio`) the
guarantee is approximate, degrading gracefully with the estimation
error.

The failure mode is weight degeneracy: a severe shift concentrates the
calibration mass on a few chips and the weighted quantile is fiction.
:class:`WeightedBandCalibrator` guards on the Kish effective sample size
and raises :class:`DegenerateWeightsError` instead of emitting such
intervals -- refusing loudly is the contract, exactly like the registry
refusing an unverified artifact.

The calibrator re-weights an *already fitted* band: the ``band_`` and
``calibration_scores_`` of any fitted
:class:`~repro.core.cqr.ConformalizedQuantileRegressor`.
:func:`weighted_band_calibrator` estimates the density ratio from that
CQR's calibration features and a shifted batch; it is the serving-side
repair path of
:meth:`repro.robust.flow.RobustVminFlow.recalibrate_weighted`.  Weighted
split CP is the same two lines over a
:class:`~repro.core.cqr.PointBand`::

    cqr = ConformalizedQuantileRegressor(
        None, band_template=PointBand(LinearRegression())
    ).fit(X, y)
    repair = weighted_band_calibrator(
        cqr.band_, cqr.calibration_scores_, cqr.calibration_features_, X_shifted
    )
"""

from __future__ import annotations

import copy
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.calibration import conformal_quantile
from repro.core.intervals import PredictionIntervals, collapse_crossed
from repro.shift.weights import LogisticDensityRatio, effective_sample_size

__all__ = [
    "DegenerateWeightsError",
    "MIN_ESS",
    "WeightedBandCalibrator",
    "weighted_band_calibrator",
]

MIN_ESS = 10.0
"""Effective-sample-size floor of the calibration weights: below it the
weighted quantile rests on too few chips and a repair is refused."""


class DegenerateWeightsError(RuntimeError):
    """The density-ratio weights collapsed; no honest interval exists.

    Raised when the effective sample size of the calibration weights
    falls below :data:`MIN_ESS` -- the shift is so severe that
    the reference data carries almost no information about the current
    distribution, and a weighted quantile would be an arbitrary number
    wearing a coverage guarantee.  Callers should treat this like a
    rejected request: escalate (refit, re-baseline) rather than retry.
    """


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

    Construction raises :class:`DegenerateWeightsError` when the
    weights' effective sample size falls below :data:`MIN_ESS`.
    """

    def __init__(
        self,
        band,
        calibration_scores: np.ndarray,
        calibration_weights: np.ndarray,
        alpha: float = 0.1,
        ratio: Optional[LogisticDensityRatio] = None,
        ratio_columns: Optional[Sequence[int]] = None,
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if not hasattr(band, "predict_interval"):
            raise TypeError(
                f"band of type {type(band).__name__} has no predict_interval"
            )
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
        self.band = band
        self.alpha = alpha
        self.ratio = ratio
        self.ratio_columns = (
            None
            if ratio_columns is None
            else np.asarray(list(ratio_columns), dtype=np.int64)
        )
        # effective_sample_size also rejects non-finite or negative weights.
        self.ess_ = effective_sample_size(weights)
        if self.ess_ < MIN_ESS:
            raise DegenerateWeightsError(
                f"weighted calibration ESS {self.ess_:.2f} below minimum "
                f"{MIN_ESS:g} ({scores.size} calibration scores); "
                "refusing to emit intervals"
            )
        self._scores = scores
        self._weights = weights
        self.n_calibration_ = int(scores.size)

    def serving_note(self) -> str:
        """What a served interval notes about its calibration."""
        return f"weighted shift repair active (ESS={self.ess_:.1f})"

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
        corrections = conformal_quantile(
            self._scores,
            self.alpha,
            weights=self._weights,
            test_weight=self._test_weights(X),
        )
        # A point whose weighted rank needs the infinite atom gets the
        # largest calibration score -- the most conservative *finite*
        # margin, as in the adaptive window -- so a single heavy test
        # weight degrades width, not availability.  Batch-level
        # degeneracy is the ESS guard's job.
        corrections = np.minimum(corrections, self._scores.max())
        return collapse_crossed(lower - corrections, upper + corrections)


def weighted_band_calibrator(
    band,
    scores: np.ndarray,
    reference: np.ndarray,
    current: np.ndarray,
    alpha: float = 0.1,
    ratio_estimator: Optional[LogisticDensityRatio] = None,
    ratio_columns: Optional[Sequence[int]] = None,
) -> WeightedBandCalibrator:
    """Weighted margins around ``band``, re-targeted at ``current``.

    Estimates the density ratio between the calibration features
    (``reference``, aligned with ``scores``) and ``current`` (the
    shifted serving distribution) and returns the
    :class:`WeightedBandCalibrator` that serves it.  Raises
    :class:`DegenerateWeightsError` when the weights' effective sample
    size falls below :data:`MIN_ESS`.

    Parameters
    ----------
    band, scores, reference:
        A fitted CQR's ``band_``, ``calibration_scores_`` and
        ``calibration_features_``.
    current:
        Batch from the current (shifted) covariate distribution, as wide
        as ``reference``.
    alpha:
        Target miscoverage of the corrected band.
    ratio_estimator:
        Unfitted ratio template (deep-copied); default-configured
        :class:`~repro.shift.weights.LogisticDensityRatio` when ``None``.
    ratio_columns:
        Feature columns the ratio is estimated on (``None``: all).
        Restricting to the monitor block keeps the logistic solve
        well-posed when the full matrix is wide.
    """
    reference = np.asarray(reference, dtype=np.float64)
    current = np.asarray(current, dtype=np.float64)
    if current.ndim != 2:
        raise ValueError(f"current must be 2-D, got shape {current.shape}")
    if current.shape[1] != reference.shape[1]:
        raise ValueError(
            f"current has {current.shape[1]} features, the calibration "
            f"features have {reference.shape[1]}"
        )
    if ratio_columns is not None:
        columns = np.asarray(list(ratio_columns), dtype=np.int64)
        reference = reference[:, columns]
        current = current[:, columns]
    ratio = (
        copy.deepcopy(ratio_estimator)
        if ratio_estimator is not None
        else LogisticDensityRatio()
    )
    ratio.estimate(reference, current)
    return WeightedBandCalibrator(
        band,
        scores,
        ratio.weights(reference),
        alpha=alpha,
        ratio=ratio,
        ratio_columns=ratio_columns,
    )
