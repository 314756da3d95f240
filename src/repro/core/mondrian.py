"""Mondrian (group-conditional) conformal calibration.

Marginal conformal coverage averages over the whole chip population: a
90 % marginal guarantee can hide 70 % coverage on hot-corner parts and
98 % on nominal ones.  Mondrian conformal prediction calibrates a
separate quantile per *group* (here: any chip taxonomy -- temperature
corner, process bin, wafer zone), guaranteeing coverage within each
group as long as at least ``required_calibration_size(alpha)`` members
land in each calibration group.

This is an extension beyond the paper, motivated by its automotive
setting where per-corner guarantees are the natural product requirement.
The wrapper fits one
:class:`~repro.core.cqr.ConformalizedQuantileRegressor` -- around the
template's quantile band, or around a :class:`~repro.core.cqr.PointBand`
for a point template -- and replaces its one marginal margin with a
margin per group of its calibration scores.
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, Hashable, Optional, Tuple

import numpy as np

from repro.core.calibration import conformal_quantile
from repro.core.cqr import ConformalizedQuantileRegressor, PointBand
from repro.core.intervals import PredictionIntervals, collapse_crossed
from repro.models.base import BaseRegressor, check_fitted

__all__ = ["MondrianConformalRegressor", "MondrianFallbackWarning"]


class MondrianFallbackWarning(UserWarning):
    """A prediction used the marginal fallback for unseen group keys.

    The per-group guarantee does not apply to those rows -- they only
    get the *marginal* quantile -- so a fleet gap (a wafer zone or
    corner absent from calibration) must be visible, not silent.  The
    offending keys are carried on :attr:`group_keys` for programmatic
    consumers (e.g. serving audits); the message lists them for humans.
    """

    def __init__(self, group_keys: Tuple[Hashable, ...]) -> None:
        self.group_keys = tuple(group_keys)
        super().__init__(
            "no calibration data for group keys "
            f"{sorted(str(k) for k in self.group_keys)}; falling back to the "
            "marginal quantile, which carries no per-group guarantee"
        )


class MondrianConformalRegressor(BaseRegressor):
    """Per-group conformal calibration of a point or quantile model.

    Parameters
    ----------
    estimator:
        Unfitted template.  If it has a ``quantile`` parameter the wrapper
        behaves like group-wise CQR (band + per-group correction);
        otherwise like group-wise split CP (point prediction ± per-group
        margin).
    group_function:
        Maps a feature matrix to a 1-D array of hashable group keys, one
        per row (e.g. ``lambda X: X[:, temperature_column]``).
    alpha:
        Target miscoverage, guaranteed *within every group*.
    calibration_fraction, random_state:
        As in the split wrappers.
    """

    def __init__(
        self,
        estimator: BaseRegressor,
        group_function: Callable[[np.ndarray], np.ndarray],
        alpha: float = 0.1,
        calibration_fraction: float = 0.25,
        random_state: Optional[int] = None,
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.estimator = estimator
        self.group_function = group_function
        self.alpha = alpha
        self.calibration_fraction = calibration_fraction
        self.random_state = random_state
        self.group_quantiles_: Optional[Dict[Hashable, float]] = None

    @property
    def _is_quantile_model(self) -> bool:
        # A template counts as quantile-capable only when its quantile is
        # actually set: wrappers like CFSSelectedRegressor expose a
        # ``quantile`` passthrough that defaults to None for point models.
        return self.estimator.get_params().get("quantile") is not None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MondrianConformalRegressor":
        quantile_model = self._is_quantile_model
        cqr = ConformalizedQuantileRegressor(
            self.estimator if quantile_model else None,
            alpha=self.alpha,
            calibration_fraction=self.calibration_fraction,
            band_template=None if quantile_model else PointBand(self.estimator),
            random_state=self.random_state,
        ).fit(X, y)
        scores = cqr.calibration_scores_
        groups = np.asarray(self.group_function(cqr.calibration_features_))
        if groups.shape != scores.shape:
            raise ValueError(
                "group_function must return one key per row, got shape "
                f"{groups.shape} for {scores.size} rows"
            )
        quantiles: Dict[Hashable, float] = {}
        counts: Dict[Hashable, int] = {}
        for key in np.unique(groups):
            members = groups == key
            quantiles[_hashable(key)] = conformal_quantile(scores[members], self.alpha)
            counts[_hashable(key)] = int(members.sum())
        self.cqr_ = cqr
        self.band_ = cqr.band_ if quantile_model else None
        self.point_model_ = None if quantile_model else cqr.band_.estimator_
        self.group_quantiles_ = quantiles
        self.group_counts_ = counts
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, "group_quantiles_")
        if self.point_model_ is not None:
            return self.point_model_.predict(X)
        return self.predict_interval(X).midpoint

    def predict_interval(self, X: np.ndarray) -> PredictionIntervals:
        """Per-sample interval using the sample's group quantile.

        A group whose calibration quantile is infinite (too few members)
        raises rather than silently emitting unbounded intervals.  Rows
        whose group was never seen at calibration get the marginal
        fallback quantile and trigger one :class:`MondrianFallbackWarning`
        per call carrying the offending keys (sorted by string form).
        """
        check_fitted(self, "group_quantiles_")
        groups = np.asarray(self.group_function(np.asarray(X, dtype=np.float64)))
        unseen = {_hashable(key) for key in np.unique(groups)}
        unseen -= set(self.group_quantiles_)
        if unseen:
            warnings.warn(
                MondrianFallbackWarning(tuple(sorted(unseen, key=str))),
                stacklevel=2,
            )
        # Groups unseen at calibration fall back to the CQR's own
        # marginal margin.
        fallback = self.cqr_.quantile_low_
        corrections = np.array(
            [self.group_quantiles_.get(_hashable(key), fallback) for key in groups]
        )
        if not np.all(np.isfinite(corrections)):
            bad = {str(g) for g, c in zip(groups, corrections) if not np.isfinite(c)}
            raise RuntimeError(
                f"groups {sorted(bad)} have too few calibration samples for "
                f"alpha={self.alpha}; intervals would be infinite"
            )
        lower, upper = self.cqr_.band_.predict_interval(X)
        return collapse_crossed(lower - corrections, upper + corrections)


def _hashable(key) -> Hashable:
    """Normalise numpy scalars so dict lookups are stable."""
    if isinstance(key, np.generic):
        return key.item()
    return key
