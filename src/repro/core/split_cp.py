"""Split conformal prediction (paper Section III-B).

Wraps any point regressor: the training data is split into a proper
training part and a calibration part; the regressor is fitted on the
former, the conformal quantile ``q̂`` of absolute residuals (Eq. 7) is
computed on the latter, and every test interval is ``ŷ ± q̂`` (Eq. 8).

The marginal guarantee ``P(y ∈ C(x)) ≥ 1 − α`` holds for exchangeable
data regardless of how poor the regressor is; what suffers with a bad
model is only the width.  The known limitation the paper stresses --
constant width for every chip, over-margining normal parts and
under-margining outliers -- is what CQR fixes.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.calibration import conformal_quantile
from repro.core.intervals import PredictionIntervals
from repro.core.scores import absolute_residual_score
from repro.models.base import (
    BaseRegressor,
    check_fitted,
    check_random_state,
    check_X_y,
    clone,
)

__all__ = ["SplitConformalRegressor", "split_train_calibration"]


def split_train_calibration(
    n_samples: int,
    calibration_fraction: float,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Random disjoint (train, calibration) index split.

    The paper holds out 25 % of the training chips for calibration
    (Section IV-B).  At least one sample is kept on each side.
    """
    if not 0.0 < calibration_fraction < 1.0:
        raise ValueError(
            f"calibration_fraction must be in (0, 1), got {calibration_fraction}"
        )
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples to split, got {n_samples}")
    n_calibration = int(round(calibration_fraction * n_samples))
    n_calibration = min(max(n_calibration, 1), n_samples - 1)
    permutation = rng.permutation(n_samples)
    return permutation[n_calibration:], permutation[:n_calibration]


class SplitConformalRegressor(BaseRegressor):
    """Constant-width conformal intervals around a point predictor.

    Parameters
    ----------
    estimator:
        Unfitted point regressor template; a clone is fitted on the proper
        training split.
    alpha:
        Target miscoverage (paper: 0.1 → 90 % coverage).
    calibration_fraction:
        Fraction of ``fit`` data held out for calibration (paper: 0.25).
    random_state:
        Seed for the train/calibration split.
    """

    def __init__(
        self,
        estimator: BaseRegressor,
        alpha: float = 0.1,
        calibration_fraction: float = 0.25,
        random_state: Optional[int] = None,
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.estimator = estimator
        self.alpha = alpha
        self.calibration_fraction = calibration_fraction
        self.random_state = random_state
        self.estimator_: Optional[BaseRegressor] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "SplitConformalRegressor":
        X, y = check_X_y(X, y)
        rng = check_random_state(self.random_state)
        train_idx, cal_idx = split_train_calibration(
            X.shape[0], self.calibration_fraction, rng
        )
        self.estimator_ = clone(self.estimator).fit(X[train_idx], y[train_idx])

        scores = absolute_residual_score(
            y[cal_idx], self.estimator_.predict(X[cal_idx])
        )
        self.quantile_ = conformal_quantile(scores, self.alpha)
        self.n_calibration_ = int(cal_idx.size)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Point prediction of the underlying fitted estimator."""
        check_fitted(self, "estimator_")
        return self.estimator_.predict(X)

    def predict_interval(self, X: np.ndarray) -> PredictionIntervals:
        """Conformal interval ``ŷ ± q̂`` (Eq. 8)."""
        check_fitted(self, "estimator_")
        prediction = self.estimator_.predict(X)
        if not np.isfinite(self.quantile_):
            raise RuntimeError(
                f"calibration set of size {self.n_calibration_} is too small "
                f"for alpha={self.alpha}; intervals would be infinite"
            )
        return PredictionIntervals(
            prediction - self.quantile_, prediction + self.quantile_
        )
