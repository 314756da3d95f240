"""The deployable Vmin interval-prediction pipeline.

:class:`VminPredictionFlow` packages the paper's recommended recipe -- a
quantile-capable base model on every raw column and split-CQR
calibration -- behind a single fit/predict interface, so a test-floor
integration only deals with feature matrices in and calibrated intervals
out.  It also exposes the conformal correction and the effective
finite-sample guarantee for audit trails (automotive quality flows
require exactly this kind of traceability).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.calibration import effective_coverage_level
from repro.core.cqr import ConformalizedQuantileRegressor
from repro.core.intervals import PredictionIntervals
from repro.models.base import BaseRegressor, check_X_y, check_fitted, clone
from repro.models.oblivious import ObliviousBoostingRegressor

__all__ = ["VminPredictionFlow"]


class VminPredictionFlow:
    """Fit quantile band -> conformalize -> predict.

    The band sees every raw column, unscaled, and split CQR holds out a
    quarter of the training chips for calibration (paper Section IV-C).
    A base model that needs CFS selection or scaling comes wrapped in
    :class:`~repro.features.selection.CFSSelectedRegressor`, which the
    conformal split refits on the proper-training part only.

    Parameters
    ----------
    base_model:
        Unfitted quantile-capable template.  ``None`` uses the paper's
        best variant, CQR CatBoost (oblivious boosting, 100 trees).
    alpha:
        Target miscoverage (paper: 0.1).
    random_state:
        Seed for the internal calibration split.
    """

    def __init__(
        self,
        base_model: Optional[BaseRegressor] = None,
        alpha: float = 0.1,
        random_state: Optional[int] = None,
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.base_model = base_model
        self.alpha = alpha
        self.random_state = random_state
        self.cqr_: Optional[ConformalizedQuantileRegressor] = None

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        feature_names: Optional[List[str]] = None,
    ) -> "VminPredictionFlow":
        """Fit the full pipeline on training chips.

        ``feature_names``, if given, must align with the columns of ``X``.
        """
        X, y = check_X_y(X, y)
        if feature_names is not None and len(feature_names) != X.shape[1]:
            raise ValueError(
                f"{len(feature_names)} feature names for {X.shape[1]} columns"
            )

        template = self.base_model
        if template is None:
            template = ObliviousBoostingRegressor(
                quantile=0.5, random_state=self.random_state
            )
        elif "quantile" not in template.get_params():
            raise ValueError(
                f"{type(template).__name__} has no 'quantile' parameter; "
                "the flow needs a quantile-capable base model"
            )
        self.cqr_ = ConformalizedQuantileRegressor(
            clone(template), alpha=self.alpha, random_state=self.random_state
        ).fit(X, y)
        return self

    def predict_interval(self, X: np.ndarray) -> PredictionIntervals:
        """Calibrated Vmin interval per chip (V)."""
        check_fitted(self, "cqr_")
        return self.cqr_.predict_interval(np.asarray(X, dtype=np.float64))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Interval midpoint as a point estimate (V)."""
        return self.predict_interval(X).midpoint

    @property
    def guaranteed_coverage_(self) -> float:
        """The finite-sample marginal guarantee actually achieved.

        Slightly above ``1 − alpha`` due to the discrete conformal rank;
        see :func:`repro.core.calibration.effective_coverage_level`.
        """
        check_fitted(self, "cqr_")
        return effective_coverage_level(self.cqr_.n_calibration_, self.alpha)

    @property
    def conformal_correction_(self) -> Tuple[float, float]:
        """The (lower, upper) margins added to the raw quantile band (V)."""
        check_fitted(self, "cqr_")
        return self.cqr_.quantile_low_, self.cqr_.quantile_high_
