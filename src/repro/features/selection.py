"""The one select -> scale -> fit estimator of the paper's CFS models.

The paper (Section IV-C) gives the LR, GP and NN models a CFS-selected
subset of 1 to 10 features and reports the best testing score;
:func:`repro.eval.experiments.run_point_experiment` sweeps that size, and
every fit at one size is a :class:`CFSSelectedRegressor`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.features.cfs import CFSSelector
from repro.features.preprocessing import StandardScaler
from repro.models.base import BaseRegressor, check_fitted, check_X_y, clone

__all__ = ["CFSSelectedRegressor"]


class CFSSelectedRegressor(BaseRegressor):
    """An estimator that performs CFS selection *inside* its own ``fit``.

    Composing selection into the estimator -- instead of selecting once on
    the full training set and fitting models on the projected matrix -- is
    what keeps conformal wrappers honest: split CP/CQR clone and refit
    their base model on the proper-training part only, so the feature
    subset is then chosen without ever seeing the calibration chips.  With
    ~2000 candidate channels and ~100 chips, selection that peeks at the
    calibration set picks spuriously-correlated channels whose optimism
    transfers to the calibration scores and silently destroys the
    finite-sample guarantee (empirically: 20-30 points of lost coverage).

    Parameters
    ----------
    estimator:
        Unfitted inner model template.
    k:
        CFS subset size.
    scale:
        Standardise the selected features before fitting (for NN/GP).
    quantile:
        Optional passthrough: when set, the inner template is cloned with
        this ``quantile`` value, which lets
        :class:`~repro.models.quantile.QuantileBandRegressor` retarget a
        wrapped template exactly like a bare one.
    """

    def __init__(
        self,
        estimator: BaseRegressor,
        k: int = 10,
        scale: bool = False,
        quantile: Optional[float] = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.estimator = estimator
        self.k = k
        self.scale = scale
        self.quantile = quantile
        self.model_: Optional[BaseRegressor] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "CFSSelectedRegressor":
        X, y = check_X_y(X, y)
        self.selector_ = CFSSelector(k_max=self.k).fit(X, y)
        X = self.selector_.transform(X)
        if self.scale:
            self.scaler_ = StandardScaler().fit(X)
            X = self.scaler_.transform(X)
        else:
            self.scaler_ = None
        if self.quantile is None:
            self.model_ = clone(self.estimator)
        else:
            self.model_ = clone(self.estimator, quantile=self.quantile)
        self.model_.fit(X, y)
        return self

    def _transform(self, X: np.ndarray) -> np.ndarray:
        X = self.selector_.transform(X)
        if self.scaler_ is not None:
            X = self.scaler_.transform(X)
        return X

    def predict(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, "model_")
        return self.model_.predict(self._transform(np.asarray(X, dtype=np.float64)))

    def predict_interval(self, X: np.ndarray):
        check_fitted(self, "model_")
        if not hasattr(self.model_, "predict_interval"):
            raise TypeError(
                f"{type(self.model_).__name__} has no predict_interval()"
            )
        return self.model_.predict_interval(
            self._transform(np.asarray(X, dtype=np.float64))
        )
