"""Standardisation for the models that are not scale-free.

Parametric ATE data mixes units spanning many decades (nA leakage next to
mA supply currents), so the GP and NN models see their CFS-selected
features standardised (:class:`~repro.features.selection.CFSSelectedRegressor`
with ``scale=True``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.models.base import check_fitted

__all__ = ["StandardScaler"]


class StandardScaler:
    """Standardise features to zero mean and unit variance.

    Zero-variance columns are mapped to exactly zero (their mean is still
    subtracted) instead of dividing by zero.
    """

    def __init__(self) -> None:
        self.mean_: Optional[np.ndarray] = None
        self.scale_: Optional[np.ndarray] = None

    def fit(self, X: np.ndarray) -> "StandardScaler":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        self.scale_ = np.where(std == 0.0, 1.0, std)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, "mean_")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.mean_.shape[0]:
            raise ValueError(
                f"X must be 2-D with {self.mean_.shape[0]} columns, got {X.shape}"
            )
        return (X - self.mean_) / self.scale_
