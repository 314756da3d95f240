"""Scalar point-prediction metrics (paper Section IV-B).

The coefficient of determination :math:`R^2` and the root mean squared
error of Fig. 2.  The region metrics of Table III, empirical coverage
and average interval length, are
:meth:`~repro.core.intervals.PredictionIntervals.coverage` and
:attr:`~repro.core.intervals.PredictionIntervals.mean_width`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["r2_score", "rmse"]


def _check_pair(y_true: np.ndarray, y_pred: np.ndarray):
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.ndim != 1 or y_true.shape != y_pred.shape:
        raise ValueError(
            f"y_true and y_pred must be 1-D with equal shape, got "
            f"{y_true.shape} and {y_pred.shape}"
        )
    if y_true.size == 0:
        raise ValueError("metrics need at least one sample")
    return y_true, y_pred


def r2_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination.

    1 is perfect, 0 matches predicting the mean, negative is worse than
    the mean.  A constant target yields 1.0 only for an exact match.
    """
    y_true, y_pred = _check_pair(y_true, y_pred)
    residual = float(np.sum((y_true - y_pred) ** 2))
    total = float(np.sum((y_true - y_true.mean()) ** 2))
    if total == 0.0:
        return 1.0 if residual == 0.0 else 0.0
    return 1.0 - residual / total


def rmse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Root mean squared error, in the units of the target."""
    y_true, y_pred = _check_pair(y_true, y_pred)
    return float(np.sqrt(np.mean((y_true - y_pred) ** 2)))
