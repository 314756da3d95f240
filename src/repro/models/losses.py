"""Loss functions and their derivatives for every trainable model.

The paper trains point predictors with mean-squared error and quantile
predictors with the pinball loss of Eq. (5):

.. math::

    \\mathcal{L}_q(y, \\hat y) = \\max\\{q (y - \\hat y),\\ (1 - q)(\\hat y - y)\\}.

Gradient-boosting models additionally need per-sample gradients and
Hessians of the loss with respect to the prediction.  The pinball loss
has a zero Hessian almost everywhere, so boosting uses the standard
unit-Hessian surrogate (the same choice XGBoost and LightGBM make).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "mse_gradient_hessian",
    "mse_loss",
    "pinball_gradient_hessian",
    "pinball_loss",
    "validate_quantile",
]


def validate_quantile(quantile: float) -> float:
    """Return ``quantile`` as a float after checking it lies in (0, 1)."""
    quantile = float(quantile)
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must be in the open interval (0, 1), got {quantile}")
    return quantile


def mse_loss(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean squared error between targets and predictions."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    return float(np.mean((y_true - y_pred) ** 2))


def mse_gradient_hessian(
    y_true: np.ndarray, y_pred: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-sample gradient and Hessian of ½(y − ŷ)² w.r.t. the prediction.

    The ½ factor gives gradient ``ŷ − y`` and Hessian ``1``, the convention
    used by XGBoost's ``reg:squarederror`` objective so leaf values come out
    as plain residual means.
    """
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    gradient = y_pred - y_true
    hessian = np.ones_like(gradient)
    return gradient, hessian


def pinball_loss(y_true: np.ndarray, y_pred: np.ndarray, quantile: float) -> float:
    """Mean pinball (quantile) loss, paper Eq. (5).

    For residual ``r = y − ŷ`` the per-sample loss is ``q·r`` when ``r ≥ 0``
    and ``(q − 1)·r`` otherwise; minimising it in expectation yields the
    ``q``-th conditional quantile (Koenker & Bassett, 1978).
    """
    quantile = validate_quantile(quantile)
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    residual = y_true - y_pred
    return float(np.mean(np.maximum(quantile * residual, (quantile - 1.0) * residual)))


def pinball_gradient_hessian(
    y_true: np.ndarray, y_pred: np.ndarray, quantile: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-sample (sub)gradient and surrogate Hessian of the pinball loss.

    Gradient w.r.t. the prediction is ``−q`` where ``y > ŷ`` and ``1 − q``
    where ``y < ŷ`` (either subgradient is valid at the kink; we use the
    ``y ≤ ŷ`` branch there).  The true Hessian is zero a.e., which would make
    Newton boosting degenerate, so a unit Hessian is returned -- turning the
    Newton step into a plain gradient step, exactly as XGBoost does for
    ``reg:quantileerror``.
    """
    quantile = validate_quantile(quantile)
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    gradient = np.where(y_true > y_pred, -quantile, 1.0 - quantile)
    hessian = np.ones_like(gradient)
    return gradient, hessian
