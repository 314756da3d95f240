"""Conformity score functions.

A conformity score measures how badly a fitted predictor misses a
calibration example; the conformal quantile of these scores is the margin
added to test-time predictions.  The paper uses two:

* :func:`absolute_residual_score` -- Eq. (7), for split CP around a point
  predictor,
* :func:`cqr_score` -- Eq. (9), the signed distance by which a label
  escapes a quantile band (negative when safely inside), for CQR.
"""

from __future__ import annotations

import numpy as np

__all__ = ["absolute_residual_score", "cqr_score"]


def _validate_same_shape(*arrays: np.ndarray) -> None:
    shapes = {np.asarray(a).shape for a in arrays}
    if len(shapes) != 1:
        raise ValueError(f"arrays must share a shape, got {sorted(map(str, shapes))}")
    if np.asarray(arrays[0]).ndim != 1:
        raise ValueError("scores operate on 1-D arrays")


def absolute_residual_score(y: np.ndarray, prediction: np.ndarray) -> np.ndarray:
    """Split-CP score ``s = |y − ŷ|`` (paper Eq. 7)."""
    y = np.asarray(y, dtype=np.float64)
    prediction = np.asarray(prediction, dtype=np.float64)
    _validate_same_shape(y, prediction)
    return np.abs(y - prediction)


def cqr_score(
    y: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> np.ndarray:
    """CQR score ``s = max(lower − y, y − upper)`` (paper Eq. 9).

    Positive scores measure how far the label escaped the band; negative
    scores measure how deep inside it sits.  Keeping the negative part is
    essential: it lets the conformal correction *shrink* over-wide bands,
    one of CQR's advantages over split CP.
    """
    y = np.asarray(y, dtype=np.float64)
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    _validate_same_shape(y, lower, upper)
    if np.any(lower > upper):
        raise ValueError("lower bound exceeds upper bound; sort the band first")
    return np.maximum(lower - y, y - upper)
