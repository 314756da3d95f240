"""Finite-sample conformal quantile computation (paper Eqs. 7 and 9).

Split CP and CQR both reduce to one number: the
:math:`\\lceil (M+1)(1-\\alpha) \\rceil / M`-th empirical quantile of the
calibration scores, where ``M`` is the calibration-set size.  The ``+1``
is what upgrades the in-sample quantile to a finite-sample guarantee for
an exchangeable test point; getting it off by one silently destroys the
guarantee, so it lives here once, fully tested, instead of being repeated
in every predictor.
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

__all__ = [
    "conformal_quantile",
    "conformal_rank",
    "effective_coverage_level",
    "required_calibration_size",
]


def conformal_rank(n_scores: int, alpha: float) -> int:
    """The 1-based rank ``ceil((M+1)(1−alpha))`` of the conformal quantile.

    The one place the finite-sample ``+1`` is written down; a rank above
    ``M`` means the calibration set is too small for ``alpha``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return math.ceil((n_scores + 1) * (1.0 - alpha))


def conformal_quantile(
    scores: np.ndarray,
    alpha: float,
    weights: Optional[np.ndarray] = None,
    test_weight: Union[float, np.ndarray] = 1.0,
) -> Union[float, np.ndarray]:
    """The finite-sample-corrected ``(1 − alpha)`` quantile of the scores.

    Computes the ``ceil((M+1)(1−alpha))``-th smallest score.  When the
    required rank exceeds ``M`` (calibration set too small for the target
    coverage) the quantile is ``+inf``: the only interval with guaranteed
    coverage is the whole real line, and callers must handle that case
    rather than silently under-cover.

    With ``weights`` (Tibshirani et al., 2019) the quantile is that of
    the distribution placing mass ``weights[i]`` on ``scores[i]`` and
    mass ``test_weight`` on ``+inf``; ``+inf`` again when the infinite
    atom is needed.  Unit weights reproduce the unweighted quantile
    exactly.  A 1-D ``test_weight`` returns one quantile per test point.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError(f"scores must be a non-empty 1-D array, got shape {scores.shape}")
    if np.any(np.isnan(scores)):
        raise ValueError("scores contain NaN")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if weights is not None:
        return _weighted_quantile(scores, alpha, weights, test_weight)
    m = scores.size
    rank = conformal_rank(m, alpha)
    if rank > m:
        return float("inf")
    # rank is 1-based; np.partition gives the rank-th smallest at index rank-1.
    return float(np.partition(scores, rank - 1)[rank - 1])


def _weighted_quantile(scores, alpha, weights, test_weight):
    """Cumulative-mass search behind the weighted :func:`conformal_quantile`."""
    weights = np.asarray(weights, dtype=np.float64)
    if scores.shape != weights.shape:
        raise ValueError(
            f"scores and weights must match, got {scores.shape} and "
            f"{weights.shape}"
        )
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise ValueError("weights must be finite and non-negative")
    test_weight = np.asarray(test_weight, dtype=np.float64)
    if not (np.all(np.isfinite(test_weight)) and np.all(test_weight >= 0)):
        raise ValueError(f"test_weight must be finite and >= 0, got {test_weight}")
    order = np.argsort(scores, kind="stable")
    cumulative = np.cumsum(weights[order])
    total = cumulative[-1] + test_weight
    if not np.all(total > 0.0):
        raise ValueError("weights and test_weight sum to zero")
    index = np.searchsorted(cumulative, (1.0 - alpha) * total, side="left")
    ranked = scores[order][np.minimum(index, scores.size - 1)]
    quantile = np.where(index < scores.size, ranked, np.inf)
    return float(quantile) if quantile.ndim == 0 else quantile


def effective_coverage_level(n_calibration: int, alpha: float) -> float:
    """The marginal coverage actually guaranteed with ``M`` calibration points.

    Split conformal guarantees coverage at least
    ``ceil((M+1)(1−alpha)) / (M+1)``, which exceeds the nominal ``1−alpha``
    slightly (the discrete-rank overshoot).  Useful for reporting the real
    guarantee behind Table III's 90 % target with ~29 calibration chips.
    """
    if n_calibration < 1:
        raise ValueError(f"n_calibration must be >= 1, got {n_calibration}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    rank = conformal_rank(n_calibration, alpha)
    return min(1.0, rank / (n_calibration + 1))


def required_calibration_size(alpha: float) -> int:
    """Smallest calibration size for which the quantile is finite.

    A finite conformal quantile needs ``ceil((M+1)(1−alpha)) <= M``, i.e.
    at least ``ceil(1/alpha) − 1`` calibration samples.  At the paper's
    ``alpha = 0.1`` this is 9 chips.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return math.ceil(1.0 / alpha) - 1
