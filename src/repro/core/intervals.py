"""Prediction-interval container shared by every region predictor.

Having one immutable result type keeps the evaluation code honest: length
and coverage (the two metrics of Table III) are computed the same way no
matter which model produced the interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PredictionIntervals", "collapse_crossed"]


@dataclass(frozen=True)
class PredictionIntervals:
    """A batch of per-sample closed intervals ``[lower_i, upper_i]``.

    Instances are validated on construction: bounds must be finite 1-D
    arrays of equal length with ``lower <= upper`` everywhere.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lower = np.asarray(self.lower, dtype=np.float64)
        upper = np.asarray(self.upper, dtype=np.float64)
        if lower.ndim != 1 or upper.ndim != 1 or lower.shape != upper.shape:
            raise ValueError(
                f"bounds must be 1-D arrays of equal length, got "
                f"{lower.shape} and {upper.shape}"
            )
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("interval bounds must be finite")
        if np.any(lower > upper):
            bad = int(np.argmax(lower > upper))
            raise ValueError(
                f"lower bound exceeds upper bound at index {bad}: "
                f"[{lower[bad]}, {upper[bad]}]"
            )
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def __len__(self) -> int:
        return int(self.lower.shape[0])

    @property
    def width(self) -> np.ndarray:
        """Per-sample interval length."""
        return self.upper - self.lower

    @property
    def mean_width(self) -> float:
        """Average interval length -- Table III's "Length" column."""
        return float(np.mean(self.width))

    @property
    def midpoint(self) -> np.ndarray:
        """Per-sample interval centre."""
        return (self.lower + self.upper) / 2.0

    def contains(self, y: np.ndarray) -> np.ndarray:
        """Boolean mask of which targets fall inside their interval."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != self.lower.shape:
            raise ValueError(
                f"y has shape {y.shape}, intervals have shape {self.lower.shape}"
            )
        return (y >= self.lower) & (y <= self.upper)

    def coverage(self, y: np.ndarray) -> float:
        """Empirical coverage rate -- Table III's "Coverage" column."""
        return float(np.mean(self.contains(y)))


def collapse_crossed(lower: np.ndarray, upper: np.ndarray) -> PredictionIntervals:
    """Intervals from widened bounds, crossed pairs collapsed to their midpoint.

    A negative conformal correction (CQR shrinking an over-wide band) or
    CV+'s per-point ranks can push a lower bound past its upper bound.
    The empty interval is conventionally collapsed to its midpoint: it
    still covers nothing, but it is a valid closed interval.
    """
    crossed = lower > upper
    if np.any(crossed):
        mid = (lower + upper) / 2.0
        lower = np.where(crossed, mid, lower)
        upper = np.where(crossed, mid, upper)
    return PredictionIntervals(lower, upper)
