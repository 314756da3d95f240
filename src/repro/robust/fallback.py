"""Graceful degradation: structured status instead of exceptions.

A deployed Vmin predictor has exactly three honest answers when its
inputs are damaged, ordered by how much trust survives:

* ``OK`` -- the batch is clean, serve the calibrated interval as-is;
* ``DEGRADED`` -- some sensors were imputed; serve the primary model
  but *inflate* the interval in proportion to the damage, because the
  conformal guarantee was calibrated on clean features;
* ``FALLBACK`` -- the on-chip monitor block is too damaged to trust at
  all; switch to a model trained on the still-healthy feature group
  (typically time-zero parametric data) and inflate.

The thresholds and the inflation schedule are fixed operating points
(:data:`FALLBACK_THRESHOLD`, :data:`WIDTH_INFLATION`, ...), applied by
:func:`classify` and :func:`inflation_factor`;
:class:`DegradedPrediction` is the structured result every
robust prediction returns -- intervals plus status, health report,
inflation factor, and human-readable notes -- so a test-floor
integration can log and branch instead of catching exceptions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.intervals import PredictionIntervals
from repro.robust.guard import HealthReport

__all__ = [
    "DEGRADED_THRESHOLD",
    "DegradationStatus",
    "DegradedPrediction",
    "FALLBACK_THRESHOLD",
    "MAX_INFLATION",
    "WIDTH_INFLATION",
    "classify",
    "inflate_intervals",
    "inflation_factor",
]

DEGRADED_THRESHOLD = 0.0
"""Unhealthy-feature fraction above which a batch is no longer ``OK``:
any imputation at all degrades it."""

FALLBACK_THRESHOLD = 0.3
"""Unhealthy fraction *of the monitored feature group* at which the
primary model is abandoned for the fallback model."""

WIDTH_INFLATION = 1.5
"""Extra relative width charged per unit unhealthy fraction."""

MAX_INFLATION = 3.0
"""The inflation charged when the primary model serves a batch whose
monitor block is too damaged to trust (no usable fallback)."""


class DegradationStatus(enum.Enum):
    """How much of the nominal serving path survived for a batch."""

    OK = "ok"
    DEGRADED = "degraded"
    FALLBACK = "fallback"


def inflate_intervals(
    intervals: PredictionIntervals, factor: float
) -> PredictionIntervals:
    """Widen every interval about its midpoint by ``factor`` (>= 1).

    Inflation is the honest response to serving on imputed features: the
    split-conformal margin was calibrated for clean inputs, so the band
    is stretched symmetrically rather than silently served over-tight.
    """
    if not np.isfinite(factor) or factor < 1.0:
        raise ValueError(f"inflation factor must be >= 1, got {factor}")
    mid = intervals.midpoint
    half = intervals.width / 2.0
    return PredictionIntervals(mid - factor * half, mid + factor * half)


def classify(
    unhealthy_fraction: float, monitor_unhealthy_fraction: float
) -> DegradationStatus:
    """Map damage fractions to a serving status."""
    if monitor_unhealthy_fraction >= FALLBACK_THRESHOLD:
        return DegradationStatus.FALLBACK
    if unhealthy_fraction > DEGRADED_THRESHOLD:
        return DegradationStatus.DEGRADED
    return DegradationStatus.OK


def inflation_factor(unhealthy_fraction: float) -> float:
    """Interval-width multiplier ``1 + WIDTH_INFLATION * fraction``."""
    if not 0.0 <= unhealthy_fraction <= 1.0:
        raise ValueError(
            f"unhealthy_fraction must be in [0, 1], got {unhealthy_fraction}"
        )
    return float(1.0 + WIDTH_INFLATION * unhealthy_fraction)


@dataclass(frozen=True)
class DegradedPrediction:
    """Intervals plus the full story of how they were produced.

    Attributes
    ----------
    intervals:
        The served (possibly inflated, possibly fallback) intervals.
    status:
        :class:`DegradationStatus` of the batch.
    health:
        The :class:`~repro.robust.guard.HealthReport` that drove the
        decision.
    inflation:
        Width multiplier applied (1.0 when nominal).
    used_fallback:
        True when the fallback model produced the band.
    notes:
        Human-readable audit trail of every degradation action taken.
    """

    intervals: PredictionIntervals
    status: DegradationStatus
    health: HealthReport
    inflation: float = 1.0
    used_fallback: bool = False
    notes: Tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.intervals)

    @property
    def lower(self) -> np.ndarray:
        """Served lower bounds (V)."""
        return self.intervals.lower

    @property
    def upper(self) -> np.ndarray:
        """Served upper bounds (V)."""
        return self.intervals.upper

    @property
    def nominal(self) -> bool:
        """True iff the batch was served on the clean path, uninflated."""
        return self.status is DegradationStatus.OK

    def coverage(self, y: np.ndarray) -> float:
        """Empirical coverage of the served intervals."""
        return self.intervals.coverage(y)

    @property
    def mean_width(self) -> float:
        """Average served interval length (V)."""
        return self.intervals.mean_width

    def describe(self) -> str:
        """One-line audit summary."""
        parts = [
            f"status={self.status.value}",
            f"inflation={self.inflation:.2f}x",
            f"fallback={self.used_fallback}",
            self.health.describe(),
        ]
        if self.notes:
            parts.append("; ".join(self.notes))
        return " | ".join(parts)
