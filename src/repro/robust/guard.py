"""Input-sanitization front-end: per-feature health assessment.

The strict ``check_X`` contract of :mod:`repro.models.base` is right for
*training* -- garbage labels silently poison a fit -- but wrong for
*serving*: one dead ROD sensor must not crash the interval prediction
for a whole lot.  :class:`FeatureHealthGuard` is the serving-side
replacement.  It captures robust per-feature statistics (median,
quantile range, spread) from the clean training matrix, then classifies
every entry of an incoming batch instead of raising:

* **missing** -- NaN/Inf entries (dead sensors, dropped telemetry),
* **stuck**   -- a column frozen at one value across the batch although
  it varied at train time (stuck-at ADC codes),
* **out of range** -- finite values outside the inflated training
  quantile range (drifted or mis-measured sensors).

The resulting :class:`HealthReport` drives bounded imputation
(:mod:`repro.robust.imputation`) and the degradation policy
(:mod:`repro.robust.fallback`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.models.base import check_fitted, check_X

__all__ = [
    "FeatureHealthGuard",
    "HealthReport",
    "RANGE_INFLATION",
    "RANGE_QUANTILES",
    "UNHEALTHY_FRACTION",
]

RANGE_QUANTILES = (0.01, 0.99)
"""Training quantiles anchoring each column's plausible range."""

RANGE_INFLATION = 1.0
"""Quantile spans the plausible range extends on each side; finite
values outside it are flagged out of range."""

UNHEALTHY_FRACTION = 0.5
"""Share of a column's entries that may be missing or out of range
before the column counts as unhealthy for the batch."""


@dataclass(frozen=True)
class HealthReport:
    """Entry- and feature-level health classification of one batch.

    Attributes
    ----------
    missing:
        (n_samples, n_features) bool -- non-finite entries.
    out_of_range:
        (n_samples, n_features) bool -- finite entries outside the
        inflated training range.
    stuck:
        (n_features,) bool -- columns frozen across the batch that were
        not constant at train time (only detectable with >= 2 samples).
    unhealthy:
        (n_features,) bool -- columns failing any check badly enough to
        be considered unusable for this batch (see
        :data:`UNHEALTHY_FRACTION`).
    finite_min, finite_max:
        (n_features,) float -- each column's extremes over its finite
        entries: NaN for an all-NaN column, and the identities ``+inf``
        (min) and ``-inf`` (max) for a column with no finite entry but
        an infinity, or for a zero-row batch.
    """

    missing: np.ndarray
    out_of_range: np.ndarray
    stuck: np.ndarray
    unhealthy: np.ndarray
    finite_min: np.ndarray
    finite_max: np.ndarray

    @property
    def n_samples(self) -> int:
        """Batch size assessed."""
        return int(self.missing.shape[0])

    @property
    def n_features(self) -> int:
        """Number of feature columns assessed."""
        return int(self.missing.shape[1])

    @property
    def healthy(self) -> bool:
        """True iff no entry raised any flag at all."""
        return not (
            bool(self.missing.any())
            or bool(self.out_of_range.any())
            or bool(self.stuck.any())
        )

    @property
    def unhealthy_fraction(self) -> float:
        """Fraction of feature columns classified unhealthy."""
        return float(np.mean(self.unhealthy))

    @property
    def damaged_entry_fraction(self) -> float:
        """Fraction of individual entries that were missing or out of
        range -- catches row-level damage (dropped telemetry records)
        that no column-level statistic would flag; 0.0 for an empty
        batch.  The two masks are disjoint, so their summed counts are
        the damaged count exactly, and this equals the mean of the
        damage mask bit for bit."""
        if self.missing.size == 0:
            return 0.0
        damaged = np.count_nonzero(self.missing) + np.count_nonzero(self.out_of_range)
        return damaged / self.missing.size

    def unhealthy_fraction_of(self, columns: Sequence[int]) -> float:
        """Unhealthy fraction restricted to a column subset (e.g. the
        on-chip monitor block); 0.0 for an empty subset."""
        cols = np.asarray(columns, dtype=np.int64)
        if cols.size == 0:
            return 0.0
        if cols.min() < 0 or cols.max() >= self.n_features:
            raise ValueError(
                f"column indices must be in [0, {self.n_features}), got {cols}"
            )
        return float(np.mean(self.unhealthy[cols]))

    def describe(self) -> str:
        """One-line summary for logs and degradation notes."""
        return (
            f"{self.n_samples} samples x {self.n_features} features: "
            f"{int(self.unhealthy.sum())} unhealthy columns "
            f"({self.unhealthy_fraction:.1%}), "
            f"{int(self.stuck.sum())} stuck, "
            f"{int(self.missing.sum())} missing entries, "
            f"{int(self.out_of_range.sum())} out-of-range entries"
        )


class FeatureHealthGuard:
    """Train-time statistic capture + batch-time health masks.

    The plausible range of a column is its
    :data:`RANGE_QUANTILES` training span widened by
    :data:`RANGE_INFLATION` spans on each side; a column is *unhealthy*
    for a batch when it is stuck or more than :data:`UNHEALTHY_FRACTION`
    of its entries are missing or out of range.
    """

    def __init__(self) -> None:
        self.median_ = None

    def fit(self, X: np.ndarray) -> "FeatureHealthGuard":
        """Capture per-feature statistics from a clean training matrix."""
        X = check_X(X)
        lo_q, hi_q = RANGE_QUANTILES
        q_lo = np.quantile(X, lo_q, axis=0)
        q_hi = np.quantile(X, hi_q, axis=0)
        span = q_hi - q_lo
        # Degenerate (constant) columns get a tiny absolute tolerance so
        # bit-identical values stay in range but real deviations flag.
        floor = 1e-9 * np.maximum(1.0, np.abs(q_hi))
        span = np.maximum(span, floor)
        self.median_ = np.median(X, axis=0)
        self.lower_bound_ = q_lo - RANGE_INFLATION * span
        self.upper_bound_ = q_hi + RANGE_INFLATION * span
        # max == min is exact for truly constant columns, unlike std(),
        # whose accumulated rounding can leave a nonzero residual.
        self.train_constant_ = X.max(axis=0) == X.min(axis=0)  # reprolint: disable=REP102
        self.n_features_in_ = int(X.shape[1])
        return self

    def assess(self, X: np.ndarray) -> HealthReport:
        """Classify every entry of a (possibly corrupted) batch.

        Never raises on NaN/Inf/stuck/drifted *values*; only structural
        errors (wrong dimensionality or column count) raise, because
        those are caller bugs no imputation can paper over.  A zero-row
        batch gets an all-healthy report.

        Each column's max and min are read first.  A column whose max
        and min are both finite holds no NaN and no infinity, so the
        missing mask and its counts are built only on the columns with
        a non-finite extreme.  Everything else is settled per column
        from the finite extremes: a column whose finite min and max lie
        inside the bounds holds no out-of-range entry, so only the
        columns that poke outside are compared entry by entry.  The
        result equals the entry-wise classification array for array.
        """
        check_fitted(self, "median_")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D (n_samples, n_features), got shape {X.shape}")
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, guard was fitted on "
                f"{self.n_features_in_}"
            )
        n_samples, n_features = X.shape
        columns = np.zeros(n_features, dtype=bool)
        missing = np.zeros(X.shape, dtype=bool)
        out_of_range = np.zeros(X.shape, dtype=bool)
        if n_samples == 0:
            return HealthReport(
                missing=missing,
                out_of_range=out_of_range,
                stuck=columns,
                unhealthy=columns,
                finite_min=np.full(n_features, np.inf),
                finite_max=np.full(n_features, -np.inf),
            )
        # max/min propagate NaN and keep infinities, so a column with two
        # finite extremes is finite throughout.
        finite_max = X.max(axis=0)
        finite_min = X.min(axis=0)
        nonfinite = np.flatnonzero(~(np.isfinite(finite_max) & np.isfinite(finite_min)))
        broken = np.zeros(n_features, dtype=np.int64)
        if nonfinite.size:
            # A dropped row damages every column: then the batch itself
            # is the block, with no gather.
            if nonfinite.size == n_features:
                nonfinite = slice(None)
            block = X[:, nonfinite]
            lost = ~np.isfinite(block)
            missing[:, nonfinite] = lost
            finite_max[nonfinite], finite_min[nonfinite] = _finite_extremes(block, ~lost)
            broken[nonfinite] = _column_counts(lost)
        # NaN extremes (all-NaN columns) compare False: never suspect.
        suspect = np.flatnonzero(
            (finite_min < self.lower_bound_) | (finite_max > self.upper_bound_)
        )
        if suspect.size:
            block = X[:, suspect]
            flagged = ~missing[:, suspect] & (
                (block < self.lower_bound_[suspect])
                | (block > self.upper_bound_[suspect])
            )
            out_of_range[:, suspect] = flagged
            broken[suspect] += _column_counts(flagged)
        # Frozen iff every *finite* entry of the column is identical; a
        # column with no finite entry has unequal (or NaN) extremes.
        stuck = columns
        if n_samples >= 2:
            batch_frozen = finite_max == finite_min  # reprolint: disable=REP102
            stuck = batch_frozen & ~self.train_constant_
        # Missing and out-of-range entries are disjoint, so the summed
        # counts over n_samples equal the mean of their union exactly.
        unhealthy = stuck | (broken / n_samples > UNHEALTHY_FRACTION)
        return HealthReport(
            missing=missing,
            out_of_range=out_of_range,
            stuck=stuck,
            unhealthy=unhealthy,
            finite_min=finite_min,
            finite_max=finite_max,
        )


def _finite_extremes(X: np.ndarray, finite: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-column max and min over the finite entries of a non-empty batch.

    ``fmax``/``fmin`` skip NaN (an all-NaN column comes out NaN) but not
    +/-inf, so the few columns holding an infinity are re-reduced under
    the finite mask, where a column with no finite entry gets the
    ``(-inf, +inf)`` identities.  The guard calls it on the columns with
    a non-finite extreme only.
    """
    finite_max = np.fmax.reduce(X, axis=0)
    finite_min = np.fmin.reduce(X, axis=0)
    infinite = np.flatnonzero(np.isinf(finite_max) | np.isinf(finite_min))
    if infinite.size:
        block, keep = X[:, infinite], finite[:, infinite]
        finite_max[infinite] = block.max(axis=0, where=keep, initial=-np.inf)
        finite_min[infinite] = block.min(axis=0, where=keep, initial=np.inf)
    return finite_max, finite_min


def _column_counts(mask: np.ndarray) -> np.ndarray:
    """Per-column count of a non-empty (n, d) boolean mask.

    Summing the mask's bytes into the smallest unsigned type that holds
    ``n`` vectorises far better than numpy's default int64 bool sum;
    the counts are the same integers.
    """
    return mask.view(np.uint8).sum(axis=0, dtype=np.min_scalar_type(mask.shape[0]))
