"""K-fold cross-validation for point and interval predictors.

The paper reduces randomisation influence with 4-fold cross-validation
and reports the average of each metric over the 4 testing folds, using
the same random seed for every method (Section IV-B).  The builders
passed in receive raw training data and may do anything inside (feature
selection, scaling, conformal splitting) -- the harness only guarantees
that test data never leaks into them.  Folds run one after another;
the experiment grids parallelise over whole cells instead
(:mod:`repro.eval.experiments`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from repro.core.intervals import PredictionIntervals
from repro.eval.metrics import r2_score, rmse
from repro.models.base import check_random_state

__all__ = [
    "IntervalCVResult",
    "KFold",
    "PointCVResult",
    "cross_validate_intervals",
    "cross_validate_point",
    "fold_row_subsets",
]


class KFold:
    """Deterministic shuffled K-fold splitter.

    Parameters
    ----------
    n_splits:
        Number of folds (paper: 4).
    shuffle:
        Shuffle indices before splitting; with ``shuffle=False`` folds are
        contiguous blocks.
    random_state:
        Seed for the shuffle -- sharing it across methods is what makes
        the paper's comparison fair.
    """

    def __init__(
        self,
        n_splits: int = 4,
        shuffle: bool = True,
        random_state: Optional[int] = None,
    ) -> None:
        if n_splits < 2:
            raise ValueError(f"n_splits must be >= 2, got {n_splits}")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, n_samples: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield (train_indices, test_indices) pairs."""
        if n_samples < self.n_splits:
            raise ValueError(
                f"cannot split {n_samples} samples into {self.n_splits} folds"
            )
        indices = np.arange(n_samples)
        if self.shuffle:
            rng = check_random_state(self.random_state)
            indices = rng.permutation(n_samples)
        fold_sizes = np.full(self.n_splits, n_samples // self.n_splits)
        fold_sizes[: n_samples % self.n_splits] += 1
        start = 0
        for size in fold_sizes:
            test = indices[start : start + size]
            train = np.concatenate([indices[:start], indices[start + size :]])
            yield train, test
            start += size


def fold_row_subsets(
    kfold: KFold, n_samples: int
) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
    """Materialise every (train, test) index pair of a splitter.

    The splits a :class:`KFold` yields are fully determined by
    ``(n_samples, n_splits, shuffle, random_state)``, so any consumer can
    enumerate them ahead of time -- the grid engine uses this to pre-bin
    each fold's training matrix once (and ship the codes to worker
    processes) before any fold model is fitted.
    """
    return tuple(
        (train.copy(), test.copy()) for train, test in kfold.split(n_samples)
    )


@dataclass(frozen=True)
class PointCVResult:
    """Per-fold and averaged point-prediction metrics."""

    r2_per_fold: Tuple[float, ...]
    rmse_per_fold: Tuple[float, ...]

    @property
    def r2(self) -> float:
        """Mean :math:`R^2` across folds (what Fig. 2 plots)."""
        return float(np.mean(self.r2_per_fold))

    @property
    def rmse(self) -> float:
        """Mean RMSE across folds."""
        return float(np.mean(self.rmse_per_fold))

    @property
    def n_folds(self) -> int:
        return len(self.r2_per_fold)


@dataclass(frozen=True)
class IntervalCVResult:
    """Per-fold and averaged region-prediction metrics."""

    coverage_per_fold: Tuple[float, ...]
    width_per_fold: Tuple[float, ...]

    @property
    def coverage(self) -> float:
        """Mean empirical coverage across folds (Table III "Coverage")."""
        return float(np.mean(self.coverage_per_fold))

    @property
    def width(self) -> float:
        """Mean interval length across folds (Table III "Length")."""
        return float(np.mean(self.width_per_fold))

    @property
    def n_folds(self) -> int:
        return len(self.coverage_per_fold)


PointBuilder = Callable[[np.ndarray, np.ndarray], object]
IntervalBuilder = Callable[[np.ndarray, np.ndarray], object]


def cross_validate_point(
    builder: PointBuilder,
    X: np.ndarray,
    y: np.ndarray,
    kfold: KFold,
) -> PointCVResult:
    """Evaluate a point-prediction builder with K-fold CV.

    ``builder(X_train, y_train)`` must return a fitted object exposing
    ``predict(X_test)``.  Returns per-fold :math:`R^2` and RMSE.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)

    def run_fold(split: Tuple[np.ndarray, np.ndarray]) -> Tuple[float, float]:
        train_idx, test_idx = split
        model = builder(X[train_idx], y[train_idx])
        prediction = model.predict(X[test_idx])
        return r2_score(y[test_idx], prediction), rmse(y[test_idx], prediction)

    per_fold = [run_fold(split) for split in kfold.split(X.shape[0])]
    return PointCVResult(
        r2_per_fold=tuple(r2 for r2, _ in per_fold),
        rmse_per_fold=tuple(err for _, err in per_fold),
    )


def cross_validate_intervals(
    builder: IntervalBuilder,
    X: np.ndarray,
    y: np.ndarray,
    kfold: KFold,
) -> IntervalCVResult:
    """Evaluate an interval-prediction builder with K-fold CV.

    ``builder(X_train, y_train)`` must return a fitted object exposing
    ``predict_interval(X_test)`` returning a
    :class:`~repro.core.intervals.PredictionIntervals` or (lower, upper).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)

    def run_fold(split: Tuple[np.ndarray, np.ndarray]) -> Tuple[float, float]:
        train_idx, test_idx = split
        model = builder(X[train_idx], y[train_idx])
        intervals = model.predict_interval(X[test_idx])
        if not isinstance(intervals, PredictionIntervals):
            intervals = PredictionIntervals(*intervals)
        return intervals.coverage(y[test_idx]), intervals.mean_width

    per_fold = [run_fold(split) for split in kfold.split(X.shape[0])]
    return IntervalCVResult(
        coverage_per_fold=tuple(cov for cov, _ in per_fold),
        width_per_fold=tuple(width for _, width in per_fold),
    )
