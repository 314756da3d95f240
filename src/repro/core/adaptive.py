"""Online / adaptive conformal inference for in-field deployment.

The paper's conclusion names embedding the predictor "in the in-field
systems to secure long-term reliability" as future work.  In the field,
chips age and the data distribution drifts, breaking the exchangeability
assumption behind split CP/CQR.  Adaptive Conformal Inference
(Gibbs & Candès, 2021) restores *long-run* coverage under arbitrary
drift by feedback control on the miscoverage level:

.. math::

    \\alpha_{t+1} = \\alpha_t + \\gamma\\,(\\alpha - \\mathrm{err}_t),

where ``err_t`` is 1 when the latest observed label escaped its interval.
When coverage falls behind, ``α_t`` drops and intervals widen; when the
predictor is over-covering, intervals tighten.

:class:`AdaptiveConformalPredictor` wraps a fitted conformal regressor
(anything with a recomputable margin from stored calibration scores) in
the streaming protocol: ``predict_interval`` → observe ``y`` → ``update``.
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import Any, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.core.calibration import conformal_rank
from repro.core.intervals import PredictionIntervals, collapse_crossed
from repro.core.scores import cqr_score
from repro.models.base import BaseRegressor, check_fitted, check_X_y
from repro.models.quantile import QuantileBandRegressor

__all__ = ["AdaptiveConformalPredictor"]


class _SortedScoreWindow:
    """Calibration scores in arrival order plus a sorted mirror.

    The streaming loop needs two views of the same data: arrival order
    (so a bounded window evicts the *oldest* score) and ascending order
    (so the conformal quantile is a direct index instead of an ``O(n)``
    partition per prediction).  Insertion locates its slot by bisection;
    eviction removes the expired value from the mirror the same way, so
    no float is ever compared with ``==``.
    """

    __slots__ = ("_window", "_arrival", "_sorted")

    def __init__(self, scores: Iterable[float], window: Optional[int]) -> None:
        self._window = window
        # deque(maxlen=window) keeps exactly the trailing window of the
        # seed, matching the previous list[-window:] semantics.
        self._arrival = deque((float(s) for s in scores), maxlen=window)
        self._sorted = sorted(self._arrival)

    def append(self, score: float) -> None:
        score = float(score)
        if self._window is not None and len(self._arrival) == self._window:
            oldest = self._arrival[0]
            del self._sorted[bisect.bisect_left(self._sorted, oldest)]
        self._arrival.append(score)
        bisect.insort(self._sorted, score)

    def copy(self) -> "_SortedScoreWindow":
        twin = _SortedScoreWindow((), self._window)
        twin._arrival = self._arrival.copy()
        twin._sorted = self._sorted.copy()
        return twin

    def margin(self, alpha: float) -> float:
        """The conformal quantile of the window, read off the sorted list.

        The rank-``k`` element is the float
        :func:`~repro.core.calibration.conformal_quantile` returns on the
        materialised window; indexing the list costs O(1) where
        materialising the window would copy all of it.  When the window
        is too small for the rank, the largest score -- the most
        conservative finite margin -- stands in for ``+inf``.
        """
        rank = conformal_rank(len(self._sorted), alpha)
        return self._sorted[min(rank, len(self._sorted)) - 1]


class AdaptiveConformalPredictor:
    """Streaming CQR with the Gibbs-Candès α update.

    Parameters
    ----------
    estimator:
        Unfitted quantile-capable template (as in
        :class:`~repro.core.cqr.ConformalizedQuantileRegressor`).
    alpha:
        Long-run target miscoverage.
    gamma:
        Adaptation step size; 0 disables adaptation (plain split CQR
        evaluated online).
    window:
        Number of most recent scores kept for quantile computation;
        ``None`` keeps all (growing calibration set).

    Besides the score window, the streaming state is ``alpha_t`` and two
    label counts (``n_labels_`` streamed, ``n_misses_`` of them outside
    their interval), so a copy costs what the window costs, however
    long the stream has run.
    """

    def __init__(
        self,
        estimator: BaseRegressor,
        alpha: float = 0.1,
        gamma: float = 0.05,
        window: Optional[int] = None,
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {gamma}")
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.estimator = estimator
        self.alpha = alpha
        self.gamma = gamma
        self.window = window
        self.band_: Optional[QuantileBandRegressor] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "AdaptiveConformalPredictor":
        """Fit the quantile band and seed the score history from ``(X, y)``.

        Unlike split CQR there is no held-out calibration split: the
        streaming updates provide calibration, and the initial in-sample
        scores merely warm-start the quantile (the long-run guarantee
        comes from adaptation, not from the seed).
        """
        X, y = check_X_y(X, y)
        self.band_ = QuantileBandRegressor(self.estimator, alpha=self.alpha)
        self.band_.fit(X, y)
        lower, upper = self.band_.predict_interval(X)
        self._scores = _SortedScoreWindow(cqr_score(y, lower, upper), self.window)
        self._alpha_t = self.alpha
        self.n_labels_ = 0
        self.n_misses_ = 0
        return self

    @classmethod
    def from_fitted(
        cls,
        band,
        scores,
        alpha: float = 0.1,
        gamma: float = 0.05,
        window: Optional[int] = None,
    ) -> "AdaptiveConformalPredictor":
        """Warm-start the streaming predictor around an already-fitted band.

        This is the recalibration hook used by
        :class:`repro.robust.RobustVminFlow`: a deployed split-CQR model
        already owns a fitted quantile band and a set of calibration
        scores, and re-fitting from scratch on a test floor is wasteful.
        ``from_fitted`` adopts both directly, so the Gibbs-Candès updates
        begin from the deployed model's state.

        Parameters
        ----------
        band:
            A fitted band exposing ``predict_interval(X) -> (lower, upper)``
            (e.g. ``ConformalizedQuantileRegressor.band_``).
        scores:
            Seed CQR calibration scores (e.g.
            ``ConformalizedQuantileRegressor.calibration_scores_``).
        alpha, gamma, window:
            As in the constructor.
        """
        if not hasattr(band, "predict_interval"):
            raise TypeError(
                f"band of type {type(band).__name__} has no predict_interval"
            )
        scores = np.asarray(scores, dtype=np.float64).ravel()
        if scores.size == 0:
            raise ValueError("scores must be a non-empty 1-D array")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        predictor = cls(
            getattr(band, "template", None), alpha=alpha, gamma=gamma, window=window
        )
        predictor.band_ = band
        predictor._scores = _SortedScoreWindow(scores, window)
        predictor._alpha_t = alpha
        predictor.n_labels_ = 0
        predictor.n_misses_ = 0
        return predictor

    def __copy__(self) -> "AdaptiveConformalPredictor":
        """A twin sharing the fitted band but owning its score window, so
        updating it never moves this predictor."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        if self.band_ is not None:
            twin._scores = self._scores.copy()
        return twin

    def __setstate__(self, state: Dict[str, Any]) -> None:
        # A state pickled before the label counts existed carries the
        # per-label history lists instead; only their counts are kept.
        if "error_history_" in state:
            errors = state.pop("error_history_")
            state.pop("alpha_history_", None)
            state["n_labels_"] = len(errors)
            state["n_misses_"] = int(sum(errors))
        self.__dict__.update(state)

    @property
    def alpha_t(self) -> float:
        """Current adapted miscoverage level."""
        check_fitted(self, "band_")
        return self._alpha_t

    def serving_note(self) -> str:
        """What a served interval notes about its calibration."""
        return f"online recalibration active (alpha_t={self.alpha_t:.3f})"

    def _correction(self) -> float:
        """Conformal margin of the score window at the current ``α_t``.

        alpha_t may drift outside (0, 1) under heavy drift; the quantile
        lookup is clamped while the raw alpha_t keeps the dynamics.
        When the window is too small for the requested rank the most
        conservative finite correction (the max score, last element of
        the sorted window) stands in.
        """
        effective = float(np.clip(self._alpha_t, 1e-6, 1.0 - 1e-6))
        return self._scores.margin(effective)

    def predict_interval(
        self,
        X: np.ndarray,
        band: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> PredictionIntervals:
        """Interval at the *current* adapted level ``α_t``.

        ``band`` is ``band_.predict_interval(X)`` when the caller has
        already evaluated it; ``None`` evaluates it here.
        """
        check_fitted(self, "band_")
        correction = self._correction()
        lower, upper = band if band is not None else self.band_.predict_interval(X)
        return collapse_crossed(lower - correction, upper + correction)

    def update(
        self,
        X: np.ndarray,
        y: np.ndarray,
        band: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        """Observe true labels for ``X`` and adapt ``α_t``.

        Rows are processed strictly in order and each is judged against
        the interval at its *then-current* ``α_t`` -- the margin moves
        row by row, exactly as if the batch had arrived one chip at a
        time.  Judging a whole batch against the entry margin instead
        removes the within-batch feedback the Gibbs-Candès analysis
        rests on: on a homogeneous batch every row repeats the same
        err, the α updates compound linearly, and a large enough batch
        ramps ``α_t`` far past the (0, 1) band, collapsing (or
        exploding) the intervals the *next* batch is served with.  The
        sorted score window keeps the per-row margin an O(log n)
        bisection rather than an O(n) partition, which is what makes
        the row-at-a-time protocol affordable.  Each row's CQR score
        joins the calibration history as it is consumed.  ``band`` is
        ``band_.predict_interval(X)`` when the caller has already
        evaluated it (the serving flow bands each labelled batch once);
        ``None`` evaluates it here.
        """
        X, y = check_X_y(X, y)
        lower, upper = band if band is not None else self.band_.predict_interval(X)
        new_scores = cqr_score(y, lower, upper)
        for i, score in enumerate(new_scores):
            correction = self._correction()
            low = lower[i] - correction
            high = upper[i] + correction
            if low > high:
                low = high = (low + high) / 2.0
            was_covered = bool(low <= y[i] <= high)
            error = 0.0 if was_covered else 1.0
            self._alpha_t = self._alpha_t + self.gamma * (self.alpha - error)
            self._scores.append(score)
            self.n_labels_ += 1
            if not was_covered:
                self.n_misses_ += 1

    def long_run_coverage(self) -> float:
        """Fraction of streamed labels covered so far."""
        if not self.n_labels_:
            raise RuntimeError("no updates observed yet")
        return 1.0 - self.n_misses_ / self.n_labels_
