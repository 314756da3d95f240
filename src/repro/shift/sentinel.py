"""Exchangeability sentinels: make distribution shift an observable event.

Every conformal guarantee in this repository -- split CP, CQR, Mondrian,
the serving soak's coverage gate -- assumes the stream is exchangeable
with the calibration set.  Fleet reality (a new fab, a drifting process
corner, a sensor re-baseline) breaks that assumption silently: coverage
rots with no exception raised anywhere.  This module turns the violation
into an event with two complementary detectors:

* :class:`ConformalTestMartingale` -- an online *conformal test
  martingale* (Vovk et al.) over the stream of conformity scores.  Each
  arriving score gets a sequential conformal p-value against the pool of
  all scores seen so far (calibration scores included, randomised
  tie-break); a mixture power martingale bets against uniformity of
  those p-values.  Under exchangeability the martingale is a
  non-negative martingale with initial value 1, so by Ville's inequality
  ``P(sup M_t >= 1/delta) <= delta``: an alarm threshold of 100 bounds
  the false-alarm probability of the *entire infinite stream* at 1 %.
  Growth past the threshold is therefore hard evidence the stream is not
  exchangeable with calibration.

* :class:`CovariateShiftDetector` -- per-feature Population Stability
  Index (PSI) and Kolmogorov-Smirnov statistics of a sliding current
  window against a fixed reference window.  Label-free: it fires on
  covariate shift before a single ground-truth Vmin arrives, which
  matters in the field where labels lag predictions by a read point.

Both sentinels are deterministic under a fixed seed and hold state
explicitly: ``arm`` installs the reference, ``observe`` consumes the
stream and returns an alarm at most once per armed period.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np

from repro.models.base import check_fitted, check_random_state

__all__ = [
    "BETTING_EPSILONS",
    "ConformalTestMartingale",
    "CovariateShiftAlarm",
    "CovariateShiftDetector",
    "EXCHANGEABILITY_THRESHOLD",
    "ExchangeabilityAlarm",
    "PSI_BINS",
    "PSI_EPSILON",
    "PSI_WINDOW",
]

EXCHANGEABILITY_THRESHOLD = 100.0
"""The martingale value that rejects exchangeability.  By Ville's
inequality an exchangeable stream ever reaches it with probability at
most ``1 / 100``: a 1 % stream-wise false-alarm budget."""

BETTING_EPSILONS = tuple(round(0.05 + 0.10 * k, 2) for k in range(10))
"""Betting grid of the mixture power martingale
``M_t = mean_eps prod_i eps * p_i**(eps - 1)``: ten points 0.05 ... 0.95,
each betting on a different shift severity, so the mixture needs no
tuning."""

PSI_BINS = 10
"""Quantile bins of the reference distribution the PSI is computed on."""

PSI_WINDOW = 200
"""Length (rows) of the sliding current window; older rows age out."""

PSI_EPSILON = 1e-4
"""Proportion floor that keeps empty bins out of the PSI logarithms."""


@dataclass(frozen=True)
class ExchangeabilityAlarm:
    """The martingale crossed its Ville threshold: the stream is shifted.

    Attributes
    ----------
    n_observed:
        Stream scores consumed (post-arm) when the threshold was crossed
        -- the detection latency in observations.
    log10_martingale:
        ``log10`` of the mixture martingale at crossing time.
    threshold:
        The configured alarm threshold (martingale scale, not log).
    """

    n_observed: int
    log10_martingale: float
    threshold: float

    def describe(self) -> str:
        """Human-readable one-line audit entry."""
        return (
            f"exchangeability rejected after {self.n_observed} observations "
            f"(martingale 1e{self.log10_martingale:.1f} >= {self.threshold:g})"
        )


class ConformalTestMartingale:
    """Online conformal test martingale over conformity scores.

    Alarms when the mixture martingale over :data:`BETTING_EPSILONS`
    reaches :data:`EXCHANGEABILITY_THRESHOLD`.

    Parameters
    ----------
    random_state:
        Seed for the randomised p-value tie-break (theta ~ U[0, 1)).
        The tie-break is what makes the p-values exactly uniform under
        exchangeability; a fixed seed makes the whole trajectory
        deterministic.
    """

    def __init__(self, random_state: Optional[int] = None) -> None:
        self.random_state = random_state
        self.alarms_: Optional[List[ExchangeabilityAlarm]] = None

    def arm(self, reference_scores: np.ndarray) -> "ConformalTestMartingale":
        """Install the calibration-score reference pool and reset state.

        ``reference_scores`` seed the p-value pool, so the very first
        streamed score is already ranked against the full calibration
        set.  Re-arming resets the martingale to 1, clears alarms, and
        reseeds the tie-break RNG -- the trajectory after an ``arm`` is
        a pure function of (reference, stream, seed).
        """
        scores = np.asarray(reference_scores, dtype=np.float64).ravel()
        if scores.size == 0:
            raise ValueError("reference_scores must be non-empty")
        if not np.all(np.isfinite(scores)):
            raise ValueError("reference_scores must be finite")
        self._pool: List[float] = sorted(float(s) for s in scores)
        self._log_wealth = np.zeros(len(BETTING_EPSILONS), dtype=np.float64)
        self._eps = np.asarray(BETTING_EPSILONS, dtype=np.float64)
        self._rng = check_random_state(self.random_state)
        self.n_observed_ = 0
        self.log10_history_: List[float] = []
        self.alarms_ = []
        self._in_alarm = False
        return self

    @property
    def in_alarm_(self) -> bool:
        """Whether the threshold has been crossed since the last arm."""
        check_fitted(self, "alarms_")
        return self._in_alarm

    @property
    def log10_martingale_(self) -> float:
        """Current ``log10`` of the mixture martingale (0.0 at arm time)."""
        check_fitted(self, "alarms_")
        return self._log10_mixture()

    def _log10_mixture(self) -> float:
        peak = float(np.max(self._log_wealth))
        mixture = peak + math.log(
            float(np.sum(np.exp(self._log_wealth - peak))) / self._log_wealth.size
        )
        return mixture / math.log(10.0)

    def observe(self, scores: np.ndarray) -> Optional[ExchangeabilityAlarm]:
        """Consume a batch of conformity scores; return the first alarm.

        Each score gets its sequential conformal p-value against the
        pool of every score seen so far (itself included), updates the
        per-epsilon wealth, and joins the pool.  The first threshold
        crossing per armed period appends and returns an
        :class:`ExchangeabilityAlarm`; later crossings are latched
        (``in_alarm_`` stays true until the next :meth:`arm`).
        """
        check_fitted(self, "alarms_")
        batch = np.asarray(scores, dtype=np.float64).ravel()
        if not np.all(np.isfinite(batch)):
            raise ValueError("scores must be finite")
        fired: Optional[ExchangeabilityAlarm] = None
        log_threshold = math.log10(EXCHANGEABILITY_THRESHOLD)
        for raw in batch:
            score = float(raw)
            pool_size = len(self._pool)
            hi = bisect_right(self._pool, score)
            greater = pool_size - hi
            ties = (hi - bisect_left(self._pool, score)) + 1
            theta = float(self._rng.uniform())
            p_value = (greater + theta * ties) / (pool_size + 1)
            # theta can come out exactly 0.0 with nothing above the
            # score; floor keeps the log-wealth update finite.
            p_value = min(max(p_value, 1e-12), 1.0)
            self._log_wealth += np.log(self._eps) + (self._eps - 1.0) * math.log(
                p_value
            )
            insort(self._pool, score)
            self.n_observed_ += 1
            log10_mixture = self._log10_mixture()
            self.log10_history_.append(log10_mixture)
            if not self._in_alarm and log10_mixture >= log_threshold:
                self._in_alarm = True
                fired = ExchangeabilityAlarm(
                    n_observed=self.n_observed_,
                    log10_martingale=log10_mixture,
                    threshold=EXCHANGEABILITY_THRESHOLD,
                )
                self.alarms_.append(fired)
        return fired


@dataclass(frozen=True)
class CovariateShiftAlarm:
    """Enough monitor features drifted past the PSI threshold.

    Attributes
    ----------
    n_observed:
        Rows consumed (post-arm) when the alarm fired.
    fraction_flagged:
        Fraction of watched features whose PSI crossed the threshold.
    top_features:
        The worst offenders as ``(feature_label, psi)`` pairs, largest
        PSI first (at most five).
    """

    n_observed: int
    fraction_flagged: float
    top_features: Tuple[Tuple[str, float], ...]

    def describe(self) -> str:
        """Human-readable one-line audit entry."""
        worst = ", ".join(f"{name}={psi:.2f}" for name, psi in self.top_features)
        return (
            f"covariate shift after {self.n_observed} rows: "
            f"{self.fraction_flagged:.0%} of features past PSI threshold "
            f"({worst})"
        )


class CovariateShiftDetector:
    """Per-feature PSI / KS drift detection against a fixed reference.

    PSI is computed on :data:`PSI_BINS` reference-quantile bins with
    proportions floored at :data:`PSI_EPSILON`, over a sliding window of
    the last :data:`PSI_WINDOW` rows.

    Parameters
    ----------
    psi_threshold:
        A feature counts as drifted when its PSI reaches this value
        (0.25 is the conventional "significant shift" cut).
    alarm_fraction:
        Alarm when at least this fraction of watched features is
        drifted simultaneously -- single-feature noise does not page.
    min_observations:
        Rows required in the current window before PSI is evaluated
        (at most :data:`PSI_WINDOW`).
    feature_names:
        Optional labels for the watched columns (alarm readability);
        column indices are used when omitted.
    """

    def __init__(
        self,
        psi_threshold: float = 0.25,
        alarm_fraction: float = 0.25,
        min_observations: int = 50,
        feature_names: Optional[Sequence[str]] = None,
    ) -> None:
        if not 1 <= min_observations <= PSI_WINDOW:
            raise ValueError(
                f"min_observations must be in [1, {PSI_WINDOW}] (the window "
                f"length), got {min_observations}"
            )
        if not psi_threshold > 0:
            raise ValueError(f"psi_threshold must be > 0, got {psi_threshold}")
        if not 0.0 < alarm_fraction <= 1.0:
            raise ValueError(
                f"alarm_fraction must be in (0, 1], got {alarm_fraction}"
            )
        self.psi_threshold = psi_threshold
        self.alarm_fraction = alarm_fraction
        self.min_observations = min_observations
        self.feature_names = (
            None if feature_names is None else tuple(str(n) for n in feature_names)
        )
        self.alarms_: Optional[List[CovariateShiftAlarm]] = None

    def arm(self, reference: np.ndarray) -> "CovariateShiftDetector":
        """Freeze the reference window and reset the current window."""
        ref = np.asarray(reference, dtype=np.float64)
        if ref.ndim != 2:
            raise ValueError(f"reference must be 2-D, got shape {ref.shape}")
        if ref.shape[0] < PSI_BINS:
            raise ValueError(
                f"reference needs at least one row per PSI bin ({PSI_BINS}), "
                f"got {ref.shape[0]}"
            )
        if not np.all(np.isfinite(ref)):
            raise ValueError("reference must be finite")
        if self.feature_names is not None and len(self.feature_names) != ref.shape[1]:
            raise ValueError(
                f"feature_names has {len(self.feature_names)} entries for "
                f"{ref.shape[1]} reference columns"
            )
        d = ref.shape[1]
        quantiles = np.linspace(0.0, 1.0, PSI_BINS + 1)[1:-1]
        self._edges = np.quantile(ref, quantiles, axis=0).T  # (d, PSI_BINS - 1)
        self._ref_proportions = np.empty((d, PSI_BINS), dtype=np.float64)
        for feature in range(d):
            counts = np.bincount(
                np.searchsorted(self._edges[feature], ref[:, feature], side="right"),
                minlength=PSI_BINS,
            )
            self._ref_proportions[feature] = np.maximum(
                counts / ref.shape[0], PSI_EPSILON
            )
        self._ref_sorted = np.sort(ref, axis=0)
        self._rows: Deque[np.ndarray] = deque(maxlen=PSI_WINDOW)
        self.n_observed_ = 0
        self.alarms_ = []
        self._in_alarm = False
        return self

    @property
    def in_alarm_(self) -> bool:
        """Whether an alarm has fired since the last arm."""
        check_fitted(self, "alarms_")
        return self._in_alarm

    def _current_window(self) -> np.ndarray:
        return np.asarray(list(self._rows), dtype=np.float64)

    def _label(self, feature: int) -> str:
        if self.feature_names is not None:
            return self.feature_names[feature]
        return f"feature[{feature}]"

    def psi(self) -> np.ndarray:
        """Per-feature PSI of the current window against the reference.

        Raises ``RuntimeError`` until ``min_observations`` rows have
        been observed (PSI over a near-empty window is noise).
        """
        check_fitted(self, "alarms_")
        current = self._current_window()
        if current.shape[0] < self.min_observations:
            raise RuntimeError(
                f"need {self.min_observations} window rows for PSI, have "
                f"{current.shape[0]}"
            )
        d = self._edges.shape[0]
        psi = np.empty(d, dtype=np.float64)
        for feature in range(d):
            counts = np.bincount(
                np.searchsorted(
                    self._edges[feature], current[:, feature], side="right"
                ),
                minlength=PSI_BINS,
            )
            proportions = np.maximum(counts / current.shape[0], PSI_EPSILON)
            reference = self._ref_proportions[feature]
            psi[feature] = float(
                np.sum((proportions - reference) * np.log(proportions / reference))
            )
        return psi

    def ks(self) -> np.ndarray:
        """Per-feature two-sample KS statistic (window vs reference)."""
        check_fitted(self, "alarms_")
        current = self._current_window()
        if current.shape[0] < self.min_observations:
            raise RuntimeError(
                f"need {self.min_observations} window rows for KS, have "
                f"{current.shape[0]}"
            )
        d = self._ref_sorted.shape[1]
        n_ref = self._ref_sorted.shape[0]
        n_cur = current.shape[0]
        stats = np.empty(d, dtype=np.float64)
        for feature in range(d):
            ref_col = self._ref_sorted[:, feature]
            cur_col = np.sort(current[:, feature])
            grid = np.concatenate([ref_col, cur_col])
            cdf_ref = np.searchsorted(ref_col, grid, side="right") / n_ref
            cdf_cur = np.searchsorted(cur_col, grid, side="right") / n_cur
            stats[feature] = float(np.max(np.abs(cdf_ref - cdf_cur)))
        return stats

    def observe(self, X: np.ndarray) -> Optional[CovariateShiftAlarm]:
        """Slide a batch of rows into the window; return the first alarm.

        Evaluates PSI once the window holds ``min_observations`` rows;
        fires (once per armed period) when ``alarm_fraction`` of the
        watched features sit past ``psi_threshold``.
        """
        check_fitted(self, "alarms_")
        batch = np.asarray(X, dtype=np.float64)
        if batch.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {batch.shape}")
        if batch.shape[1] != self._edges.shape[0]:
            raise ValueError(
                f"X has {batch.shape[1]} features, detector was armed on "
                f"{self._edges.shape[0]}"
            )
        if not np.all(np.isfinite(batch)):
            raise ValueError("X must be finite")
        fired: Optional[CovariateShiftAlarm] = None
        for row in batch:
            self._rows.append(row.copy())
            self.n_observed_ += 1
        if len(self._rows) < self.min_observations or self._in_alarm:
            return None
        psi = self.psi()
        flagged = psi >= self.psi_threshold
        fraction = float(np.mean(flagged))
        if fraction >= self.alarm_fraction:
            order = np.argsort(psi)[::-1][:5]
            self._in_alarm = True
            fired = CovariateShiftAlarm(
                n_observed=self.n_observed_,
                fraction_flagged=fraction,
                top_features=tuple(
                    (self._label(int(f)), float(psi[f])) for f in order
                ),
            )
            self.alarms_.append(fired)
        return fired
