"""The hardened serving wrapper around :class:`VminPredictionFlow`.

:class:`RobustVminFlow` is the piece a real test-floor / in-field
integration deploys: the paper's calibrated CQR pipeline, front-ended
by input sanitization and backed by graceful degradation and coverage
monitoring, so that

* a NaN from one dead ROD sensor degrades the answer instead of raising,
* a dead *monitor block* falls back to a parametric-only model,
* detected coverage drift triggers online recalibration through
  :class:`~repro.core.adaptive.AdaptiveConformalPredictor` (Gibbs &
  Candès) rather than silently serving broken guarantees.

``predict_interval`` therefore returns a structured
:class:`~repro.robust.fallback.DegradedPrediction` -- never an
exception for value-level input damage -- and ``observe`` closes the
loop when ground-truth Vmin measurements trickle back from the ATE.
A labelled batch is sanitized and run through the primary band once:
the intervals the monitor judges, the adaptive update and the batch's
conformity scores all come from that one pass.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.adaptive import AdaptiveConformalPredictor
from repro.core.intervals import PredictionIntervals
from repro.core.scores import cqr_score
from repro.flow.pipeline import VminPredictionFlow
from repro.models.base import BaseRegressor, check_fitted, check_X_y, clone
from repro.robust.fallback import (
    FALLBACK_THRESHOLD,
    MAX_INFLATION,
    DegradationStatus,
    DegradedPrediction,
    classify,
    inflate_intervals,
    inflation_factor,
)
from repro.robust.guard import FeatureHealthGuard, HealthReport
from repro.robust.imputation import TrainStatImputer
from repro.robust.monitoring import CoverageAlarm, CoverageMonitor
from repro.shift.weighted import weighted_band_calibrator
from repro.shift.weights import LogisticDensityRatio

__all__ = ["MONITOR_TOLERANCE", "ObservedBatch", "RobustVminFlow"]

MONITOR_TOLERANCE = 0.05
"""Rolling coverage may sit this far below ``1 - alpha`` before the
coverage monitor alarms."""


def _validate_columns(
    columns: Sequence[int], n_features: int, name: str
) -> np.ndarray:
    cols = np.unique(np.asarray(list(columns), dtype=np.int64))
    if cols.size == 0:
        raise ValueError(f"{name} must be non-empty when given")
    if cols.min() < 0 or cols.max() >= n_features:
        raise ValueError(
            f"{name} indices must be in [0, {n_features}), got "
            f"[{cols.min()}, {cols.max()}]"
        )
    return cols


@dataclass(frozen=True)
class ObservedBatch:
    """What one labelled batch did to a :class:`RobustVminFlow`.

    Attributes
    ----------
    alarm:
        The coverage alarm the batch fired, if any.
    scores:
        The batch's CQR conformity scores against the primary band, so
        the shift sentinels can consume them without scoring the batch
        again.  Never against the adaptive or weighted margins: the
        exchangeability sentinel compares them with calibration scores
        of that same band, and mixing bands would alarm on the flow's
        own recalibration instead of on the data.
    """

    alarm: Optional[CoverageAlarm]
    scores: np.ndarray


class RobustVminFlow:
    """Fault-tolerant Vmin interval serving with coverage monitoring.

    Parameters
    ----------
    base_model:
        Unfitted quantile-capable template for the primary (and, when
        enabled, fallback) pipeline; ``None`` uses the paper's default
        CQR CatBoost recipe (see :class:`VminPredictionFlow`).
    alpha:
        Target miscoverage of the served intervals.
    random_state:
        Forwarded to the wrapped :class:`VminPredictionFlow`, which
        otherwise keeps its defaults (every feature, unscaled, a quarter
        of the chips held out for calibration).
    monitor_window, monitor_min_observations:
        Rolling-coverage monitor configuration
        (:class:`~repro.robust.monitoring.CoverageMonitor`; its
        tolerance is :data:`MONITOR_TOLERANCE`).
    gamma, adaptation_window:
        Gibbs-Candès step size and score window for the online
        recalibration path (:class:`AdaptiveConformalPredictor`).

    Attributes
    ----------
    calibration_:
        The one calibration every primary interval is served from, read
        once per batch: the split CQR ``primary_.cqr_`` after :meth:`fit`,
        then whole states :meth:`observe` and :meth:`recalibrate_weighted`
        build aside and swap in with one assignment.
    """

    def __init__(
        self,
        base_model: Optional[BaseRegressor] = None,
        alpha: float = 0.1,
        random_state: Optional[int] = None,
        monitor_window: int = 50,
        monitor_min_observations: int = 20,
        gamma: float = 0.05,
        adaptation_window: Optional[int] = None,
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {gamma}")
        self.base_model = base_model
        self.alpha = alpha
        self.random_state = random_state
        self.monitor_window = monitor_window
        self.monitor_min_observations = monitor_min_observations
        self.gamma = gamma
        self.adaptation_window = adaptation_window
        self.primary_: Optional[VminPredictionFlow] = None

    # -- fitting ---------------------------------------------------------------
    def _make_flow(self) -> VminPredictionFlow:
        template = clone(self.base_model) if self.base_model is not None else None
        return VminPredictionFlow(
            base_model=template, alpha=self.alpha, random_state=self.random_state
        )

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        feature_names: Optional[List[str]] = None,
        fallback_columns: Optional[Sequence[int]] = None,
        monitor_columns: Optional[Sequence[int]] = None,
    ) -> "RobustVminFlow":
        """Fit guards, primary pipeline, fallback pipeline, recalibrator.

        Parameters
        ----------
        X, y, feature_names:
            Clean training chips, as for :class:`VminPredictionFlow`
            (training data must satisfy the strict ``check_X`` contract;
            robustness applies at serving time).
        fallback_columns:
            Column indices of the feature group a degraded prediction
            can still trust when the monitors die -- typically the
            time-zero parametric block.  When given, a second
            :class:`VminPredictionFlow` is fitted on just these columns.
        monitor_columns:
            Column indices whose health gates the fallback decision
            (typically the on-chip ROD/CPD block).  Defaults to the
            complement of ``fallback_columns``, or all columns.
        """
        X, y = check_X_y(X, y)
        d = X.shape[1]
        self.fallback_columns_ = (
            _validate_columns(fallback_columns, d, "fallback_columns")
            if fallback_columns is not None
            else None
        )
        if monitor_columns is not None:
            self.monitor_columns_ = _validate_columns(
                monitor_columns, d, "monitor_columns"
            )
        elif self.fallback_columns_ is not None:
            self.monitor_columns_ = np.setdiff1d(
                np.arange(d, dtype=np.int64), self.fallback_columns_
            )
        else:
            self.monitor_columns_ = np.arange(d, dtype=np.int64)

        self.guard_ = FeatureHealthGuard().fit(X)
        self.imputer_ = TrainStatImputer().fit(X)

        primary = self._make_flow()
        primary.fit(X, y, feature_names=feature_names)
        self.primary_ = primary

        self.fallback_ = None
        if self.fallback_columns_ is not None:
            fallback_names = (
                [feature_names[i] for i in self.fallback_columns_]
                if feature_names is not None
                else None
            )
            fallback = self._make_flow()
            fallback.fit(
                X[:, self.fallback_columns_], y, feature_names=fallback_names
            )
            self.fallback_ = fallback

        self.calibration_ = primary.cqr_
        self.monitor_ = CoverageMonitor(
            target_coverage=1.0 - self.alpha,
            window=self.monitor_window,
            tolerance=MONITOR_TOLERANCE,
            min_observations=self.monitor_min_observations,
        )
        self.n_features_in_ = d
        self.recalibrations_ = 0
        return self

    # -- serving ---------------------------------------------------------------
    def _validate_structure(self, X: np.ndarray) -> np.ndarray:
        """Check dimensionality and column count; value damage passes."""
        check_fitted(self, "primary_")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(
                f"X must be 2-D (n_samples, n_features), got shape {X.shape}"
            )
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, flow was fitted on "
                f"{self.n_features_in_}"
            )
        return X

    def _validate_labelled(
        self, X: np.ndarray, y: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Structure-check a labelled batch; labels must be finite."""
        check_fitted(self, "primary_")
        y = np.asarray(y, dtype=np.float64)
        if y.ndim != 1:
            raise ValueError(f"y must be 1-D, got shape {y.shape}")
        if not np.all(np.isfinite(y)):
            raise ValueError("y contains NaN or infinite values")
        X = self._validate_structure(X)
        if X.shape[0] != y.shape[0]:
            raise ValueError(
                f"X and y have inconsistent lengths: {X.shape[0]} vs "
                f"{y.shape[0]}"
            )
        return X, y

    def _sanitize(self, X: np.ndarray) -> Tuple[np.ndarray, HealthReport]:
        """Health-assess and impute a batch; only structural errors raise.

        The guard's report is handed to the imputer: its missing mask
        and column extremes come from the guard's one read of the batch.
        """
        X = self._validate_structure(X)
        report = self.guard_.assess(X)
        return self.imputer_.transform(X, report), report

    def _band(self, X_clean: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The primary quantile band on a sanitized batch.

        Every serving calibration (split CQR, adaptive, weighted) widens
        this same fitted band, and it never changes after ``fit``.
        """
        return self.primary_.cqr_.band_.predict_interval(X_clean)

    def _empty_prediction(self, X: np.ndarray) -> DegradedPrediction:
        """The structured no-op answer for a zero-chip batch.

        A serving layer streaming wafers hits legitimately empty batches
        (a fully screened-out lot, a drained queue flush); those must
        round-trip as zero intervals, not crash the service.  The
        guard reports a zero-row batch all-healthy.
        """
        return DegradedPrediction(
            intervals=PredictionIntervals(np.zeros(0), np.zeros(0)),
            status=DegradationStatus.OK,
            health=self.guard_.assess(X),
            notes=("empty batch: zero intervals served",),
        )

    @property
    def adaptive_active(self) -> bool:
        """True while online-recalibrated (Gibbs-Candès) margins serve."""
        check_fitted(self, "primary_")
        return isinstance(self.calibration_, AdaptiveConformalPredictor)

    # -- shift-defense accessors ----------------------------------------------
    def calibration_scores(self) -> np.ndarray:
        """The primary pipeline's CQR calibration scores (a copy).

        These are the reference sample an exchangeability sentinel
        (:class:`repro.shift.ConformalTestMartingale`) is armed with.
        """
        check_fitted(self, "primary_")
        return np.array(self.primary_.cqr_.calibration_scores_)

    def calibration_features(self) -> np.ndarray:
        """The primary pipeline's calibration feature rows (a copy).

        The frozen covariate reference window for shift detectors and
        density-ratio estimation.
        """
        check_fitted(self, "primary_")
        return np.array(self.primary_.cqr_.calibration_features_)

    def recalibrate_weighted(
        self,
        X_recent: np.ndarray,
        ratio_columns: Optional[Sequence[int]] = None,
        ratio_estimator: Optional[LogisticDensityRatio] = None,
    ) -> float:
        """Repair coverage under covariate shift with weighted margins.

        Estimates the density ratio between the calibration features
        (reference) and ``X_recent`` (the shifted serving batch) with
        :func:`~repro.shift.weighted_band_calibrator`, around the primary
        band, and swaps the result into the calibration slot, whatever
        served before.  Returns the effective sample size of the
        calibration weights.

        Raises :class:`~repro.shift.DegenerateWeightsError` -- leaving
        the serving path unchanged -- when the weights' effective sample
        size falls below :data:`~repro.shift.weighted.MIN_ESS`: a shift
        that severe cannot be repaired by reweighting and needs a refit
        (see ``docs/SHIFT.md``).

        Parameters
        ----------
        X_recent:
            Recent serving batch representing the current distribution
            (sanitized like any serving input).
        ratio_columns:
            Columns to estimate the ratio on; defaults to
            ``monitor_columns_`` (the block that moves under process
            shift).
        ratio_estimator:
            Unfitted ratio template (deep-copied); default-configured
            :class:`~repro.shift.LogisticDensityRatio` when ``None``.
        """
        X_clean, _ = self._sanitize(X_recent)
        if X_clean.shape[0] < 2:
            raise ValueError(
                f"X_recent needs at least 2 rows, got {X_clean.shape[0]}"
            )
        columns = (
            _validate_columns(ratio_columns, self.n_features_in_, "ratio_columns")
            if ratio_columns is not None
            else self.monitor_columns_
        )
        calibrator = weighted_band_calibrator(
            self.primary_.cqr_.band_,
            self.calibration_scores(),
            self.calibration_features(),
            X_clean,
            alpha=self.alpha,
            ratio_estimator=ratio_estimator,
            ratio_columns=columns,
        )
        self.calibration_ = calibrator
        self.recalibrations_ += 1
        return calibrator.ess_

    def predict_interval(self, X: np.ndarray) -> DegradedPrediction:
        """Serve calibrated intervals with graceful degradation.

        Value-level damage (NaN, Inf, stuck or drifted sensors) never
        raises: the batch is sanitized, the degradation policy picks the
        serving path and the inflation charge, and the full story comes
        back as a :class:`DegradedPrediction`.  Structural errors (wrong
        dimensionality or column count) still raise ``ValueError`` --
        those are integration bugs, not field faults.  An *empty* batch
        (zero chips, valid column count) is a no-op: zero intervals,
        status ``OK``.
        """
        X = self._validate_structure(X)
        if X.shape[0] == 0:
            return self._empty_prediction(X)
        X_clean, report = self._sanitize(X)
        return self._serve(X_clean, report)

    def _serve(
        self,
        X_clean: np.ndarray,
        report: HealthReport,
        band: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> DegradedPrediction:
        """:meth:`predict_interval` of a sanitized, non-empty batch.

        ``band`` is the primary band on ``X_clean`` when the caller
        already evaluated it (see :meth:`observe`); ``None`` leaves it
        to the calibration.  The slot is read once: the primary
        intervals and the calibration's note come from one state.
        """
        # Column-level damage misses row-level faults (a dropped record
        # NaNs every feature of one chip without killing any column), so
        # degradation is charged on the worse of the two views.
        overall = max(report.unhealthy_fraction, report.damaged_entry_fraction)
        monitor_frac = report.unhealthy_fraction_of(self.monitor_columns_)
        status = classify(overall, monitor_frac)
        notes: List[str] = []
        used_fallback = False

        if status is DegradationStatus.FALLBACK and self.fallback_ is not None:
            fallback_frac = report.unhealthy_fraction_of(self.fallback_columns_)
            if fallback_frac < FALLBACK_THRESHOLD:
                intervals = self.fallback_.predict_interval(
                    X_clean[:, self.fallback_columns_]
                )
                used_fallback = True
                inflation = inflation_factor(fallback_frac)
                notes.append(
                    f"monitor block {monitor_frac:.0%} unhealthy; served "
                    f"fallback model on {self.fallback_columns_.size} columns"
                )
            else:
                inflation = MAX_INFLATION
                notes.append(
                    f"monitor block {monitor_frac:.0%} and fallback block "
                    f"{fallback_frac:.0%} unhealthy; served primary model "
                    "at maximum inflation"
                )
        elif status is DegradationStatus.FALLBACK:
            inflation = MAX_INFLATION
            notes.append(
                f"monitor block {monitor_frac:.0%} unhealthy and no fallback "
                "model fitted; served primary model at maximum inflation"
            )
        else:
            inflation = inflation_factor(overall)
            if status is DegradationStatus.DEGRADED:
                notes.append(
                    f"{overall:.0%} of features imputed; interval widened "
                    f"{inflation:.2f}x"
                )
        if not used_fallback:
            calibration = self.calibration_
            intervals = calibration.predict_interval(X_clean, band=band)
            note = calibration.serving_note()
            if note is not None:
                notes.append(note)
        if inflation > 1.0:
            intervals = inflate_intervals(intervals, inflation)
        return DegradedPrediction(
            intervals=intervals,
            status=status,
            health=report,
            inflation=inflation,
            used_fallback=used_fallback,
            notes=tuple(notes),
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Midpoint of the served interval (point estimate, V)."""
        return self.predict_interval(X).intervals.midpoint

    # -- the feedback loop -----------------------------------------------------
    def observe(self, X: np.ndarray, y: np.ndarray) -> ObservedBatch:
        """Stream measured Vmin labels back into the serving stack.

        Serves ``X`` exactly as :meth:`predict_interval` would, scores
        the outcomes against ``y``, and feeds the rolling coverage
        monitor.  From the first alarm on, each batch swaps in
        Gibbs-Candès margins updated on its labels (online
        recalibration; see :meth:`_feedback_step`).  The batch is
        sanitized and banded once: the served intervals, the adaptive
        update and the returned conformity scores all come from it.

        Returns an :class:`ObservedBatch`: the alarm fired by this batch,
        if any, and the batch's conformity scores against the primary
        band.  A zero-label batch is a no-op (no alarm, no scores,
        monitor and recalibrator state untouched) -- the serving layer's
        label feedback can legitimately deliver nothing.
        """
        X, y = self._validate_labelled(X, y)
        if y.shape[0] == 0:
            return ObservedBatch(alarm=None, scores=np.zeros(0))
        X_clean, report = self._sanitize(X)
        band = self._band(X_clean)
        prediction = self._serve(X_clean, report, band)
        covered = prediction.intervals.contains(y)
        alarm = self.monitor_.update(covered)
        if alarm is not None:
            self.recalibrations_ += 1
        step = self._feedback_step(alarm)
        if step is not None:
            step.update(X_clean, y, band=band)
            self.calibration_ = step
        return ObservedBatch(alarm=alarm, scores=cqr_score(y, *band))

    def _feedback_step(
        self, alarm: Optional[CoverageAlarm]
    ) -> Optional[AdaptiveConformalPredictor]:
        """The adaptive state a labelled batch updates, built aside.

        The one rule on the calibration's kind: an alarm turns the split
        CQR into Gibbs-Candès margins seeded with its scores, and an
        adaptive state stays adaptive (each batch updates a copy).  A
        weighted repair keeps serving through alarms (``None``): an
        audited operator action outranks the blind feedback controller.
        """
        current = self.calibration_
        if isinstance(current, AdaptiveConformalPredictor):
            return copy.copy(current)
        if alarm is not None and current is self.primary_.cqr_:
            return AdaptiveConformalPredictor.from_fitted(
                current.band_,
                current.calibration_scores_,
                alpha=self.alpha,
                gamma=self.gamma,
                window=self.adaptation_window,
            )
        return None

    def rolling_coverage(self) -> float:
        """Rolling empirical coverage over the observation window."""
        check_fitted(self, "primary_")
        return self.monitor_.rolling_coverage()

    @property
    def alarms_(self) -> List[CoverageAlarm]:
        """Every coverage alarm fired so far."""
        check_fitted(self, "primary_")
        return self.monitor_.alarms_

    @property
    def guaranteed_coverage_(self) -> float:
        """Finite-sample guarantee of the primary pipeline (clean inputs)."""
        check_fitted(self, "primary_")
        return self.primary_.guaranteed_coverage_
