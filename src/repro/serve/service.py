"""The fault-tolerant batch scoring service for Vmin intervals.

:class:`VminServingService` is the deployment shell around a registry
of fitted :class:`~repro.robust.flow.RobustVminFlow` bundles.  It owns
exactly the concerns that belong *outside* the model:

* **verified loading and the fallback chain** -- every model comes out
  of a :class:`~repro.serve.registry.ModelRegistry` checksum-verified;
  when the latest version is corrupt the service quarantines it, rolls
  back to the last known good version, then to a parametric fallback
  model, and only when the whole chain is exhausted starts rejecting
  (:class:`FallbackLevel`), with every step audited through
  :class:`~repro.serve.health.HealthStateMachine`;
* **admission control** -- at most ``max_in_flight`` batches score
  concurrently and at most ``max_waiting`` queue behind them; beyond
  that, callers get a typed :class:`Overloaded` immediately instead of
  unbounded latency;
* **deadlines and retries** -- each request runs inside a cooperative
  :func:`~repro.runtime.watchdog.deadline_scope` and transient faults
  (crashed workers, timeouts) re-run under a deterministic
  :class:`~repro.runtime.retry.RetryPolicy`;
* **hot-swap** -- :meth:`VminServingService.hot_swap` atomically
  replaces the served model; in-flight requests keep the snapshot they
  started with, so a swap drops zero requests by construction;
* **the label feedback loop** -- :meth:`VminServingService.observe`
  streams measured Vmin back into the flow's coverage monitor and
  flips the service ``READY <-> DEGRADED`` on alarm/recovery;
* **shift defense** -- an optional
  :class:`~repro.serve.shiftguard.ShiftGuard` rides the same feedback
  loop: its exchangeability martingale and covariate detector are
  re-armed on every installed model, new alarms degrade the service
  under the audited ``EXCHANGEABILITY_ALARM`` / ``COVARIATE_SHIFT``
  reason codes, and :meth:`VminServingService.repair_shift` applies
  (or, when the density-ratio weights degenerate, refuses) a
  weighted-conformal recalibration.

Scoring is exposed as :meth:`~VminServingService.score` (not
``predict``): the service is an orchestrator that mutates audit and
admission state per call, which the repository's read-only-predict
convention reserves ``predict`` names from doing.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Set, Tuple

import numpy as np

from repro.robust.fallback import DegradedPrediction
from repro.robust.flow import RobustVminFlow
from repro.runtime.artifacts import ArtifactError
from repro.runtime.retry import RetryPolicy, run_attempts
from repro.runtime.watchdog import check_deadline, deadline_scope
from repro.serve.health import (
    FallbackLevel,
    HealthStateMachine,
    ReasonCode,
    ServiceState,
)
from repro.serve.registry import ModelRegistry
from repro.serve.shiftguard import ShiftGuard, ShiftVerdict
from repro.shift import DegenerateWeightsError

__all__ = [
    "Overloaded",
    "RejectedRequest",
    "ServingConfig",
    "ServingResult",
    "VminServingService",
]

TaskWrapper = Callable[[Callable[[object], object]], Callable[[object], object]]


class Overloaded(RuntimeError):
    """The service refused admission: in-flight and queue limits are full.

    Typed (rather than a generic error) so load generators and upstream
    dispatchers can distinguish "shed load, try later" from a failure of
    the request itself.
    """


class RejectedRequest(RuntimeError):
    """The service has no servable model (fallback chain exhausted).

    The terminal :class:`~repro.serve.health.FallbackLevel.REJECT` level:
    refusing loudly is the only honest answer once no verified bundle
    and no parametric fallback exists.
    """


@dataclass(frozen=True)
class ServingConfig:
    """Operational limits of one :class:`VminServingService`.

    Parameters
    ----------
    max_in_flight:
        Batches allowed to score concurrently.
    max_waiting:
        Batches allowed to queue behind the in-flight ones; an arrival
        beyond this raises :class:`Overloaded` immediately.
    queue_timeout_s:
        How long a queued request waits for an execution slot before
        giving up with :class:`Overloaded` (bounded queueing delay).
    deadline_s:
        Cooperative per-request deadline
        (:func:`~repro.runtime.watchdog.deadline_scope`); ``None``
        disables it.
    retry_policy:
        Retry schedule for transient scoring faults; ``None`` scores
        exactly once.
    """

    max_in_flight: int = 4
    max_waiting: int = 8
    queue_timeout_s: float = 5.0
    deadline_s: Optional[float] = None
    retry_policy: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ValueError(
                f"max_in_flight must be >= 1, got {self.max_in_flight}"
            )
        if self.max_waiting < 0:
            raise ValueError(
                f"max_waiting must be >= 0, got {self.max_waiting}"
            )
        if not self.queue_timeout_s >= 0:
            raise ValueError(
                f"queue_timeout_s must be >= 0, got {self.queue_timeout_s}"
            )
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ValueError(
                f"deadline_s must be > 0 when set, got {self.deadline_s}"
            )


@dataclass(frozen=True)
class ServingResult:
    """One scored batch plus its provenance and cost.

    Attributes
    ----------
    prediction:
        The flow's structured answer (intervals, degradation status,
        health masks, notes).
    model_version:
        Registry version name that produced it (``"<parametric>"`` when
        served by the in-memory parametric fallback).
    fallback_level:
        Where in the fallback chain the serving model sat at snapshot
        time.
    state:
        Service readiness when the request was admitted.
    attempts:
        Scoring executions made (1 = first try succeeded; more means
        transient faults were retried away).
    wall_s:
        End-to-end wall-clock seconds, queueing included.
    """

    prediction: DegradedPrediction
    model_version: str
    fallback_level: FallbackLevel
    state: ServiceState
    attempts: int
    wall_s: float


PARAMETRIC_VERSION = "<parametric>"


class VminServingService:
    """Registry-backed, admission-controlled Vmin interval scoring.

    Parameters
    ----------
    registry:
        The :class:`~repro.serve.registry.ModelRegistry` models are
        loaded from (and recalibrated versions published back to).
    config:
        Operational limits; defaults to :class:`ServingConfig`.
    parametric_model:
        Optional fitted in-memory flow used as the last resort before
        rejection -- typically a parametric-only
        :class:`~repro.robust.flow.RobustVminFlow` small enough to bake
        into the process image.
    task_wrapper:
        Test seam: wraps the per-request scoring callable exactly like
        the execution-fault injectors of :mod:`repro.robust.faults`
        (``wrapper(fn)(request_id)``), so the soak harness can crash or
        hang scoring attempts without touching service internals.
        Request ids number the admitted requests 0, 1, 2, ... and are
        unique across threads; the id also keys the retry jitter.
    shift_guard:
        Optional :class:`~repro.serve.shiftguard.ShiftGuard`.  When
        given, the guard is (re-)armed on every model the fallback
        chain installs and fed by :meth:`observe`; new sentinel alarms
        degrade the service under ``EXCHANGEABILITY_ALARM`` /
        ``COVARIATE_SHIFT``, and :meth:`repair_shift` becomes the
        audited recovery path.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        config: Optional[ServingConfig] = None,
        parametric_model: Optional[RobustVminFlow] = None,
        task_wrapper: Optional[TaskWrapper] = None,
        shift_guard: Optional[ShiftGuard] = None,
    ) -> None:
        self.registry = registry
        self.config = config if config is not None else ServingConfig()
        self.parametric_model = parametric_model
        self.task_wrapper = task_wrapper
        self.shift_guard = shift_guard
        self.last_shift_verdict_: Optional[ShiftVerdict] = None
        self.health = HealthStateMachine()
        self._model: Optional[RobustVminFlow] = None
        self._version: str = PARAMETRIC_VERSION
        self._level: FallbackLevel = FallbackLevel.REJECT
        self._lock = threading.RLock()
        self._slots = threading.Semaphore(self.config.max_in_flight)
        self._waiting = 0
        self._waiting_lock = threading.Lock()
        # Requests finish on many threads: the outcome counters move
        # under their own lock, never the hot-swap one.
        self._counts_lock = threading.Lock()
        self.n_served_ = 0
        self.n_rejected_ = 0
        self.n_overloaded_ = 0
        self._requests_admitted = 0
        # Audit set: every version name that passed checksum verification
        # before being installed (plus the parametric marker).  The soak
        # harness asserts each ServingResult.model_version is in here --
        # the "never served an unverified artifact" invariant.
        self.verified_versions_: Set[str] = set()

    # -- lifecycle -------------------------------------------------------------
    @property
    def state(self) -> ServiceState:
        """Current readiness state."""
        return self.health.state

    @property
    def model_version(self) -> str:
        """Registry version currently served (snapshot, may swap)."""
        with self._lock:
            return self._version

    @property
    def fallback_level(self) -> FallbackLevel:
        """Current position in the fallback chain."""
        with self._lock:
            return self._level

    @property
    def served_model(self) -> Optional[RobustVminFlow]:
        """The flow currently serving (``None`` before :meth:`start`)."""
        with self._lock:
            return self._model

    def start(self) -> ServiceState:
        """Load a model through the fallback chain and open for traffic.

        Walks current -> last-known-good -> parametric; ends ``READY``
        when the latest version loaded clean, ``DEGRADED`` when any
        fallback step was taken, and stays unready (scores raise
        :class:`RejectedRequest`) when the chain is exhausted.
        """
        with self._lock:
            level = self._acquire_model()
            if level is FallbackLevel.CURRENT:
                self.health.transition(
                    ServiceState.READY,
                    ReasonCode.STARTUP_COMPLETE,
                    f"serving {self._version}",
                )
            elif level is not FallbackLevel.REJECT:
                self.health.transition(
                    ServiceState.DEGRADED,
                    ReasonCode.STARTUP_COMPLETE,
                    f"started on fallback chain level {level.name}",
                )
            return self.health.state

    def drain(self) -> None:
        """Stop admitting requests; in-flight batches finish normally."""
        with self._lock:
            if self.health.state is not ServiceState.DRAINING:
                self.health.transition(
                    ServiceState.DRAINING, ReasonCode.DRAIN_REQUESTED
                )

    # -- the fallback chain ----------------------------------------------------
    def _acquire_model(self) -> FallbackLevel:
        """Load the best available model; record every step taken.

        Tries the latest registry version first; on corruption the
        registry quarantines it and repoints ``LATEST``, so retrying the
        load walks down to the last known good version automatically.
        Exhausting the registry falls through to the in-memory
        parametric model, then to rejection.  Returns the level reached
        and installs the model under the service lock.
        """
        target = self.registry.latest()
        while True:
            name = self.registry.latest()
            if name is None:
                break
            try:
                model, record = self.registry.load(name)
            except ArtifactError as error:
                self.health.note(
                    ReasonCode.ARTIFACT_CORRUPT,
                    f"{name}: {error}",
                )
                continue  # registry repointed LATEST; try the next one
            self._model = model
            self._version = record.name
            self.verified_versions_.add(record.name)
            if target is not None and record.name != target:
                self._level = FallbackLevel.LAST_KNOWN_GOOD
                self.health.note(
                    ReasonCode.ROLLED_BACK,
                    f"latest {target} unusable; rolled back to {record.name}",
                )
            else:
                self._level = FallbackLevel.CURRENT
                self.health.note(
                    ReasonCode.MODEL_VERIFIED, f"{record.name} checksum ok"
                )
            self._arm_shift_guard()
            return self._level
        if self.parametric_model is not None:
            self._model = self.parametric_model
            self._version = PARAMETRIC_VERSION
            self._level = FallbackLevel.PARAMETRIC
            self.verified_versions_.add(PARAMETRIC_VERSION)
            self.health.note(
                ReasonCode.PARAMETRIC_FALLBACK,
                "registry exhausted; serving in-memory parametric model",
            )
            self._arm_shift_guard()
            return self._level
        self._model = None
        self._version = PARAMETRIC_VERSION
        self._level = FallbackLevel.REJECT
        return self._level

    def hot_swap(self) -> str:
        """Swap to the newest verified registry version, zero downtime.

        Re-runs the fallback chain under the lock and returns the
        version now served.  Requests already in flight keep the model
        snapshot they were admitted with, so none are dropped; requests
        admitted after the swap see the new model.  A swap that lands on
        a fallback level (corrupt latest) degrades the service; a swap
        back onto the current level while degraded-by-rollback recovers
        it.
        """
        with self._lock:
            previous = self._version
            previous_model = self._model
            level = self._acquire_model()
            if self._model is None:
                if previous_model is not None:
                    # The registry is exhausted but the process still
                    # holds a model that was verified when loaded: keep
                    # serving it rather than going dark -- it *is* the
                    # last known good, just in memory instead of on disk.
                    self._model = previous_model
                    self._version = previous
                    self._level = FallbackLevel.LAST_KNOWN_GOOD
                    level = self._level
                    self.health.note(
                        ReasonCode.ROLLED_BACK,
                        f"registry exhausted; continuing on in-memory "
                        f"{previous}",
                    )
                else:
                    raise RejectedRequest(
                        "hot swap found no servable model in the registry"
                    )
            if self._version != previous:
                self.health.note(
                    ReasonCode.HOT_SWAP, f"{previous} -> {self._version}"
                )
            if (
                level is FallbackLevel.CURRENT
                and self.health.state is ServiceState.DEGRADED
                and not self._coverage_alarmed()
                and not self._shift_alarmed()
            ):
                self.health.transition(
                    ServiceState.READY,
                    ReasonCode.MODEL_VERIFIED,
                    f"recovered onto verified {self._version}",
                )
            elif (
                level is not FallbackLevel.CURRENT
                and self.health.state is ServiceState.READY
            ):
                self.health.transition(
                    ServiceState.DEGRADED,
                    ReasonCode.ROLLED_BACK,
                    f"serving fallback level {level.name}",
                )
            return self._version

    def _arm_shift_guard(self) -> None:
        """Re-baseline the shift sentinels on the just-installed model.

        Bundles published before the shift layer existed carry no
        frozen calibration features; those are served with the guard
        disarmed rather than refused -- the coverage monitor still
        protects them, just without the leading signals.
        """
        guard = self.shift_guard
        model = self._model
        if guard is None:
            return
        self.last_shift_verdict_ = None
        if not isinstance(model, RobustVminFlow) or model.primary_ is None:
            guard.disarm()
            return
        try:
            guard.arm(model)
        except RuntimeError:
            guard.disarm()

    def _coverage_alarmed(self) -> bool:
        """Whether the served flow's coverage monitor is in alarm."""
        model = self._model
        return (
            isinstance(model, RobustVminFlow)
            and model.primary_ is not None
            and model.monitor_.in_alarm_
        )

    def _shift_alarmed(self) -> bool:
        """Whether any armed shift sentinel is currently alarmed."""
        guard = self.shift_guard
        return (
            guard is not None and guard.armed and guard.verdict().any_alarm()
        )

    def _snapshot(self) -> Tuple[RobustVminFlow, str, FallbackLevel, int]:
        """Consistent (model, version, level) for one request, plus its id.

        The id is taken in the same critical section that freezes the
        model, so concurrent requests never share one.
        """
        with self._lock:
            if self._model is None:
                raise RejectedRequest(
                    "no servable model: registry exhausted and no "
                    "parametric fallback configured"
                )
            request_id = self._requests_admitted
            self._requests_admitted += 1
            return self._model, self._version, self._level, request_id

    # -- admission control -----------------------------------------------------
    def _admit(self) -> None:
        """Take an execution slot or raise :class:`Overloaded`."""
        if self._slots.acquire(blocking=False):
            return
        with self._waiting_lock:
            if self._waiting >= self.config.max_waiting:
                with self._counts_lock:
                    self.n_overloaded_ += 1
                raise Overloaded(
                    f"{self.config.max_in_flight} batches in flight and "
                    f"{self._waiting} waiting (max_waiting="
                    f"{self.config.max_waiting})"
                )
            self._waiting += 1
        try:
            if not self._slots.acquire(timeout=self.config.queue_timeout_s):
                with self._counts_lock:
                    self.n_overloaded_ += 1
                raise Overloaded(
                    f"no execution slot within queue_timeout_s="
                    f"{self.config.queue_timeout_s:g}"
                )
        finally:
            with self._waiting_lock:
                self._waiting -= 1

    # -- scoring ---------------------------------------------------------------
    def score(self, X: np.ndarray) -> ServingResult:
        """Score one batch through admission, deadline, and retry.

        The flow's graceful-degradation contract applies to the data
        (value damage comes back as a :class:`DegradedPrediction`);
        this method adds the service contract on top: typed
        :class:`Overloaded` under load shedding, typed
        :class:`RejectedRequest` when no model is servable, transient
        faults retried per the configured policy, and the model
        reference frozen per request so hot-swaps never invalidate
        in-flight work.
        """
        started = time.perf_counter()
        if not self.health.ready:
            with self._counts_lock:
                self.n_rejected_ += 1
            raise RejectedRequest(
                f"service is {self.health.state.value}, not accepting requests"
            )
        self._admit()
        try:
            model, version, level, request_id = self._snapshot()
            state = self.health.state

            def score_once(item: object) -> DegradedPrediction:
                check_deadline()
                return model.predict_interval(X)

            worker = (
                self.task_wrapper(score_once)
                if self.task_wrapper is not None
                else score_once
            )

            def attempt_fn() -> DegradedPrediction:
                with deadline_scope(self.config.deadline_s):
                    return worker(request_id)

            attempt = run_attempts(
                attempt_fn,
                policy=self.config.retry_policy,
                task_key=request_id,
            )
            if not attempt.ok:
                with self._counts_lock:
                    self.n_rejected_ += 1
                attempt.unwrap()
            prediction = attempt.value
            with self._counts_lock:
                self.n_served_ += 1
            return ServingResult(
                prediction=prediction,
                model_version=version,
                fallback_level=level,
                state=state,
                attempts=attempt.attempts,
                wall_s=time.perf_counter() - started,
            )
        finally:
            self._slots.release()

    # -- the feedback loop -----------------------------------------------------
    def observe(
        self,
        X: np.ndarray,
        y: np.ndarray,
        zones: Optional[Sequence] = None,
    ) -> Optional[Any]:
        """Stream measured labels into the served flow's monitor.

        Drives the readiness machine from the monitor's verdicts: a
        coverage alarm degrades the service (reason
        ``COVERAGE_ALARM``); sustained recovery past the target while
        degraded-by-coverage promotes it back (``COVERAGE_RECOVERED``).
        When a :class:`~repro.serve.shiftguard.ShiftGuard` is armed the
        same batch also feeds the shift sentinels: a *newly* fired
        exchangeability or covariate alarm degrades the service under
        its own reason code, and a new wafer-zone coverage alarm is
        recorded as an audited ``COVERAGE_ALARM`` note (``zones``
        labels each chip with its wafer zone; ``None`` skips the
        per-zone monitors).  Returns the coverage alarm fired by this
        batch, if any.  Zero labels are a no-op, mirroring the flow
        contract.
        """
        with self._lock:
            model = self._model
        if model is None:
            raise RejectedRequest("no servable model to observe labels on")
        was_alarmed = self._coverage_alarmed()
        observed = model.observe(X, y)
        alarm = observed.alarm
        verdict: Optional[ShiftVerdict] = None
        guard = self.shift_guard
        if (
            guard is not None
            and guard.armed
            and isinstance(model, RobustVminFlow)
            and observed.scores.shape[0] > 0
        ):
            # The flow scored the batch against its primary band while
            # observing it; the sentinels take those scores as they are.
            verdict = guard.observe(
                model, X, y, zones=zones, scores=observed.scores
            )
        with self._lock:
            if alarm is not None and self.health.state is ServiceState.READY:
                self.health.transition(
                    ServiceState.DEGRADED,
                    ReasonCode.COVERAGE_ALARM,
                    alarm.describe(),
                )
            elif (
                was_alarmed
                and not self._coverage_alarmed()
                and self.health.state is ServiceState.DEGRADED
                and self._level is FallbackLevel.CURRENT
                and not self._shift_alarmed()
            ):
                self.health.transition(
                    ServiceState.READY,
                    ReasonCode.COVERAGE_RECOVERED,
                    f"rolling coverage {model.rolling_coverage():.1%}",
                )
            if verdict is not None:
                self._audit_shift_verdict(guard, verdict)
                self.last_shift_verdict_ = verdict
        return alarm

    def _audit_shift_verdict(
        self, guard: ShiftGuard, verdict: ShiftVerdict
    ) -> None:
        """Map newly fired sentinel alarms onto audited health edges.

        Must be called under the service lock.  Only *transitions into*
        alarm are recorded (the sentinels latch, so every subsequent
        batch would otherwise re-log the same event).
        """
        previous = self.last_shift_verdict_
        if verdict.exchangeability_alarm and not (
            previous is not None and previous.exchangeability_alarm
        ):
            detail = (
                guard.martingale_.alarms_[-1].describe()
                if guard.martingale_ is not None and guard.martingale_.alarms_
                else verdict.describe()
            )
            if self.health.state is ServiceState.READY:
                self.health.transition(
                    ServiceState.DEGRADED,
                    ReasonCode.EXCHANGEABILITY_ALARM,
                    detail,
                )
            else:
                self.health.note(ReasonCode.EXCHANGEABILITY_ALARM, detail)
        if verdict.covariate_alarm and not (
            previous is not None and previous.covariate_alarm
        ):
            detail = (
                guard.detector_.alarms_[-1].describe()
                if guard.detector_ is not None and guard.detector_.alarms_
                else verdict.describe()
            )
            if self.health.state is ServiceState.READY:
                self.health.transition(
                    ServiceState.DEGRADED,
                    ReasonCode.COVARIATE_SHIFT,
                    detail,
                )
            else:
                self.health.note(ReasonCode.COVARIATE_SHIFT, detail)
        known = set(previous.zone_alarms) if previous is not None else set()
        fresh = sorted(set(verdict.zone_alarms) - known)
        if fresh:
            self.health.note(
                ReasonCode.COVERAGE_ALARM,
                f"wafer-zone coverage alarm: {', '.join(fresh)}",
            )

    def repair_shift(
        self,
        X_recent: np.ndarray,
        ratio_columns: Optional[Sequence[int]] = None,
        min_ess: float = 10.0,
        ratio_estimator: Optional[Any] = None,
    ) -> float:
        """Apply a weighted-conformal repair for a detected covariate shift.

        Estimates density-ratio weights between the served flow's frozen
        calibration features and ``X_recent`` (the recent, shifted
        traffic) and installs a weighted recalibration on the flow
        (:meth:`~repro.robust.flow.RobustVminFlow.recalibrate_weighted`).
        On success the shift guard is *disarmed* -- the shift is now
        known and compensated, and sentinels referenced against the
        stale calibration set would re-alarm on it -- the repair is
        audited under ``RECALIBRATED``, and the service returns to
        ``READY`` when nothing else holds it down.  The guard re-arms
        automatically at the next hot-swap or republication.

        When the weights degenerate
        (:class:`~repro.shift.DegenerateWeightsError`: the shift is too
        severe for reweighting to carry a guarantee) the refusal is
        audited under ``COVARIATE_SHIFT`` and the error re-raised with
        the served model untouched -- the honest escalation path is a
        refit on fresh labelled data, not a silently unsupported
        interval.  Returns the effective sample size of the accepted
        weights.
        """
        with self._lock:
            model = self._model
        if not isinstance(model, RobustVminFlow) or model.primary_ is None:
            raise RejectedRequest(
                "no fitted RobustVminFlow is being served; nothing to repair"
            )
        try:
            ess = model.recalibrate_weighted(
                X_recent,
                ratio_columns=ratio_columns,
                min_ess=min_ess,
                ratio_estimator=ratio_estimator,
            )
        except DegenerateWeightsError as error:
            with self._lock:
                self.health.note(
                    ReasonCode.COVARIATE_SHIFT,
                    f"weighted repair refused: {error}",
                )
            raise
        with self._lock:
            if self.shift_guard is not None:
                self.shift_guard.disarm()
            self.last_shift_verdict_ = None
            self.health.note(
                ReasonCode.RECALIBRATED,
                f"weighted shift repair installed (ESS={ess:.1f})",
            )
            if (
                self.health.state is ServiceState.DEGRADED
                and self._level is FallbackLevel.CURRENT
                and not self._coverage_alarmed()
            ):
                self.health.transition(
                    ServiceState.READY,
                    ReasonCode.RECALIBRATED,
                    "weighted recalibration restored nominal serving",
                )
        return float(ess)
