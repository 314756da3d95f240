"""Stress-test harness: degradation under data *and* execution faults.

The robustness claim of :mod:`repro.robust` is quantitative: under a
given fault campaign the served intervals should lose *bounded* coverage
relative to the clean baseline, paying for damage with width (inflation,
fallback) rather than with silent under-coverage.  This module measures
exactly that.  :func:`run_fault_campaign` serves one held-out lot through
a fitted :class:`~repro.robust.flow.RobustVminFlow` once clean and once
per fault scenario, and the resulting :class:`StressReport` tabulates
coverage, width, status, and inflation per scenario -- the robustness
analogue of the paper's Table III.

The second campaign mode targets the *execution* layer rather than the
data: :func:`run_execution_campaign` runs a small experiment grid once
clean, then once per :class:`~repro.robust.faults.ExecutionFault`
scenario with workers crashing or hanging mid-grid, and asserts that
the runtime (:mod:`repro.runtime`: retries, watchdog timeouts, requeue)
recovers every cell with results bit-identical to the clean run.

The third mode is the serving soak: :func:`run_serving_campaign` stands
up a full :class:`~repro.serve.service.VminServingService` against a
real on-disk registry and drives it through the faults a deployment
actually meets -- a scoring worker SIGKILLed mid-request, transient
in-process crashes, a hot-swap under concurrent load, covariate drift
that must trigger online recalibration and republication, and an
artifact corrupted on disk that must be quarantined and rolled back --
then audits the invariants: no unverified artifact ever served, zero
requests dropped across hot-swaps, every downgrade carrying a reason
code, empirical coverage within tolerance, and the service ending the
campaign ``READY``.
"""

from __future__ import annotations

import os
import signal
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.eval.experiments import ExperimentProfile, run_point_grid
from repro.eval.reporting import format_table
from repro.robust.faults import (
    AgingDrift,
    ExecutionFault,
    TaskCrashFault,
    TaskHangFault,
)
from repro.runtime.retry import RetryPolicy
from repro.runtime.watchdog import run_in_subprocess

__all__ = [
    "ExecutionStressReport",
    "ExecutionStressResult",
    "ServingStressReport",
    "ShiftPhaseResult",
    "ShiftStressReport",
    "StressReport",
    "StressResult",
    "run_execution_campaign",
    "run_fault_campaign",
    "run_serving_campaign",
    "run_shift_campaign",
]


@dataclass(frozen=True)
class StressResult:
    """Outcome of serving one fault scenario.

    Attributes
    ----------
    scenario, severity:
        Scenario identity (from the :class:`~repro.robust.faults.FaultScenario`).
    coverage, mean_width:
        Empirical coverage and average interval length (V) of the
        served intervals on the faulted batch.
    status:
        Served :class:`~repro.robust.fallback.DegradationStatus` value.
    inflation:
        Width multiplier the degradation policy charged.
    used_fallback:
        Whether the fallback model produced the band.
    unhealthy_fraction:
        Fraction of feature columns the guard flagged unhealthy.
    """

    scenario: str
    severity: float
    coverage: float
    mean_width: float
    status: str
    inflation: float
    used_fallback: bool
    unhealthy_fraction: float


@dataclass(frozen=True)
class StressReport:
    """Clean baseline plus per-scenario stress results.

    ``nominal_coverage`` / ``nominal_width`` come from serving the same
    batch with no faults injected; every :class:`StressResult` is read
    against them.
    """

    nominal_coverage: float
    nominal_width: float
    results: Tuple[StressResult, ...]

    def worst_coverage(self, scenario_prefix: Optional[str] = None) -> float:
        """Lowest served coverage, optionally restricted to scenarios
        whose name starts with ``scenario_prefix``."""
        selected = [
            r.coverage
            for r in self.results
            if scenario_prefix is None or r.scenario.startswith(scenario_prefix)
        ]
        if not selected:
            raise ValueError(
                f"no scenario matches prefix {scenario_prefix!r}"
            )
        return float(min(selected))

    def coverage_drop(self, scenario_prefix: Optional[str] = None) -> float:
        """Worst coverage loss versus nominal (positive = degradation)."""
        return self.nominal_coverage - self.worst_coverage(scenario_prefix)

    def to_table(self, title: Optional[str] = None) -> str:
        """Monospace report table (coverage in %, width in mV)."""
        rows = [
            [
                "(nominal)",
                0.0,
                "ok",
                self.nominal_coverage * 100.0,
                self.nominal_width * 1e3,
                1.0,
                "-",
                0.0,
            ]
        ]
        rows.extend(
            [
                r.scenario,
                r.severity,
                r.status,
                r.coverage * 100.0,
                r.mean_width * 1e3,
                r.inflation,
                "yes" if r.used_fallback else "no",
                r.unhealthy_fraction * 100.0,
            ]
            for r in self.results
        )
        return format_table(
            [
                "Scenario",
                "Severity",
                "Status",
                "Coverage (%)",
                "Len (mV)",
                "Inflation",
                "Fallback",
                "Unhealthy (%)",
            ],
            rows,
            title=title or "Fault-campaign stress report",
        )


def run_fault_campaign(flow, X: np.ndarray, y: np.ndarray, campaign) -> StressReport:
    """Serve a held-out lot through every scenario of a fault campaign.

    Parameters
    ----------
    flow:
        A *fitted* :class:`~repro.robust.flow.RobustVminFlow` (anything
        whose ``predict_interval`` returns a
        :class:`~repro.robust.fallback.DegradedPrediction` works).
    X, y:
        Clean held-out chips and their measured Vmin labels; every
        scenario corrupts a fresh copy of ``X``.
    campaign:
        An iterable of :class:`~repro.robust.faults.FaultScenario`
        (e.g. :meth:`~repro.robust.faults.FaultCampaign.standard`).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError(
            f"X and y must be a matching 2-D/1-D pair, got {X.shape} and {y.shape}"
        )
    nominal = flow.predict_interval(X)
    results = []
    for scenario in campaign:
        prediction = flow.predict_interval(scenario.apply(X))
        results.append(
            StressResult(
                scenario=scenario.name,
                severity=float(scenario.severity),
                coverage=prediction.coverage(y),
                mean_width=prediction.mean_width,
                status=prediction.status.value,
                inflation=float(prediction.inflation),
                used_fallback=bool(prediction.used_fallback),
                unhealthy_fraction=prediction.health.unhealthy_fraction,
            )
        )
    return StressReport(
        nominal_coverage=nominal.coverage(y),
        nominal_width=nominal.mean_width,
        results=tuple(results),
    )


# ---------------------------------------------------------------------------
# execution-fault campaign (crashed / hung workers mid-grid)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExecutionStressResult:
    """Outcome of one execution-fault scenario over the grid.

    Attributes
    ----------
    scenario:
        Scenario name (e.g. ``worker_crash``).
    recovered:
        Every cell completed despite the injected faults.
    identical:
        The recovered grid equals the clean grid bit for bit.
    n_cells, n_retried, n_failures:
        Grid size, cells that needed more than one attempt, and cells
        that failed even after retries.
    """

    scenario: str
    recovered: bool
    identical: bool
    n_cells: int
    n_retried: int
    n_failures: int


@dataclass(frozen=True)
class ExecutionStressReport:
    """Per-scenario recovery results of an execution-fault campaign."""

    results: Tuple[ExecutionStressResult, ...]

    def all_recovered(self) -> bool:
        """Whether every scenario completed every cell."""
        return all(r.recovered for r in self.results)

    def all_identical(self) -> bool:
        """Whether every scenario reproduced the clean grid bit for bit."""
        return all(r.identical for r in self.results)

    def to_table(self, title: Optional[str] = None) -> str:
        """Monospace report table (one row per scenario)."""
        rows = [
            [
                r.scenario,
                "yes" if r.recovered else "NO",
                "yes" if r.identical else "NO",
                r.n_cells,
                r.n_retried,
                r.n_failures,
            ]
            for r in self.results
        ]
        return format_table(
            ["Scenario", "Recovered", "Identical", "Cells", "Retried", "Failed"],
            rows,
            title=title or "Execution-fault campaign report",
        )


def _default_execution_scenarios(
    seed: int,
) -> Tuple[Tuple[str, ExecutionFault], ...]:
    """The standard execution campaign: crashes, repeat crashes, hangs."""
    return (
        ("worker_crash", TaskCrashFault(fraction=1.0, n_failures=1, seed=seed)),
        ("worker_crash_repeat", TaskCrashFault(fraction=0.6, n_failures=2, seed=seed + 1)),
        ("worker_hang", TaskHangFault(fraction=0.6, n_hangs=1, seed=seed + 2)),
    )


def run_execution_campaign(
    dataset,
    model_names: Sequence[str] = ("LR",),
    temperatures: Sequence[float] = (25.0,),
    read_points: Sequence[int] = (0,),
    scenarios: Optional[Sequence[Tuple[str, ExecutionFault]]] = None,
    profile: Optional[ExperimentProfile] = None,
    seed: int = 0,
    n_jobs: Optional[int] = 2,
    timeout: float = 30.0,
    retry_policy: Optional[RetryPolicy] = None,
) -> ExecutionStressReport:
    """Kill and hang grid workers mid-flight; assert the grid recovers.

    Runs the point grid once clean, then once per execution-fault
    scenario with the scenario's :meth:`~repro.robust.faults.ExecutionFault.wrap`
    installed as the grid's ``task_wrapper``.  The faulted runs execute
    with a retry policy (default: 3 attempts, fast deterministic
    backoff) and a per-cell ``timeout`` so crashes are retried and
    hangs are cut short by the cooperative watchdog; ``identical``
    then records whether retried work reproduced the clean results bit
    for bit -- the determinism-under-faults contract of
    ``docs/RUNTIME.md``.
    """
    profile = profile or ExperimentProfile.smoke()
    if scenarios is None:
        scenarios = _default_execution_scenarios(seed)
    if retry_policy is None:
        retry_policy = RetryPolicy(
            max_attempts=3,
            backoff_base=0.01,
            backoff_max=0.05,
            seed=seed,
        )
    clean = run_point_grid(
        dataset,
        model_names,
        temperatures,
        read_points,
        profile=profile,
        seed=seed,
        n_jobs=n_jobs,
    )
    results = []
    for name, fault in scenarios:
        faulted = run_point_grid(
            dataset,
            model_names,
            temperatures,
            read_points,
            profile=profile,
            seed=seed,
            n_jobs=n_jobs,
            retry_policy=retry_policy,
            timeout=timeout,
            on_error="capture",
            task_wrapper=fault.wrap,
        )
        recovered = faulted.ok and set(faulted) == set(clean)
        results.append(
            ExecutionStressResult(
                scenario=name,
                recovered=recovered,
                identical=recovered and dict(faulted) == dict(clean),
                n_cells=len(clean),
                n_retried=faulted.n_retried,
                n_failures=len(faulted.failures),
            )
        )
    return ExecutionStressReport(results=tuple(results))


# ---------------------------------------------------------------------------
# serving soak campaign (registry corruption, SIGKILLed workers, drift)
# ---------------------------------------------------------------------------


def _sigkill_entry(sentinel: str) -> bool:
    """Subprocess body: die by SIGKILL once, succeed ever after.

    The sentinel file is the cross-process attempt counter: the first
    run creates it and SIGKILLs itself (a *real* kill, surfacing in the
    parent as :class:`~repro.runtime.watchdog.WorkerCrash`); reruns see
    the sentinel and return normally, so a retry policy recovers.
    """
    if not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8") as handle:
            handle.write("struck\n")
        os.kill(os.getpid(), signal.SIGKILL)
    return True


class _SigkillWorker:
    """Task wrapper whose first wrapped call loses a worker to SIGKILL.

    Wraps a per-request callable so that, exactly once per sentinel
    path, a helper subprocess is killed with ``SIGKILL`` before the
    request runs -- raising :class:`~repro.runtime.watchdog.WorkerCrash`
    (a transient fault) into the service's retry loop.  Subsequent
    attempts find the sentinel and pass straight through.
    """

    def __init__(self, sentinel: Path, timeout: float = 30.0) -> None:
        self.sentinel = Path(sentinel)
        self.timeout = float(timeout)

    def wrap(
        self, fn: Callable[[object], object]
    ) -> Callable[[object], object]:
        """Return ``fn`` preceded by the one-shot SIGKILL probe."""

        def struck(item: object) -> object:
            run_in_subprocess(
                _sigkill_entry, str(self.sentinel), timeout=self.timeout
            )
            return fn(item)

        return struck


@dataclass(frozen=True)
class ServingStressReport:
    """Metrics and audited invariants of one serving soak campaign.

    Attributes
    ----------
    n_requests, n_served, n_overloaded, n_retried:
        Requests issued, answered, shed by admission control, and
        answered only after at least one retry.
    dropped_during_swap:
        Requests issued concurrently with a hot-swap that failed with
        anything other than typed load-shedding -- the zero-downtime
        invariant says this must be 0.
    unverified_serves:
        Served batches whose model version never passed checksum
        verification -- must be 0 by the registry's construction.
    chips_per_s, p50_latency_s, p99_latency_s:
        Scoring throughput and per-request latency percentiles.
    coverage, target_coverage, tolerance:
        Empirical coverage over every served-and-labelled chip of the
        campaign (drift phase included) against the promised
        ``1 - alpha`` and the campaign's allowance.
    n_recalibrations, n_versions, n_quarantined:
        Drift-triggered republications, registry versions at campaign
        end, and versions quarantined by corruption.
    downgrades:
        Every audited quality-loss event as ``(reason_code, detail)``
        pairs -- the trail the harness checks for completeness.
    final_state:
        The service state at campaign end (``ready`` on success).
    compiled_kernels:
        The decision-table kernels recorded in the bootstrap version's
        manifest (one entry per boosting ensemble in the flow, e.g.
        ``oblivious(n_trees=100, n_leaves=64)``) -- empty when the
        published flow holds no compiled ensembles.
    """

    n_requests: int
    n_served: int
    n_overloaded: int
    n_retried: int
    dropped_during_swap: int
    unverified_serves: int
    chips_per_s: float
    p50_latency_s: float
    p99_latency_s: float
    coverage: float
    target_coverage: float
    tolerance: float
    n_recalibrations: int
    n_versions: int
    n_quarantined: int
    downgrades: Tuple[Tuple[str, str], ...]
    final_state: str
    compiled_kernels: Tuple[str, ...] = ()

    def ok(self) -> bool:
        """Whether every soak invariant held."""
        return (
            self.unverified_serves == 0
            and self.dropped_during_swap == 0
            and self.coverage >= self.target_coverage - self.tolerance
            and self.final_state == "ready"
            and self.n_recalibrations >= 1
            and self.n_quarantined >= 1
            and all(reason for reason, _ in self.downgrades)
        )

    def to_table(self, title: Optional[str] = None) -> str:
        """Monospace metric table plus the downgrade audit trail."""
        rows = [
            ["requests", self.n_requests],
            ["served", self.n_served],
            ["overloaded (shed)", self.n_overloaded],
            ["retried", self.n_retried],
            ["dropped during swap", self.dropped_during_swap],
            ["unverified serves", self.unverified_serves],
            ["chips/s", self.chips_per_s],
            ["p50 latency (ms)", self.p50_latency_s * 1e3],
            ["p99 latency (ms)", self.p99_latency_s * 1e3],
            ["coverage (%)", self.coverage * 100.0],
            ["target - tol (%)", (self.target_coverage - self.tolerance) * 100.0],
            ["recalibrations", self.n_recalibrations],
            ["registry versions", self.n_versions],
            ["quarantined", self.n_quarantined],
            ["final state", self.final_state],
            ["compiled kernels", len(self.compiled_kernels)],
        ]
        table = format_table(
            ["Metric", "Value"], rows, title=title or "Serving soak report"
        )
        audit = "\n".join(
            f"  [{reason}] {detail}" for reason, detail in self.downgrades
        )
        return table + "\nDowngrade audit:\n" + (audit or "  (none)")


def _request_batches(
    n_rows: int, batch_size: int, count: int, start: int
) -> List[np.ndarray]:
    """``count`` wrapped index windows over ``n_rows`` rows."""
    return [
        (start + batch * batch_size + np.arange(batch_size)) % n_rows
        for batch in range(count)
    ]


def run_serving_campaign(
    flow,
    X: np.ndarray,
    y: np.ndarray,
    registry_root: Union[str, Path],
    batch_size: int = 25,
    n_clean_batches: int = 4,
    n_crash_batches: int = 4,
    n_swap_batches: int = 6,
    n_drift_batches: int = 12,
    n_recovery_batches: int = 8,
    drift_shift: float = 2.0,
    min_recal_labels: int = 30,
    tolerance: float = 0.15,
    seed: int = 0,
) -> ServingStressReport:
    """Soak a full serving stack through the faults of a deployment.

    Publishes ``flow`` to a fresh :class:`~repro.serve.registry.
    ModelRegistry` at ``registry_root``, starts a
    :class:`~repro.serve.service.VminServingService` on it, then drives
    six phases over the held-out stream ``(X, y)``:

    1. **clean** -- nominal scoring with label feedback;
    2. **worker crash** -- the first request loses a worker to a real
       ``SIGKILL`` (via a subprocess probe) and a seeded fraction of
       requests crash transiently in-process; the retry policy must
       recover all of them;
    3. **hot-swap under load** -- a new version is published and
       swapped in while concurrent threads keep scoring; no request may
       fail with anything but typed load shedding;
    4. **drift** -- labels shift by ``drift_shift`` volts while the
       monitors age (:class:`~repro.robust.faults.AgingDrift`); the
       coverage monitor must alarm, degrade the service, and the
       :class:`~repro.serve.recalibration.DriftRecalibrator` must
       republish a recalibrated version;
    5. **corruption** -- the latest bundle is corrupted on disk; the
       forced reload must quarantine it and roll back to the last known
       good version;
    6. **recovery** -- a good bundle is republished, the service swaps
       onto it and must end the campaign ``READY`` on a clean stream.

    Returns a :class:`ServingStressReport`; ``report.ok()`` is the
    single pass/fail the CI smoke job asserts.
    """
    # Deferred import: repro.serve depends on repro.robust, and keeping
    # eval's module import light lets `repro.eval` load without the
    # serving stack when only the data-fault campaigns are used.
    from repro.serve.compiled import kernel_label
    from repro.serve.recalibration import DriftRecalibrator
    from repro.serve.registry import ModelRegistry
    from repro.serve.service import (
        Overloaded,
        ServingConfig,
        VminServingService,
    )

    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError(
            f"X and y must be a matching 2-D/1-D pair, got {X.shape} and {y.shape}"
        )
    if X.shape[0] < batch_size:
        raise ValueError(
            f"need at least one batch of {batch_size} rows, got {X.shape[0]}"
        )
    root = Path(registry_root)
    registry = ModelRegistry(root)
    bootstrap = registry.publish(
        flow, reason="published", metadata={"phase": "bootstrap"}
    )
    compiled_kernels = tuple(
        kernel_label(entry) for entry in bootstrap.manifest.get("compiled", [])
    )
    config = ServingConfig(
        max_in_flight=2,
        max_waiting=4,
        queue_timeout_s=30.0,
        deadline_s=60.0,
        retry_policy=RetryPolicy(
            max_attempts=4, backoff_base=0.01, backoff_max=0.05, seed=seed
        ),
    )
    service = VminServingService(registry, config=config)
    service.start()

    latencies: List[float] = []
    chips_served = 0
    covered = 0
    labelled = 0
    n_requests = 0
    n_retried = 0
    unverified = 0
    results_lock = threading.Lock()

    def score_and_count(batch: np.ndarray, labels: Optional[np.ndarray]):
        """One audited request: score, tally metrics and coverage."""
        nonlocal chips_served, covered, labelled, n_requests, n_retried
        nonlocal unverified
        with results_lock:
            n_requests += 1
        result = service.score(batch)
        with results_lock:
            latencies.append(result.wall_s)
            chips_served += len(result.prediction)
            if result.attempts > 1:
                n_retried += 1
            if result.model_version not in service.verified_versions_:
                unverified += 1
            if labels is not None:
                covered += int(
                    np.sum(result.prediction.intervals.contains(labels))
                )
                labelled += int(labels.shape[0])
        return result

    cursor = 0

    # Phase 1: clean scoring with label feedback.
    for rows in _request_batches(X.shape[0], batch_size, n_clean_batches, cursor):
        score_and_count(X[rows], y[rows])
        service.observe(X[rows], y[rows])
    cursor += n_clean_batches * batch_size

    # Phase 2: a real SIGKILLed worker plus transient in-process crashes.
    crash = TaskCrashFault(fraction=0.5, n_failures=1, seed=seed + 1)
    sigkill = _SigkillWorker(root / "sigkill.sentinel")
    service.task_wrapper = lambda fn: sigkill.wrap(crash.wrap(fn))
    for rows in _request_batches(X.shape[0], batch_size, n_crash_batches, cursor):
        score_and_count(X[rows], y[rows])
        service.observe(X[rows], y[rows])
    service.task_wrapper = None
    cursor += n_crash_batches * batch_size

    # Phase 3: hot-swap while concurrent threads keep scoring.
    registry.publish(
        flow, reason="republished", metadata={"phase": "swap_under_load"}
    )
    swap_errors: List[BaseException] = []
    n_overload_sheds = 0

    def swap_load(thread_index: int) -> None:
        nonlocal n_overload_sheds
        offset = cursor + thread_index * n_swap_batches * batch_size
        for rows in _request_batches(
            X.shape[0], batch_size, n_swap_batches, offset
        ):
            try:
                score_and_count(X[rows], y[rows])
            except Overloaded:
                with results_lock:
                    n_overload_sheds += 1
            except BaseException as error:  # noqa: BLE001 - audited below
                with results_lock:
                    swap_errors.append(error)

    threads = [
        threading.Thread(target=swap_load, args=(index,)) for index in range(3)
    ]
    for thread in threads:
        thread.start()
    service.hot_swap()
    for thread in threads:
        thread.join()
    dropped_during_swap = len(swap_errors)
    cursor += 3 * n_swap_batches * batch_size

    # Phase 4: covariate + label drift; must alarm, recalibrate, republish.
    recalibrator = DriftRecalibrator(service, min_labels=min_recal_labels)
    drift_rng = np.random.default_rng(seed + 2)
    aging = AgingDrift(shift_scale=0.5)
    for rows in _request_batches(X.shape[0], batch_size, n_drift_batches, cursor):
        X_drift = aging.inject(X[rows], drift_rng)
        y_drift = y[rows] + drift_shift
        score_and_count(X_drift, y_drift)
        recalibrator.ingest(X_drift, y_drift)
    cursor += n_drift_batches * batch_size

    # Phase 5: corrupt the live bundle on disk; reload must quarantine
    # it and roll the service back to the last known good version.
    live = registry.latest()
    bundle = registry.versions_dir / live / "bundle.pkl"
    payload = bytearray(bundle.read_bytes())
    payload[: min(64, len(payload))] = b"\x00" * min(64, len(payload))
    bundle.write_bytes(bytes(payload))
    service.hot_swap()

    # Phase 6: republish a good bundle, swap onto it, finish clean.
    registry.publish(
        service.served_model,
        reason="republished",
        metadata={"phase": "recovery"},
    )
    service.hot_swap()
    for rows in _request_batches(
        X.shape[0], batch_size, n_recovery_batches, cursor
    ):
        score_and_count(X[rows], y[rows])
        service.observe(X[rows], y[rows])

    sorted_latencies = np.sort(np.asarray(latencies))
    total_wall = float(np.sum(sorted_latencies))
    return ServingStressReport(
        n_requests=n_requests,
        n_served=service.n_served_,
        n_overloaded=n_overload_sheds,
        n_retried=n_retried,
        dropped_during_swap=dropped_during_swap,
        unverified_serves=unverified,
        chips_per_s=(chips_served / total_wall) if total_wall > 0 else 0.0,
        p50_latency_s=float(np.percentile(sorted_latencies, 50)),
        p99_latency_s=float(np.percentile(sorted_latencies, 99)),
        coverage=(covered / labelled) if labelled else 0.0,
        target_coverage=1.0 - float(flow.alpha),
        tolerance=float(tolerance),
        n_recalibrations=len(recalibrator.events_),
        n_versions=len(registry.versions()),
        n_quarantined=len(registry.quarantined()),
        downgrades=tuple(
            (record.reason.value, record.detail)
            for record in service.health.downgrades()
        ),
        final_state=service.state.value,
        compiled_kernels=compiled_kernels,
    )


# ---------------------------------------------------------------------------
# distribution-shift campaign (new fab, corner drift, sensor recalibration)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftPhaseResult:
    """Outcome of one phase of the distribution-shift campaign.

    Attributes
    ----------
    phase:
        Phase name (``control`` / ``new_fab`` / ``corner_drift`` /
        ``sensor_recal``).
    n_lots:
        Lots served during the phase (pre-repair traffic only).
    coverage:
        Worst per-lot empirical coverage of the phase *before* any
        repair -- the damage the shift inflicted.
    mean_width:
        Mean served interval width (V) over the phase's pre-repair lots.
    exchangeability_alarm, covariate_alarm:
        Whether each sentinel fired during the phase.
    detection_latency:
        Labelled observations (post phase start) consumed before the
        first sentinel fired; ``None`` when no sentinel fired.
    repair:
        Recovery path taken: ``none`` (nothing to repair),
        ``weighted`` (density-ratio-weighted recalibration accepted),
        ``adaptive`` (online recalibration republished by the
        :class:`~repro.serve.recalibration.DriftRecalibrator`), or
        ``refused+refit`` (weighted repair refused on degenerate
        weights, recovered by a full refit on fresh labels).
    ess:
        Effective sample size of the accepted density-ratio weights
        (``None`` when no weighted repair was accepted).
    post_repair_coverage:
        Coverage on a held-out lot of the *same shifted distribution*
        served after the repair (``None`` for the control phase).
    state:
        Service readiness at phase end.
    """

    phase: str
    n_lots: int
    coverage: float
    mean_width: float
    exchangeability_alarm: bool
    covariate_alarm: bool
    detection_latency: Optional[int]
    repair: str
    ess: Optional[float]
    post_repair_coverage: Optional[float]
    state: str


@dataclass(frozen=True)
class ShiftStressReport:
    """Full audit of one distribution-shift campaign.

    ``report.ok()`` is the single pass/fail the CI smoke job asserts:
    the control phase must stay quiet at nominal coverage, every
    shifted phase must be detected within the latency budget and
    repaired back above ``target - tolerance``, no phase may fall
    below the worst-case floor, every downgrade must carry a reason
    code, and the service must end the campaign ``READY``.
    """

    target_coverage: float
    tolerance: float
    detection_budget: int
    worst_coverage_floor: float
    phases: Tuple[ShiftPhaseResult, ...]
    n_recalibrations: int
    n_versions: int
    downgrades: Tuple[Tuple[str, str], ...]
    final_state: str

    def phase(self, name: str) -> ShiftPhaseResult:
        """The result of one named phase."""
        for result in self.phases:
            if result.phase == name:
                return result
        raise KeyError(f"no phase named {name!r}")

    def ok(self) -> bool:
        """Whether every campaign invariant held."""
        floor = self.target_coverage - self.tolerance
        control = self.phase("control")
        new_fab = self.phase("new_fab")
        drift = self.phase("corner_drift")
        recal = self.phase("sensor_recal")
        detected = (
            new_fab.detection_latency is not None
            and new_fab.detection_latency <= self.detection_budget
            and recal.detection_latency is not None
            and recal.detection_latency <= self.detection_budget
        )
        repaired = (
            new_fab.repair == "weighted"
            and new_fab.post_repair_coverage is not None
            and new_fab.post_repair_coverage >= floor
            and drift.repair == "adaptive"
            and drift.post_repair_coverage is not None
            and drift.post_repair_coverage >= floor
            and recal.repair == "refused+refit"
            and recal.post_repair_coverage is not None
            and recal.post_repair_coverage >= floor
        )
        return (
            not control.exchangeability_alarm
            and not control.covariate_alarm
            and control.coverage >= floor
            and new_fab.exchangeability_alarm
            and new_fab.covariate_alarm
            and recal.covariate_alarm
            and not recal.exchangeability_alarm
            and detected
            and repaired
            and self.n_recalibrations >= 1
            and min(r.coverage for r in self.phases) >= self.worst_coverage_floor
            and all(reason for reason, _ in self.downgrades)
            and self.final_state == "ready"
        )

    def to_table(self, title: Optional[str] = None) -> str:
        """Monospace phase table plus the downgrade audit trail."""
        rows = [
            [
                r.phase,
                r.n_lots,
                r.coverage * 100.0,
                r.mean_width * 1e3,
                "yes" if r.exchangeability_alarm else "no",
                "yes" if r.covariate_alarm else "no",
                "-" if r.detection_latency is None else r.detection_latency,
                r.repair,
                "-" if r.ess is None else round(r.ess, 1),
                "-"
                if r.post_repair_coverage is None
                else round(r.post_repair_coverage * 100.0, 1),
                r.state,
            ]
            for r in self.phases
        ]
        table = format_table(
            [
                "Phase",
                "Lots",
                "Coverage (%)",
                "Len (mV)",
                "Exch",
                "Covar",
                "Latency",
                "Repair",
                "ESS",
                "Post (%)",
                "State",
            ],
            rows,
            title=title or "Distribution-shift campaign report",
        )
        audit = "\n".join(
            f"  [{reason}] {detail}" for reason, detail in self.downgrades
        )
        return table + "\nDowngrade audit:\n" + (audit or "  (none)")


def run_shift_campaign(
    registry_root: Union[str, Path],
    n_chips: int = 260,
    n_estimators: int = 60,
    corner_offset_v: float = 0.015,
    drift_v_per_khour: float = 0.003,
    drift_hours: Sequence[int] = (2000, 4000, 6000),
    recal_offset_sigma: float = 8.0,
    detector_stride: int = 8,
    ratio_stride: int = 16,
    ratio_ridge: float = 4.0,
    min_recal_labels: Optional[int] = None,
    batch_size: int = 65,
    alpha: float = 0.1,
    tolerance: float = 0.05,
    detection_budget: int = 150,
    worst_coverage_floor: float = 0.6,
    seed: int = 2024,
) -> ShiftStressReport:
    """Drive a guarded serving stack through three distribution shifts.

    Generates a multi-fab fleet with :class:`~repro.silicon.fleet.
    FleetGenerator` (one product, a reference fab, and a skewed fab at a
    ``corner_offset_v`` Vth process corner), trains a
    :class:`~repro.robust.flow.RobustVminFlow` on one reference lot,
    publishes it, and serves through a
    :class:`~repro.serve.service.VminServingService` carrying a
    :class:`~repro.serve.shiftguard.ShiftGuard`.  Four phases:

    1. **control** -- two fresh reference-fab lots (exchangeable with
       the training lot); every sentinel must stay quiet and coverage
       must hold at nominal -- the false-alarm baseline;
    2. **new_fab** -- a lot from the skewed fab: the exchangeability
       martingale and the covariate detector must both fire within the
       detection budget, the service must degrade under audited reason
       codes, and :meth:`~repro.serve.service.VminServingService.
       repair_shift` must restore coverage on a held-out skewed lot via
       weighted conformal recalibration;
    3. **corner_drift** -- the reference fab's corner drifts with
       calendar time (``drift_v_per_khour``); realized coverage decays
       across the drift lots, the coverage monitor alarms, and the
       :class:`~repro.serve.recalibration.DriftRecalibrator` must
       republish an adaptively recalibrated version that restores
       coverage at the drifted corner;
    4. **sensor_recal** -- a firmware re-referencing adds a constant
       ``recal_offset_sigma``-sigma offset to one ROD flavour: the
       covariate detector must fire while the martingale stays quiet
       (the labels still agree with the model -- only the features
       moved), the weighted repair must *refuse* on degenerate weights,
       and recovery comes from a full refit on the re-referenced lot.

    Label feedback streams in ``batch_size``-row batches (the ATE
    delivers sub-lot batches, and sentinel latency is only meaningful
    at that granularity).  ``min_recal_labels`` defaults to two and a
    half lots' worth of labels so the drift phase republishes exactly
    once, on the full drift evidence -- republishing eagerly mid-drift
    makes the online recalibration overshoot on its own wide margins.
    Everything is seeded; the same arguments reproduce the same report
    bit for bit.  Returns a :class:`ShiftStressReport`; ``report.ok()``
    is the single pass/fail the CI smoke job asserts.
    """
    # Deferred imports, mirroring run_serving_campaign: keep the eval
    # package importable without the serving stack.
    from repro.models.oblivious import ObliviousBoostingRegressor
    from repro.robust.flow import RobustVminFlow
    from repro.serve.health import ReasonCode
    from repro.serve.recalibration import DriftRecalibrator
    from repro.serve.registry import ModelRegistry
    from repro.serve.service import VminServingService
    from repro.serve.shiftguard import ShiftGuard
    from repro.shift import (
        CovariateShiftDetector,
        DegenerateWeightsError,
        LogisticDensityRatio,
    )
    from repro.silicon.fleet import (
        CornerDrift,
        FabProfile,
        FleetGenerator,
        ProcessCorner,
        ProductSpec,
    )

    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if min_recal_labels is None:
        # Two and a half lots of labels: the drift recalibrator then
        # republishes exactly once, at the end of the drift stream, with
        # the full excursion in its adaptive state.  Republishing after
        # every lot lets the next lot's feedback run against the freshly
        # widened intervals, and the Gibbs-Candes update then overshoots
        # (alpha_t climbs far above alpha on a pure over-coverage
        # stream, collapsing the following version's intervals).
        min_recal_labels = int(2.5 * n_chips)

    fleet = FleetGenerator(
        products=[ProductSpec("alpha", n_chips=n_chips)],
        fabs=[
            FabProfile(
                "ref",
                ProcessCorner("nominal"),
                drift=CornerDrift(vth_v_per_khour=drift_v_per_khour),
            ),
            FabProfile(
                "newfab", ProcessCorner("slow", vth_offset_v=corner_offset_v)
            ),
        ],
        seed=seed,
    )

    def lot_data(fab: str, hours: int = 0, lot_index: int = 0):
        """One generated lot as (lot, features, labels)."""
        lot = fleet.lot(
            "alpha",
            fab,
            calendar_hours=hours,
            lot_index=lot_index,
            read_points=(0,),
            temperatures=(25.0,),
        )
        features, _ = lot.dataset.features(0)
        return lot, features, lot.dataset.vmin[(25.0, 0)]

    train_lot, X_train, y_train = lot_data("ref", lot_index=0)
    feature_names = train_lot.dataset.features(0)[1]
    monitor_columns = np.asarray(
        [
            index
            for index, name in enumerate(feature_names)
            if not name.startswith("par_")
        ],
        dtype=np.int64,
    )
    f0_columns = np.asarray(
        [
            index
            for index, name in enumerate(feature_names)
            if name.startswith("rod_f0")
        ],
        dtype=np.int64,
    )
    ratio_columns = monitor_columns[::ratio_stride]

    def make_flow() -> RobustVminFlow:
        """The campaign's flow configuration (shared by train and refit)."""
        return RobustVminFlow(
            base_model=ObliviousBoostingRegressor(
                n_estimators=n_estimators,
                max_bins=16,
                quantile=0.5,
                random_state=0,
            ),
            alpha=alpha,
            random_state=0,
            monitor_window=40,
            monitor_min_observations=20,
        )

    flow = make_flow()
    flow.fit(
        X_train,
        y_train,
        feature_names=feature_names,
        monitor_columns=monitor_columns,
    )

    guard = ShiftGuard(
        detector=CovariateShiftDetector(
            psi_threshold=1.0, alarm_fraction=0.10, min_observations=40
        ),
        feature_columns=monitor_columns[::detector_stride],
    )
    registry = ModelRegistry(Path(registry_root))
    registry.publish(flow, reason="published", metadata={"phase": "bootstrap"})
    service = VminServingService(registry, shift_guard=guard)
    service.start()

    def ratio_estimator() -> LogisticDensityRatio:
        """A fresh density-ratio template per repair attempt."""
        return LogisticDensityRatio(ridge=ratio_ridge)

    def stream_observe(X, y, zones=None) -> None:
        """Feed label feedback in ATE-sized batches.

        Real test floors deliver labels a handful of wafers at a time,
        and sentinel detection latency is only meaningful at that
        granularity: the PSI detector evaluates once per ``observe``
        batch, so feeding a whole lot at once would quantise its latency
        to the lot size.
        """
        for start in range(0, len(y), batch_size):
            stop = start + batch_size
            service.observe(
                X[start:stop],
                y[start:stop],
                zones=None if zones is None else zones[start:stop],
            )

    def sentinel_latency(baseline: int) -> Optional[int]:
        """Observations past ``baseline`` before the first sentinel fired."""
        fired = []
        if guard.martingale_ is not None and guard.martingale_.alarms_:
            fired.append(guard.martingale_.alarms_[0].n_observed - baseline)
        if guard.detector_ is not None and guard.detector_.alarms_:
            fired.append(guard.detector_.alarms_[0].n_observed - baseline)
        eligible = [latency for latency in fired if latency > 0]
        return min(eligible) if eligible else None

    def reset_to_golden(phase: str) -> None:
        """Republish the pristine bundle and swap onto it (fresh guard).

        The service only ever mutates the *unpickled* copies it loads
        from the registry, so the in-process ``flow`` still holds the
        freshly fitted state; republishing it starts the next phase
        from a clean bundle with every sentinel re-baselined.
        """
        registry.publish(flow, reason="republished", metadata={"phase": phase})
        service.hot_swap()

    phases = []

    # Phase 1: control -- fresh reference lots, everything must stay quiet.
    control_coverages = []
    control_widths = []
    for lot_index in (1, 2):
        lot, X, y = lot_data("ref", lot_index=lot_index)
        result = service.score(X)
        control_coverages.append(result.prediction.coverage(y))
        control_widths.append(result.prediction.mean_width)
        stream_observe(X, y, zones=lot.zones(3))
    control_verdict = guard.verdict()
    phases.append(
        ShiftPhaseResult(
            phase="control",
            n_lots=2,
            coverage=float(min(control_coverages)),
            mean_width=float(np.mean(control_widths)),
            exchangeability_alarm=control_verdict.exchangeability_alarm,
            covariate_alarm=control_verdict.covariate_alarm,
            detection_latency=sentinel_latency(0),
            repair="none",
            ess=None,
            post_repair_coverage=None,
            state=service.state.value,
        )
    )

    # Phase 2: new fab -- both sentinels fire, weighted repair restores.
    phase_start = guard.n_observed_
    lot, X_shift, y_shift = lot_data("newfab", lot_index=0)
    result = service.score(X_shift)
    new_fab_coverage = result.prediction.coverage(y_shift)
    new_fab_width = result.prediction.mean_width
    stream_observe(X_shift, y_shift, zones=lot.zones(3))
    new_fab_verdict = guard.verdict()
    new_fab_latency = sentinel_latency(phase_start)
    ess: Optional[float] = None
    try:
        ess = service.repair_shift(
            X_shift,
            ratio_columns=ratio_columns,
            ratio_estimator=ratio_estimator(),
        )
        new_fab_repair = "weighted"
    except DegenerateWeightsError:
        new_fab_repair = "refused"
    _, X_held, y_held = lot_data("newfab", lot_index=1)
    new_fab_post = service.score(X_held).prediction.coverage(y_held)
    phases.append(
        ShiftPhaseResult(
            phase="new_fab",
            n_lots=1,
            coverage=float(new_fab_coverage),
            mean_width=float(new_fab_width),
            exchangeability_alarm=new_fab_verdict.exchangeability_alarm,
            covariate_alarm=new_fab_verdict.covariate_alarm,
            detection_latency=new_fab_latency,
            repair=new_fab_repair,
            ess=ess,
            post_repair_coverage=float(new_fab_post),
            state=service.state.value,
        )
    )

    # Phase 3: corner drift -- realized coverage decays with calendar
    # time; the coverage monitor alarms and the DriftRecalibrator must
    # republish an adaptively recalibrated version.
    reset_to_golden("corner_drift")
    recalibrator = DriftRecalibrator(service, min_labels=min_recal_labels)
    audit_start = len(service.health.transitions_)
    drift_coverages = []
    drift_widths = []
    for hours in drift_hours:
        _, X_drift, y_drift = lot_data("ref", hours=hours, lot_index=2)
        result = service.score(X_drift)
        drift_coverages.append(result.prediction.coverage(y_drift))
        drift_widths.append(result.prediction.mean_width)
        recalibrator.ingest(X_drift, y_drift)
    # A mid-phase republication re-arms (and thereby resets) the
    # sentinels, so the phase's alarm evidence is read from the
    # persistent health audit trail rather than the live guard.
    drift_records = service.health.transitions_[audit_start:]
    drift_exchangeability = any(
        record.reason is ReasonCode.EXCHANGEABILITY_ALARM
        for record in drift_records
    )
    drift_covariate = any(
        record.reason is ReasonCode.COVARIATE_SHIFT for record in drift_records
    )
    # Post-repair check at the drifted corner: the republished adaptive
    # flow must hold coverage where the stale bundle was failing.
    _, X_post, y_post = lot_data(
        "ref", hours=int(drift_hours[-1]), lot_index=3
    )
    drift_post = service.score(X_post).prediction.coverage(y_post)
    # The excursion is then corrected at the fab: recovery traffic from
    # the nominal corner brings the rolling coverage back to target.
    for lot_index in (4, 5):
        _, X_rec, y_rec = lot_data("ref", hours=0, lot_index=lot_index)
        service.score(X_rec)
        stream_observe(X_rec, y_rec)
    phases.append(
        ShiftPhaseResult(
            phase="corner_drift",
            n_lots=len(tuple(drift_hours)),
            coverage=float(min(drift_coverages)),
            mean_width=float(np.mean(drift_widths)),
            exchangeability_alarm=drift_exchangeability,
            covariate_alarm=drift_covariate,
            # Latency in observations is not well defined across the
            # mid-phase re-arm; the audit trail carries the ordering.
            detection_latency=None,
            repair=(
                "adaptive" if recalibrator.events_ else "none"
            ),
            ess=None,
            post_repair_coverage=float(drift_post),
            state=service.state.value,
        )
    )

    # Phase 4: sensor recalibration -- a constant re-referencing offset
    # on one ROD flavour.  Features move, labels do not: the covariate
    # detector must fire while the martingale stays quiet, the weighted
    # repair must refuse (degenerate weights), and recovery is a refit.
    reset_to_golden("sensor_recal")
    recal_offset = recal_offset_sigma * X_train[:, f0_columns].std(axis=0)
    recal_start = guard.n_observed_

    def recalibrated_lot(lot_index: int):
        """A reference lot with the f0 ROD block re-referenced."""
        lot, X, y = lot_data("ref", lot_index=lot_index)
        X = np.array(X)
        X[:, f0_columns] += recal_offset
        return lot, X, y

    lot, X_recal, y_recal = recalibrated_lot(6)
    result = service.score(X_recal)
    recal_coverage = result.prediction.coverage(y_recal)
    recal_width = result.prediction.mean_width
    stream_observe(X_recal, y_recal, zones=lot.zones(3))
    recal_verdict = guard.verdict()
    recal_latency = sentinel_latency(recal_start)
    recal_repair = "weighted"
    try:
        service.repair_shift(
            X_recal,
            ratio_columns=ratio_columns,
            ratio_estimator=ratio_estimator(),
        )
    except DegenerateWeightsError:
        # The honest path: refit on the re-referenced lot (labels are
        # in hand -- the same lot was just measured) and republish.
        refit = make_flow()
        refit.fit(
            X_recal,
            y_recal,
            feature_names=feature_names,
            monitor_columns=monitor_columns,
        )
        registry.publish(
            refit, reason="refit", metadata={"phase": "sensor_recal"}
        )
        service.hot_swap()
        recal_repair = "refused+refit"
    _, X_recal_held, y_recal_held = recalibrated_lot(7)
    recal_post = service.score(X_recal_held).prediction.coverage(
        y_recal_held
    )
    stream_observe(X_recal_held, y_recal_held)
    phases.append(
        ShiftPhaseResult(
            phase="sensor_recal",
            n_lots=1,
            coverage=float(recal_coverage),
            mean_width=float(recal_width),
            exchangeability_alarm=recal_verdict.exchangeability_alarm,
            covariate_alarm=recal_verdict.covariate_alarm,
            detection_latency=recal_latency,
            repair=recal_repair,
            ess=None,
            post_repair_coverage=float(recal_post),
            state=service.state.value,
        )
    )

    return ShiftStressReport(
        target_coverage=1.0 - float(alpha),
        tolerance=float(tolerance),
        detection_budget=int(detection_budget),
        worst_coverage_floor=float(worst_coverage_floor),
        phases=tuple(phases),
        n_recalibrations=len(recalibrator.events_),
        n_versions=len(registry.versions()),
        downgrades=tuple(
            (record.reason.value, record.detail)
            for record in service.health.downgrades()
        ),
        final_state=service.state.value,
    )
