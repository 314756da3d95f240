"""Tests for the fault-tolerant serving service.

Covers the four service contracts from the ISSUE: verified loading
through the fallback chain, admission control with typed shedding,
deadline/retry handling of transient scoring faults, and the label
feedback loop driving READY <-> DEGRADED.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.models import QuantileLinearRegression
from repro.robust import RobustVminFlow
from repro.robust.faults import TaskCrashFault
from repro.runtime import RetryPolicy, TaskTimeout
from repro.serve import (
    FallbackLevel,
    ModelRegistry,
    Overloaded,
    ReasonCode,
    RejectedRequest,
    ServiceState,
    ServingConfig,
    ServingResult,
    VminServingService,
)

N_PARAMETRIC = 4
N_MONITORS = 8
D = N_PARAMETRIC + N_MONITORS
PARAMETRIC = list(range(N_PARAMETRIC))
MONITORS = list(range(N_PARAMETRIC, D))
N_TRAIN = 200


def _make_data(n=400, seed=42):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, D))
    w = np.concatenate(
        [np.array([2.0, -1.0, 1.5, 1.0]), np.full(N_MONITORS, 0.3)]
    )
    y = X @ w + rng.normal(scale=0.5, size=n)
    return X, y


def _fit_flow(X, y, **kwargs):
    kwargs.setdefault("base_model", QuantileLinearRegression())
    kwargs.setdefault("alpha", 0.1)
    kwargs.setdefault("random_state", 0)
    return RobustVminFlow(**kwargs).fit(
        X[:N_TRAIN],
        y[:N_TRAIN],
        fallback_columns=PARAMETRIC,
        monitor_columns=MONITORS,
    )


def _corrupt_bundle(registry, name):
    bundle = registry.versions_dir / name / "bundle.pkl"
    bundle.write_bytes(b"\x00" * 64 + bundle.read_bytes()[64:])


@pytest.fixture(scope="module")
def lot():
    """One fitted flow plus its held-out batch, shared read-only."""
    X, y = _make_data()
    return _fit_flow(X, y), X[N_TRAIN:], y[N_TRAIN:]


def _service(tmp_path, flow, **kwargs):
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(flow)
    return VminServingService(registry, **kwargs)


class TestStartup:
    def test_clean_start_is_ready_on_current(self, tmp_path, lot):
        flow, Xh, _ = lot
        service = _service(tmp_path, flow)
        assert service.start() is ServiceState.READY
        assert service.fallback_level is FallbackLevel.CURRENT
        assert service.model_version == "v0001"
        assert "v0001" in service.verified_versions_
        assert service.health.history(ReasonCode.MODEL_VERIFIED)

    def test_empty_registry_without_fallback_stays_unready(self, tmp_path, lot):
        _, Xh, _ = lot
        service = VminServingService(ModelRegistry(tmp_path / "registry"))
        assert service.start() is ServiceState.STARTING
        assert service.fallback_level is FallbackLevel.REJECT
        with pytest.raises(RejectedRequest, match="not accepting"):
            service.score(Xh[:5])
        assert service.n_rejected_ == 1

    def test_empty_registry_serves_parametric_fallback(self, tmp_path, lot):
        flow, Xh, _ = lot
        service = VminServingService(
            ModelRegistry(tmp_path / "registry"), parametric_model=flow
        )
        assert service.start() is ServiceState.DEGRADED
        assert service.fallback_level is FallbackLevel.PARAMETRIC
        result = service.score(Xh[:10])
        assert result.model_version == "<parametric>"
        assert service.health.history(ReasonCode.PARAMETRIC_FALLBACK)

    def test_corrupt_latest_rolls_back_with_audit(self, tmp_path, lot):
        flow, _, _ = lot
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(flow)
        registry.publish(flow)
        _corrupt_bundle(registry, "v0002")
        service = VminServingService(registry)
        assert service.start() is ServiceState.DEGRADED
        assert service.model_version == "v0001"
        assert service.fallback_level is FallbackLevel.LAST_KNOWN_GOOD
        assert registry.quarantined() == ["v0002"]
        reasons = {record.reason for record in service.health.downgrades()}
        assert ReasonCode.ARTIFACT_CORRUPT in reasons
        assert ReasonCode.ROLLED_BACK in reasons
        # The corrupt version must never have entered the audit set.
        assert "v0002" not in service.verified_versions_


class TestScoring:
    def test_score_returns_provenance(self, tmp_path, lot):
        flow, Xh, _ = lot
        service = _service(tmp_path, flow)
        service.start()
        result = service.score(Xh[:25])
        assert isinstance(result, ServingResult)
        assert len(result.prediction) == 25
        assert result.model_version == "v0001"
        assert result.fallback_level is FallbackLevel.CURRENT
        assert result.state is ServiceState.READY
        assert result.attempts == 1
        assert result.wall_s >= 0.0
        assert result.model_version in service.verified_versions_
        assert service.n_served_ == 1

    def test_empty_batch_round_trips(self, tmp_path, lot):
        flow, _, _ = lot
        service = _service(tmp_path, flow)
        service.start()
        result = service.score(np.empty((0, D)))
        assert len(result.prediction) == 0

    def test_transient_faults_are_retried(self, tmp_path, lot):
        flow, Xh, _ = lot
        service = _service(
            tmp_path,
            flow,
            config=ServingConfig(
                retry_policy=RetryPolicy(
                    max_attempts=3, backoff_base=0.001, backoff_max=0.002, seed=0
                )
            ),
        )
        service.start()
        # Every request crashes once, then succeeds -- exactly the
        # WorkerCrash shape run_in_subprocess produces.
        service.task_wrapper = TaskCrashFault(
            fraction=1.0, n_failures=1, seed=0
        ).wrap
        result = service.score(Xh[:10])
        assert result.attempts == 2
        assert service.n_served_ == 1 and service.n_rejected_ == 0

    def test_deadline_expiry_rejects_without_retries(self, tmp_path, lot):
        flow, Xh, _ = lot
        service = _service(
            tmp_path, flow, config=ServingConfig(deadline_s=0.005)
        )
        service.start()

        def slow(fn):
            def worker(item):
                time.sleep(0.02)
                return fn(item)

            return worker

        service.task_wrapper = slow
        with pytest.raises(TaskTimeout):
            service.score(Xh[:5])
        assert service.n_rejected_ == 1

    def test_drain_stops_admission(self, tmp_path, lot):
        flow, Xh, _ = lot
        service = _service(tmp_path, flow)
        service.start()
        service.drain()
        assert service.state is ServiceState.DRAINING
        with pytest.raises(RejectedRequest):
            service.score(Xh[:5])
        service.drain()  # idempotent
        assert len(service.health.history(ReasonCode.DRAIN_REQUESTED)) == 1


class TestAdmissionControl:
    def test_overload_sheds_with_typed_error(self, tmp_path, lot):
        flow, Xh, _ = lot
        service = _service(
            tmp_path,
            flow,
            config=ServingConfig(
                max_in_flight=1, max_waiting=0, queue_timeout_s=0.05
            ),
        )
        service.start()
        in_flight = threading.Event()
        release = threading.Event()

        def blocking(fn):
            def worker(item):
                in_flight.set()
                assert release.wait(timeout=10.0)
                return fn(item)

            return worker

        service.task_wrapper = blocking
        holder = threading.Thread(target=service.score, args=(Xh[:5],))
        holder.start()
        try:
            assert in_flight.wait(timeout=10.0)
            with pytest.raises(Overloaded, match="in flight"):
                service.score(Xh[:5])
            assert service.n_overloaded_ == 1
        finally:
            release.set()
            holder.join(timeout=10.0)
        # The held request itself completed normally once released.
        assert service.n_served_ == 1

    @pytest.mark.parametrize(
        "config",
        [
            ServingConfig(max_in_flight=4, max_waiting=16, queue_timeout_s=30.0),
            ServingConfig(max_in_flight=1, max_waiting=0),
        ],
        ids=["queued", "shedding"],
    )
    def test_threaded_counts_are_exact_and_ids_unique(self, tmp_path, lot, config):
        """Concurrent requests: every outcome is counted exactly once and
        no two admitted requests share an id (the id seeds the retry
        jitter, so a shared id would share jitter too)."""
        flow, Xh, _ = lot
        service = _service(tmp_path, flow, config=config)
        service.start()
        ids = []
        ids_lock = threading.Lock()

        def recording(fn):
            def worker(item):
                with ids_lock:
                    ids.append(item)
                return fn(item)

            return worker

        service.task_wrapper = recording
        n_threads, per_thread = 8, 25
        outcomes = {"served": 0, "overloaded": 0}
        outcomes_lock = threading.Lock()
        start = threading.Barrier(n_threads)

        def client():
            start.wait()
            for _ in range(per_thread):
                try:
                    service.score(Xh[:2])
                    outcome = "served"
                except Overloaded:
                    outcome = "overloaded"
                with outcomes_lock:
                    outcomes[outcome] += 1

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave threads as often as possible
        try:
            threads = [threading.Thread(target=client) for _ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert outcomes["served"] + outcomes["overloaded"] == n_threads * per_thread
        assert service.n_served_ == outcomes["served"]
        assert service.n_overloaded_ == outcomes["overloaded"]
        assert service.n_rejected_ == 0
        assert sorted(ids) == list(range(outcomes["served"]))
        if config.max_waiting:
            assert outcomes["overloaded"] == 0

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_in_flight"):
            ServingConfig(max_in_flight=0)
        with pytest.raises(ValueError, match="max_waiting"):
            ServingConfig(max_waiting=-1)
        with pytest.raises(ValueError, match="queue_timeout_s"):
            ServingConfig(queue_timeout_s=-1.0)
        with pytest.raises(ValueError, match="deadline_s"):
            ServingConfig(deadline_s=0.0)


class TestHotSwap:
    def test_swap_picks_up_new_version(self, tmp_path, lot):
        flow, Xh, _ = lot
        service = _service(tmp_path, flow)
        service.start()
        service.registry.publish(flow, reason="retrained")
        assert service.hot_swap() == "v0002"
        assert service.state is ServiceState.READY
        assert service.score(Xh[:5]).model_version == "v0002"
        swaps = service.health.history(ReasonCode.HOT_SWAP)
        assert len(swaps) == 1 and "v0001 -> v0002" in swaps[0].detail

    def test_swap_onto_corrupt_latest_degrades_and_recovers(self, tmp_path, lot):
        flow, _, _ = lot
        service = _service(tmp_path, flow)
        service.start()
        service.registry.publish(flow)
        _corrupt_bundle(service.registry, "v0002")
        assert service.hot_swap() == "v0001"
        assert service.state is ServiceState.DEGRADED
        assert service.fallback_level is FallbackLevel.LAST_KNOWN_GOOD
        # A later good publish recovers the service on swap.  (The
        # corrupt v0002 sits in quarantine, so its number is reused.)
        recovered = service.registry.publish(flow).name
        assert recovered == "v0002"
        assert service.hot_swap() == recovered
        assert service.state is ServiceState.READY
        assert service.fallback_level is FallbackLevel.CURRENT

    def test_exhausted_registry_keeps_in_memory_model(self, tmp_path, lot):
        flow, Xh, _ = lot
        service = _service(tmp_path, flow)
        service.start()
        _corrupt_bundle(service.registry, "v0001")
        # The only on-disk version is corrupt, but the process still
        # holds a verified model: keep serving it rather than go dark.
        assert service.hot_swap() == "v0001"
        assert service.fallback_level is FallbackLevel.LAST_KNOWN_GOOD
        assert service.state is ServiceState.DEGRADED
        assert len(service.score(Xh[:5]).prediction) == 5

    def test_exhausted_registry_without_model_rejects(self, tmp_path):
        service = VminServingService(ModelRegistry(tmp_path / "registry"))
        service.start()
        with pytest.raises(RejectedRequest, match="no servable model"):
            service.hot_swap()


class TestFeedbackLoop:
    def test_alarm_degrades_and_recovery_promotes(self, tmp_path):
        X, y = _make_data(n=1000, seed=23)
        flow = _fit_flow(
            X, y, monitor_min_observations=10, monitor_window=20
        )
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(flow)
        service = VminServingService(registry)
        service.start()
        Xh, yh = X[N_TRAIN:], y[N_TRAIN:]

        # Shifted labels: coverage collapses, the monitor alarms, and
        # the service degrades with the alarm recorded as the reason.
        shifted = yh + 2.0
        for start in range(0, 200, 10):
            service.observe(Xh[start : start + 10], shifted[start : start + 10])
            if service.state is ServiceState.DEGRADED:
                break
        assert service.state is ServiceState.DEGRADED
        assert service.health.history(ReasonCode.COVERAGE_ALARM)

        # Clean labels after adaptive widening: coverage recovers and
        # the service promotes itself back to READY.
        for start in range(200, 800, 10):
            service.observe(Xh[start : start + 10], yh[start : start + 10])
            if service.state is ServiceState.READY:
                break
        assert service.state is ServiceState.READY
        recovered = service.health.history(ReasonCode.COVERAGE_RECOVERED)
        assert recovered and "coverage" in recovered[-1].detail

    def test_observe_zero_labels_is_noop(self, tmp_path, lot):
        flow, _, _ = lot
        service = _service(tmp_path, flow)
        service.start()
        assert service.observe(np.empty((0, D)), np.empty(0)) is None
        assert service.state is ServiceState.READY

    def test_observe_without_model_rejects(self, tmp_path):
        service = VminServingService(ModelRegistry(tmp_path / "registry"))
        service.start()
        with pytest.raises(RejectedRequest, match="observe"):
            service.observe(np.empty((0, D)), np.empty(0))
