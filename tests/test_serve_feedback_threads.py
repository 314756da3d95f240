"""Label feedback beside concurrent scoring: one calibration state per read.

:meth:`VminServingService.observe` swaps the next calibration into the
served flow with one assignment, and feedback calls run one at a time.
A request therefore serves from exactly one state that a whole
``observe`` left behind -- never from a batch half applied -- and two
feedback calls never build from the same state.  A republication runs
among the feedback calls too, so every published bundle holds the state
its manifest describes.  The switch interval is shortened so the
threads interleave as often as the interpreter allows.
"""

import pickle
import sys
import threading

import numpy as np

from repro.core.adaptive import AdaptiveConformalPredictor
from repro.models import QuantileLinearRegression
from repro.robust import RobustVminFlow
from repro.serve import DriftRecalibrator, ModelRegistry, VminServingService

N_PARAMETRIC = 4
N_MONITORS = 8
D = N_PARAMETRIC + N_MONITORS
N_TRAIN = 200


def _make_data(n=600, seed=23):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, D))
    w = np.concatenate(
        [np.array([2.0, -1.0, 1.5, 1.0]), np.full(N_MONITORS, 0.3)]
    )
    y = X @ w + rng.normal(scale=0.5, size=n)
    return X, y


def _fit_flow(X, y, **kwargs):
    return RobustVminFlow(
        base_model=QuantileLinearRegression(),
        alpha=0.1,
        random_state=0,
        monitor_min_observations=10,
        monitor_window=20,
        **kwargs,
    ).fit(
        X[:N_TRAIN],
        y[:N_TRAIN],
        fallback_columns=list(range(N_PARAMETRIC)),
        monitor_columns=list(range(N_PARAMETRIC, D)),
    )


def _drive_to_adaptive(observe, X, y, batch=10):
    """Stream shifted labels until a coverage alarm; return rows used."""
    for start in range(0, X.shape[0], batch):
        if observe(X[start : start + batch], y[start : start + batch] + 2.0):
            return start + batch
    raise AssertionError("a 2 V label shift never raised a coverage alarm")


def _adaptive_service(tmp_path, **kwargs):
    X, y = _make_data()
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(_fit_flow(X, y, **kwargs))
    service = VminServingService(registry)
    service.start()
    Xh, yh = X[N_TRAIN:], y[N_TRAIN:]
    used = _drive_to_adaptive(service.observe, Xh, yh)
    assert service.served_model.adaptive_active
    return service, Xh[used:], yh[used:] + 2.0


def _run_threads(targets):
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave threads as often as possible
    try:
        threads = [threading.Thread(target=target) for target in targets]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)


def _same(a, b):
    return np.array_equal(a.lower, b.lower) and np.array_equal(a.upper, b.upper)


class TestScoringBesideFeedback:
    def test_every_served_interval_is_a_whole_observe_state(self, tmp_path):
        service, X_stream, y_stream = _adaptive_service(tmp_path)
        model = service.served_model
        X_fixed = X_stream[:4]
        # The states a whole observe left behind, recorded by the one
        # thread that moves them, right after each observe returns.
        states = [model.predict_interval(X_fixed).intervals]
        served = []
        done = threading.Event()

        def feeder():
            try:
                for _ in range(5):
                    for start in range(0, X_stream.shape[0] - 39, 40):
                        rows = slice(start, start + 40)
                        service.observe(X_stream[rows], y_stream[rows])
                        states.append(model.predict_interval(X_fixed).intervals)
            finally:
                done.set()

        def scorer():
            while not done.is_set():
                served.append(service.score(X_fixed).prediction.intervals)

        _run_threads([feeder, scorer, scorer])
        assert len(served) > 50
        # Feedback really moved the served margins from state to state.
        assert sum(not _same(a, b) for a, b in zip(states, states[1:])) > 20
        torn = [s for s in served if not any(_same(s, state) for state in states)]
        assert not torn, f"{len(torn)} of {len(served)} served intervals torn"


class TestSerializedFeedback:
    def test_concurrent_observes_equal_a_serial_order(self, tmp_path):
        # A bounded window makes the kept scores depend on the order too.
        service, X_stream, y_stream = _adaptive_service(
            tmp_path, adaptation_window=60
        )
        model = service.served_model
        for offset in (0.0, -0.5, -1.0, -1.5):
            batches = [
                (X_stream[:150], y_stream[:150] + offset),
                (X_stream[150:300], y_stream[150:300] - 1.0),
            ]
            serial = []
            for order in ((0, 1), (1, 0)):
                replica = pickle.loads(pickle.dumps(model))
                for index in order:
                    replica.observe(*batches[index])
                serial.append(replica)
            start = threading.Barrier(len(batches))

            def feeder(batch):
                start.wait()
                service.observe(*batch)

            _run_threads([lambda b=b: feeder(b) for b in batches])
            final = model.calibration_
            assert isinstance(final, AdaptiveConformalPredictor)
            assert any(
                final.alpha_t == replica.calibration_.alpha_t
                and final.alpha_history_ == replica.calibration_.alpha_history_
                and np.array_equal(
                    final._current_scores(), replica.calibration_._current_scores()
                )
                and model.rolling_coverage() == replica.rolling_coverage()
                for replica in serial
            )


class TestRepublishBesideFeedback:
    def test_every_manifest_alpha_t_is_its_own_bundles(self, tmp_path):
        service, X_stream, y_stream = _adaptive_service(tmp_path)
        recalibrator = DriftRecalibrator(service, min_labels=1)
        done = threading.Event()

        def feeder():
            while not done.is_set():
                for start in range(0, X_stream.shape[0] - 39, 40):
                    rows = slice(start, start + 40)
                    service.observe(X_stream[rows], y_stream[rows])
                    if done.is_set():
                        break

        def republisher():
            try:
                for row in range(40):
                    rows = slice(row, row + 1)
                    recalibrator.ingest(X_stream[rows], y_stream[rows])
            finally:
                done.set()

        _run_threads([feeder, republisher])
        registry = service.registry
        republished = [
            registry.describe(name)
            for name in registry.versions()
            if registry.describe(name).reason == "recalibrated"
        ]
        assert len(republished) == 40
        wrong = [
            record.name
            for record in republished
            if registry.load(record.name)[0].calibration_.alpha_t
            != record.manifest["metadata"]["alpha_t"]
        ]
        assert not wrong, f"{len(wrong)} of 40 manifests describe another state"


class TestPublishedBundles:
    def test_bundle_before_any_alarm_holds_no_adaptive_state(self):
        X, y = _make_data()
        flow = _fit_flow(X, y)
        bundle = pickle.dumps(flow)
        assert b"AdaptiveConformalPredictor" not in bundle
        loaded = pickle.loads(bundle)
        assert loaded.calibration_ is loaded.primary_.cqr_

    def test_bundle_after_an_alarm_serves_the_same_floats(self, tmp_path):
        X, y = _make_data()
        flow = _fit_flow(X, y)
        Xh, yh = X[N_TRAIN:], y[N_TRAIN:]
        used = _drive_to_adaptive(lambda Xb, yb: flow.observe(Xb, yb).alarm, Xh, yh)
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(flow, reason="recalibrated")
        loaded, _ = registry.load()
        assert isinstance(loaded.calibration_, AdaptiveConformalPredictor)
        X_next, y_next = Xh[used : used + 10], yh[used : used + 10] + 2.0
        for model in (flow, loaded):
            model.observe(X_next, y_next)
        expected = flow.predict_interval(Xh)
        served = loaded.predict_interval(Xh)
        assert _same(served.intervals, expected.intervals)
        assert served.notes == expected.notes
        assert any("online recalibration active" in n for n in served.notes)
