"""A weighted shift repair serves the same floats whatever the alarms do.

The calibration slot's one rule: a coverage alarm turns the split CQR
into adaptive margins and an adaptive state stays adaptive, but a
weighted repair -- an explicit, audited operator action -- keeps serving
through later alarms.  So in either order (alarm then repair, repair
then alarm) the service serves exactly the intervals of a
:func:`~repro.shift.weighted_band_calibrator` built directly from the
flow's band, calibration scores, calibration features and the repair
batch, and after repair-then-alarm the recalibrator has no adaptive
state to republish, so no version is published and the shift guard the
repair disarmed stays disarmed.
"""

import numpy as np

from repro.models import QuantileLinearRegression
from repro.robust import DegradationStatus, RobustVminFlow
from repro.serve import (
    DriftRecalibrator,
    ModelRegistry,
    ShiftGuard,
    VminServingService,
)
from repro.shift import LogisticDensityRatio, weighted_band_calibrator

N_PARAMETRIC = 4
N_MONITORS = 8
D = N_PARAMETRIC + N_MONITORS
MONITORS = list(range(N_PARAMETRIC, D))
N_TRAIN = 400


def _make_data(n=1200, seed=42):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, D))
    w = np.concatenate(
        [np.array([2.0, -1.0, 1.5, 1.0]), np.full(N_MONITORS, 0.3)]
    )
    y = X @ w + rng.normal(scale=0.5, size=n)
    return X, y


def _ratio():
    return LogisticDensityRatio(ridge=4.0)


class TestRepairOrder:
    def _stack(self, tmp_path):
        X, y = _make_data()
        flow = RobustVminFlow(
            base_model=QuantileLinearRegression(),
            alpha=0.1,
            random_state=0,
            monitor_min_observations=10,
            monitor_window=20,
        ).fit(
            X[:N_TRAIN],
            y[:N_TRAIN],
            fallback_columns=list(range(N_PARAMETRIC)),
            monitor_columns=MONITORS,
        )
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(flow)
        guard = ShiftGuard()
        service = VminServingService(registry, shift_guard=guard)
        service.start()
        recalibrator = DriftRecalibrator(service, min_labels=50)
        Xh, yh = X[N_TRAIN:], y[N_TRAIN:]
        X_shift = Xh[600:720].copy()
        X_shift[:, MONITORS] += 0.4
        return service, guard, recalibrator, Xh, yh, X_shift

    def _stream(self, recalibrator, X, y, start, stop):
        for row in range(start, stop, 10):
            recalibrator.ingest(X[row : row + 10], y[row : row + 10])

    def _assert_serves_direct_repair(self, service, X_shift, X_test):
        model = service.served_model
        X_clean = model.imputer_.transform(X_shift, model.guard_.assess(X_shift))
        direct = weighted_band_calibrator(
            model.primary_.cqr_.band_,
            model.calibration_scores(),
            model.calibration_features(),
            X_clean,
            alpha=model.alpha,
            ratio_estimator=_ratio(),
            ratio_columns=model.monitor_columns_,
        )
        expected = direct.predict_interval(X_test)
        prediction = service.score(X_test).prediction
        assert prediction.status is DegradationStatus.OK
        assert np.array_equal(prediction.intervals.lower, expected.lower)
        assert np.array_equal(prediction.intervals.upper, expected.upper)
        assert any("weighted shift repair active" in n for n in prediction.notes)

    def test_alarm_then_repair(self, tmp_path):
        service, guard, recalibrator, Xh, yh, X_shift = self._stack(tmp_path)
        self._stream(recalibrator, Xh, yh + 2.0, 0, 100)
        assert service.served_model.adaptive_active
        service.repair_shift(X_shift, ratio_estimator=_ratio())
        self._assert_serves_direct_repair(service, X_shift, Xh[720:780])
        model = service.served_model
        versions = service.registry.versions()
        n_alarms = len(model.alarms_)
        # Coverage recovers on unshifted labels, then a second shift
        # alarms again: the repair keeps serving and nothing publishes.
        self._stream(recalibrator, Xh, yh, 100, 300)
        assert not model.monitor_.in_alarm_
        self._stream(recalibrator, Xh, yh + 2.0, 300, 600)
        assert len(model.alarms_) > n_alarms
        assert service.served_model is model
        assert service.registry.versions() == versions
        self._assert_serves_direct_repair(service, X_shift, Xh[720:780])

    def test_repair_then_alarm(self, tmp_path):
        service, guard, recalibrator, Xh, yh, X_shift = self._stack(tmp_path)
        service.repair_shift(X_shift, ratio_estimator=_ratio())
        assert not guard.armed
        self._assert_serves_direct_repair(service, X_shift, Xh[720:780])
        self._stream(recalibrator, Xh, yh + 2.0, 0, 600)
        assert service.served_model.alarms_
        assert recalibrator.events_ == []
        assert service.registry.versions() == ["v0001"]
        assert not guard.armed
        self._assert_serves_direct_repair(service, X_shift, Xh[720:780])
