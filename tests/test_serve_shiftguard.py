"""Tests for the serving-side shift guard and its service integration."""

import copy

import numpy as np
import pytest

from repro.models import QuantileLinearRegression
from repro.robust import RobustVminFlow
from repro.serve import (
    ModelRegistry,
    ReasonCode,
    RejectedRequest,
    ServiceState,
    ShiftGuard,
    VminServingService,
)
from repro.shift import DegenerateWeightsError, LogisticDensityRatio

N_PARAMETRIC = 4
N_MONITORS = 8
D = N_PARAMETRIC + N_MONITORS
PARAMETRIC = list(range(N_PARAMETRIC))
MONITORS = list(range(N_PARAMETRIC, D))
N_TRAIN = 400


def _make_data(n=700, seed=42):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, D))
    w = np.concatenate(
        [np.array([2.0, -1.0, 1.5, 1.0]), np.full(N_MONITORS, 0.3)]
    )
    y = X @ w + rng.normal(scale=0.5, size=n)
    return X, y


@pytest.fixture(scope="module")
def lot():
    """A fitted flow plus held-out exchangeable traffic, shared read-only."""
    X, y = _make_data()
    flow = RobustVminFlow(
        base_model=QuantileLinearRegression(), alpha=0.1, random_state=0
    ).fit(
        X[:N_TRAIN],
        y[:N_TRAIN],
        fallback_columns=PARAMETRIC,
        monitor_columns=MONITORS,
    )
    return flow, X[N_TRAIN:], y[N_TRAIN:]


def _scores(flow, X, y):
    """The primary-band scores the flow's labelled pass hands the guard
    (observed on a copy: the shared flow stays untouched)."""
    return copy.deepcopy(flow).observe(X, y).scores


def _service(tmp_path, flow, guard):
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(flow)
    service = VminServingService(registry, shift_guard=guard)
    service.start()
    return registry, service


class TestShiftGuardUnit:
    def test_arm_requires_fitted_flow(self):
        flow = RobustVminFlow(base_model=QuantileLinearRegression())
        with pytest.raises(RuntimeError, match="unfitted"):
            ShiftGuard().arm(flow)

    def test_observe_and_verdict_require_arm(self, lot):
        flow, Xh, yh = lot
        guard = ShiftGuard()
        with pytest.raises(RuntimeError, match="not armed"):
            guard.observe(flow, Xh[:10], yh[:10], np.zeros(10))
        with pytest.raises(RuntimeError, match="not armed"):
            guard.verdict()

    def test_feature_columns_bounds_checked(self, lot):
        flow, _, _ = lot
        with pytest.raises(ValueError, match="feature_columns"):
            ShiftGuard(feature_columns=[0, D]).arm(flow)
        with pytest.raises(ValueError, match="feature_columns"):
            ShiftGuard(feature_columns=[]).arm(flow)

    def test_scores_must_match_the_labels(self, lot):
        flow, Xh, yh = lot
        guard = ShiftGuard().arm(flow)
        with pytest.raises(ValueError, match="scores has shape"):
            guard.observe(flow, Xh[:10], yh[:10], np.zeros(9))

    def test_quiet_on_exchangeable_traffic(self, lot):
        flow, Xh, yh = lot
        guard = ShiftGuard().arm(flow)
        scores = _scores(flow, Xh[:150], yh[:150])
        verdict = guard.observe(flow, Xh[:150], yh[:150], scores)
        assert not verdict.any_alarm()
        assert verdict.n_observed == 150
        assert "quiet" in verdict.describe()

    def test_martingale_fires_on_label_shift(self, lot):
        flow, Xh, yh = lot
        guard = ShiftGuard().arm(flow)
        y_shift = yh[:200] + 5.0
        scores = _scores(flow, Xh[:200], y_shift)
        verdict = guard.observe(flow, Xh[:200], y_shift, scores)
        assert verdict.exchangeability_alarm
        assert "exchangeability rejected" in verdict.describe()

    def test_detector_fires_on_covariate_shift(self, lot):
        flow, Xh, yh = lot
        guard = ShiftGuard().arm(flow)
        X_shift = Xh[:100].copy()
        X_shift[:, MONITORS] += 3.0
        y_shift = yh[:100]
        scores = _scores(flow, X_shift, y_shift)
        verdict = guard.observe(flow, X_shift, y_shift, scores)
        assert verdict.covariate_alarm

    def test_zone_monitors_flag_the_undercovering_zone(self, lot):
        flow, Xh, yh = lot
        guard = ShiftGuard().arm(flow)
        zones = np.where(np.arange(120) % 2 == 0, "inner", "outer")
        # Push only the "inner" chips out of their intervals.
        y_bad = yh[:120].copy()
        y_bad[zones == "inner"] += 5.0
        scores = _scores(flow, Xh[:120], y_bad)
        verdict = guard.observe(flow, Xh[:120], y_bad, scores, zones=zones)
        assert verdict.zone_alarms == ("inner",)
        monitor = guard.zone_monitors_["inner"]
        assert (monitor.window, monitor.min_observations) == (40, 20)
        assert monitor.threshold == pytest.approx(0.9 - 0.10)
        coverage = guard.zone_coverage()
        assert coverage["inner"] < coverage["outer"]

    def test_disarm_and_rearm_reset_state(self, lot):
        flow, Xh, yh = lot
        guard = ShiftGuard().arm(flow)
        y_shift = yh[:200] + 5.0
        scores = _scores(flow, Xh[:200], y_shift)
        guard.observe(flow, Xh[:200], y_shift, scores)
        assert guard.verdict().any_alarm()
        guard.disarm()
        assert not guard.armed
        guard.arm(flow)
        assert not guard.verdict().any_alarm()
        assert guard.n_observed_ == 0


class TestServiceIntegration:
    def test_start_arms_the_guard(self, tmp_path, lot):
        flow, _, _ = lot
        guard = ShiftGuard()
        _service(tmp_path, flow, guard)
        assert guard.armed

    def test_exchangeability_alarm_degrades_with_reason(self, tmp_path, lot):
        flow, Xh, yh = lot
        guard = ShiftGuard()
        _, service = _service(tmp_path, flow, guard)
        service.observe(Xh[:200], yh[:200] + 5.0)
        assert service.state is ServiceState.DEGRADED
        reasons = {reason for reason, _ in (
            (r.reason, r.detail) for r in service.health.downgrades()
        )}
        assert ReasonCode.EXCHANGEABILITY_ALARM in reasons
        assert service.last_shift_verdict_.exchangeability_alarm

    def test_covariate_alarm_degrades_with_reason(self, tmp_path, lot):
        flow, Xh, yh = lot
        guard = ShiftGuard()
        _, service = _service(tmp_path, flow, guard)
        X_shift = Xh[:100].copy()
        X_shift[:, MONITORS] += 3.0
        # Labels consistent with the shifted features: only the
        # covariate detector has grounds to complain.
        w = np.concatenate(
            [np.array([2.0, -1.0, 1.5, 1.0]), np.full(N_MONITORS, 0.3)]
        )
        y_shift = X_shift @ w + np.random.default_rng(7).normal(
            scale=0.5, size=100
        )
        service.observe(X_shift, y_shift)
        reasons = {r.reason for r in service.health.downgrades()}
        assert ReasonCode.COVARIATE_SHIFT in reasons

    def test_new_alarms_are_audited_once(self, tmp_path, lot):
        flow, Xh, yh = lot
        guard = ShiftGuard()
        _, service = _service(tmp_path, flow, guard)
        service.observe(Xh[:200], yh[:200] + 5.0)
        service.observe(Xh[200:260], yh[200:260] + 5.0)
        entries = [
            r
            for r in service.health.transitions_
            if r.reason is ReasonCode.EXCHANGEABILITY_ALARM
        ]
        assert len(entries) == 1

    def test_recovery_blocked_while_shift_alarmed(self, tmp_path, lot):
        """Rolling coverage returning to target must NOT re-promote the
        service while an exchangeability alarm is latched."""
        flow, Xh, yh = lot
        guard = ShiftGuard()
        _, service = _service(tmp_path, flow, guard)
        service.observe(Xh[:200], yh[:200] + 5.0)
        assert service.state is ServiceState.DEGRADED
        # A long run of healthy labels clears the coverage monitor but
        # the martingale alarm is latched until re-arm.
        service.observe(Xh[200:299], yh[200:299])
        assert guard.verdict().exchangeability_alarm
        assert service.state is ServiceState.DEGRADED

    def test_repair_shift_requires_a_fitted_flow(self, tmp_path, lot):
        flow, Xh, _ = lot
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(flow)
        service = VminServingService(registry, shift_guard=ShiftGuard())
        with pytest.raises(RejectedRequest, match="nothing to repair"):
            service.repair_shift(Xh[:50])

    def test_repair_shift_success_restores_ready(self, tmp_path, lot):
        from repro.shift import CovariateShiftDetector

        flow, Xh, yh = lot
        # A detector template at the conventional PSI cut so the modest
        # (repairable) 0.4-sigma shift still pages.
        guard = ShiftGuard(
            detector=CovariateShiftDetector(
                psi_threshold=0.25, alarm_fraction=0.25, min_observations=40
            )
        )
        _, service = _service(tmp_path, flow, guard)
        X_shift = Xh[:120].copy()
        X_shift[:, MONITORS] += 0.4
        # Labels stay consistent with the shifted features: the coverage
        # monitor must remain clean so the covariate alarm alone drives
        # the downgrade (and the repair alone can lift it).
        w = np.concatenate(
            [np.array([2.0, -1.0, 1.5, 1.0]), np.full(N_MONITORS, 0.3)]
        )
        y_shift = X_shift @ w + np.random.default_rng(7).normal(
            scale=0.5, size=120
        )
        service.observe(X_shift[:100], y_shift[:100])
        assert service.state is ServiceState.DEGRADED
        assert service.last_shift_verdict_.covariate_alarm
        ess = service.repair_shift(
            X_shift,
            ratio_estimator=LogisticDensityRatio(ridge=4.0),
        )
        assert ess >= 10.0
        assert service.state is ServiceState.READY
        assert not guard.armed  # disarmed: the shift is now compensated
        assert service.last_shift_verdict_ is None
        notes = [
            r.detail
            for r in service.health.transitions_
            if r.reason is ReasonCode.RECALIBRATED
        ]
        assert any("weighted shift repair" in n for n in notes)

    def test_repair_shift_refusal_is_audited_and_raises(self, tmp_path, lot):
        flow, Xh, yh = lot
        guard = ShiftGuard()
        _, service = _service(tmp_path, flow, guard)
        X_far = Xh[:100].copy()
        X_far[:, MONITORS] += 1.5
        with pytest.raises(DegenerateWeightsError):
            service.repair_shift(X_far)
        details = [
            r.detail
            for r in service.health.transitions_
            if r.reason is ReasonCode.COVARIATE_SHIFT
        ]
        assert any("weighted repair refused" in d for d in details)
        served = service.served_model
        assert served.calibration_ is served.primary_.cqr_  # serving path untouched

    def test_hot_swap_rearms_after_repair(self, tmp_path, lot):
        flow, Xh, yh = lot
        guard = ShiftGuard()
        registry, service = _service(tmp_path, flow, guard)
        X_shift = Xh[:120].copy()
        X_shift[:, MONITORS] += 0.4
        service.repair_shift(X_shift, ratio_estimator=LogisticDensityRatio(ridge=4.0))
        assert not guard.armed
        registry.publish(flow, reason="refit")
        service.hot_swap()
        assert guard.armed
        assert service.last_shift_verdict_ is None


class TestCampaign:
    def test_shift_campaign_passes_end_to_end(self, tmp_path):
        """The committed operating point must detect every injected
        shift, repair (or refuse) correctly, and end READY."""
        from repro.eval.stress import run_shift_campaign

        report = run_shift_campaign(tmp_path / "registry")
        assert report.ok(), report.to_table()
        assert report.phase("control").detection_latency is None
        assert report.phase("new_fab").repair == "weighted"
        assert report.phase("corner_drift").repair == "adaptive"
        assert report.phase("sensor_recal").repair == "refused+refit"
        assert report.n_recalibrations >= 1
        # Every downgrade carries an audited reason and detail.
        assert all(reason and detail for reason, detail in report.downgrades)
