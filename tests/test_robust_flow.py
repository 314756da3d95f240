"""Tests for the hardened serving flow and the stress harness.

Covers the three ISSUE acceptance criteria directly:

* ``RobustVminFlow.predict_interval`` never raises on value-level damage
  from any :class:`FaultCampaign` configuration,
* the stress harness shows coverage within 5 points of nominal under the
  dead-sensor campaign at <= 20 % sensor loss,
* the coverage monitor alarms and triggers online recalibration under an
  injected distribution shift.
"""

import numpy as np
import pytest

from repro.core.scores import cqr_score
from repro.eval.stress import StressReport, StressResult, run_fault_campaign
from repro.models import QuantileLinearRegression
from repro.models.base import NotFittedError
from repro.robust import (
    DegradationStatus,
    DegradedPrediction,
    FaultCampaign,
    RobustVminFlow,
)
from repro.robust.fallback import classify, inflation_factor

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


@pytest.fixture(scope="module")
def serving_stack():
    """A fitted flow plus a clean held-out lot.

    Module-scoped: the serving tests below only call the read-only
    ``predict*`` paths, so sharing one fit is safe.  Tests that stream
    observations (which mutate monitor state) fit their own flow.
    """
    X, y = _make_data()
    flow = _fit_flow(X, y)
    return flow, X[N_TRAIN:], y[N_TRAIN:]


class TestServing:
    def test_clean_batch_is_nominal(self, serving_stack):
        flow, Xh, yh = serving_stack
        prediction = flow.predict_interval(Xh)
        assert isinstance(prediction, DegradedPrediction)
        assert prediction.status is DegradationStatus.OK
        assert prediction.nominal
        assert prediction.inflation == 1.0
        assert not prediction.used_fallback
        assert prediction.coverage(yh) >= 0.8

    def test_never_raises_under_any_campaign(self, serving_stack):
        """Acceptance: value-level damage from any campaign config is
        served as a structured answer, never an exception."""
        flow, Xh, _ = serving_stack
        campaign = FaultCampaign.standard(severities=(0.1, 0.5, 1.0), seed=3)
        for scenario in campaign:
            prediction = flow.predict_interval(scenario.apply(Xh))
            assert isinstance(prediction, DegradedPrediction)
            assert len(prediction) == Xh.shape[0]
            assert np.isfinite(prediction.lower).all()
            assert np.isfinite(prediction.upper).all()
            assert np.all(prediction.upper >= prediction.lower)
            assert prediction.inflation >= 1.0

    def test_dead_monitor_block_uses_fallback(self, serving_stack):
        flow, Xh, yh = serving_stack
        damaged = Xh.copy()
        damaged[:, MONITORS] = np.nan
        prediction = flow.predict_interval(damaged)
        assert prediction.status is DegradationStatus.FALLBACK
        assert prediction.used_fallback
        assert np.isfinite(prediction.lower).all()
        assert prediction.coverage(yh) >= 0.7
        assert any("fallback model" in note for note in prediction.notes)

    def test_partial_damage_degrades_and_inflates(self, serving_stack):
        flow, Xh, _ = serving_stack
        clean_width = flow.predict_interval(Xh).mean_width
        damaged = Xh.copy()
        damaged[:, MONITORS[0]] = np.nan
        prediction = flow.predict_interval(damaged)
        assert prediction.status is DegradationStatus.DEGRADED
        assert not prediction.used_fallback
        assert prediction.inflation > 1.0
        assert prediction.mean_width > clean_width

    def test_row_dropout_charges_inflation(self, serving_stack):
        """Whole-row NaNs leave every column partly healthy; degradation
        must still be charged through the entry-level damage fraction."""
        flow, Xh, _ = serving_stack
        damaged = Xh.copy()
        damaged[: Xh.shape[0] // 2] = np.nan
        prediction = flow.predict_interval(damaged)
        assert prediction.status is not DegradationStatus.OK
        assert prediction.inflation > 1.0

    def test_no_fallback_model_caps_inflation(self):
        X, y = _make_data(seed=7)
        flow = RobustVminFlow(
            base_model=QuantileLinearRegression(), alpha=0.1, random_state=0
        ).fit(X[:N_TRAIN], y[:N_TRAIN])
        damaged = X[N_TRAIN:].copy()
        damaged[:, MONITORS] = np.nan
        prediction = flow.predict_interval(damaged)
        assert prediction.status is DegradationStatus.FALLBACK
        assert not prediction.used_fallback
        assert prediction.inflation == 3.0
        assert any("no fallback" in note for note in prediction.notes)

    def test_predict_is_interval_midpoint(self, serving_stack):
        flow, Xh, _ = serving_stack
        prediction = flow.predict_interval(Xh)
        np.testing.assert_allclose(
            flow.predict(Xh), (prediction.lower + prediction.upper) / 2.0
        )

    def test_structural_errors_still_raise(self, serving_stack):
        flow, Xh, _ = serving_stack
        with pytest.raises(ValueError, match="features"):
            flow.predict_interval(Xh[:, :5])
        with pytest.raises(ValueError, match="2-D"):
            flow.predict_interval(Xh[0])

    def test_unfitted_raises(self, serving_stack):
        _, Xh, _ = serving_stack
        with pytest.raises(NotFittedError):
            RobustVminFlow().predict_interval(Xh)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            RobustVminFlow(alpha=1.5)
        with pytest.raises(ValueError, match="gamma"):
            RobustVminFlow(gamma=-0.1)

    def test_fit_validates_column_groups(self):
        X, y = _make_data(n=N_TRAIN + 1, seed=1)
        with pytest.raises(ValueError, match="fallback_columns"):
            RobustVminFlow(base_model=QuantileLinearRegression()).fit(
                X, y, fallback_columns=[99]
            )
        with pytest.raises(ValueError, match="monitor_columns"):
            RobustVminFlow(base_model=QuantileLinearRegression()).fit(
                X, y, monitor_columns=[-1]
            )

    def test_guaranteed_coverage_passthrough(self, serving_stack):
        flow, _, _ = serving_stack
        assert flow.guaranteed_coverage_ >= 1.0 - flow.alpha


class TestDegradationSchedule:
    """The degradation schedule at its edges, one row per rule; the
    baseline any replacement schedule is compared against."""

    TINY = np.nextafter(0.0, 1.0)  # the least damage there is
    JUST_UNDER = np.nextafter(0.3, 0.0)  # monitor damage short of fallback

    @pytest.mark.parametrize(
        "damage, monitor_damage, status",
        [
            (0.0, 0.0, DegradationStatus.OK),
            (TINY, 0.0, DegradationStatus.DEGRADED),
            (0.55, 0.0, DegradationStatus.DEGRADED),
            (0.2, JUST_UNDER, DegradationStatus.DEGRADED),
            (0.3, 0.3, DegradationStatus.FALLBACK),
            (1.0, 1.0, DegradationStatus.FALLBACK),
        ],
    )
    def test_status_and_inflation(self, damage, monitor_damage, status):
        assert classify(damage, monitor_damage) is status
        assert inflation_factor(damage) == 1.0 + 1.5 * damage

    @pytest.mark.parametrize("fallback", ["damaged", "absent"])
    def test_maximum_inflation_without_a_usable_fallback(self, fallback):
        X, y = _make_data(seed=7)
        damaged = X[N_TRAIN:].copy()
        damaged[:, MONITORS] = np.nan
        if fallback == "damaged":
            flow = _fit_flow(X, y)
            damaged[:, PARAMETRIC] = np.nan
        else:
            flow = RobustVminFlow(
                base_model=QuantileLinearRegression(), alpha=0.1, random_state=0
            ).fit(X[:N_TRAIN], y[:N_TRAIN], monitor_columns=MONITORS)
        prediction = flow.predict_interval(damaged)
        assert prediction.status is DegradationStatus.FALLBACK
        assert not prediction.used_fallback
        assert prediction.inflation == 3.0


class TestServingEdgeCases:
    """Batch shapes a serving layer legitimately produces must be no-ops."""

    def test_empty_batch_serves_zero_intervals(self, serving_stack):
        flow, Xh, _ = serving_stack
        prediction = flow.predict_interval(np.empty((0, D)))
        assert isinstance(prediction, DegradedPrediction)
        assert len(prediction) == 0
        assert prediction.status is DegradationStatus.OK
        assert prediction.lower.shape == prediction.upper.shape == (0,)
        assert any("empty batch" in note for note in prediction.notes)

    def test_empty_batch_with_wrong_width_still_raises(self, serving_stack):
        # Zero rows do not excuse a structural error: the column count
        # is an integration contract, checked before the no-op path.
        flow, _, _ = serving_stack
        with pytest.raises(ValueError, match="features"):
            flow.predict_interval(np.empty((0, D - 1)))

    def test_fully_damaged_batch_still_answers(self, serving_stack):
        flow, Xh, _ = serving_stack
        damaged = np.full_like(Xh, np.nan)
        prediction = flow.predict_interval(damaged)
        assert len(prediction) == Xh.shape[0]
        assert np.isfinite(prediction.lower).all()
        assert np.isfinite(prediction.upper).all()
        assert prediction.status is not DegradationStatus.OK
        assert prediction.inflation > 1.0

    def test_observe_zero_labels_is_noop(self):
        X, y = _make_data(seed=5)
        flow = _fit_flow(X, y)
        before = flow.monitor_.n_observed
        observed = flow.observe(np.empty((0, D)), np.empty(0))
        assert observed.alarm is None
        assert observed.scores.shape == (0,)
        assert flow.monitor_.n_observed == before
        assert flow.recalibrations_ == 0
        assert not flow.adaptive_active

    def test_zero_row_conformity_scores(self, serving_stack):
        """An empty labelled batch scores to nothing instead of raising
        (the guard used to average over zero rows)."""
        flow, Xh, yh = serving_stack
        assert flow.observe(Xh[:0], yh[:0]).scores.shape == (0,)
        report = flow.guard_.assess(Xh[:0])
        assert report.healthy and report.unhealthy.shape == (D,)

    def test_observe_returns_the_conformity_scores(self):
        """One labelled pass: the scores observe hands on are the CQR
        scores of the sanitized batch against the primary band, before
        and after adaptation."""
        X, y = _make_data(seed=23)
        flow = _fit_flow(X, y, monitor_min_observations=10, monitor_window=20)
        Xh, yh = X[N_TRAIN:].copy(), y[N_TRAIN:] + 2.0
        Xh[::7, 5] = np.nan  # damaged entries go through the same sanitize
        band = flow.primary_.cqr_.band_
        for start in range(0, 200, 10):
            rows = slice(start, start + 10)
            X_clean = flow.imputer_.transform(Xh[rows], flow.guard_.assess(Xh[rows]))
            expected = cqr_score(yh[rows], *band.predict_interval(X_clean))
            assert np.array_equal(flow.observe(Xh[rows], yh[rows]).scores, expected)
        assert flow.adaptive_active


class TestObserveAndRecalibration:
    def test_healthy_stream_stays_quiet(self):
        X, y = _make_data(seed=11)
        flow = _fit_flow(X, y, monitor_min_observations=10, monitor_window=20)
        Xh, yh = X[N_TRAIN:], y[N_TRAIN:]
        for start in range(0, 100, 10):
            observed = flow.observe(Xh[start : start + 10], yh[start : start + 10])
            assert observed.alarm is None
        assert flow.alarms_ == []
        assert not flow.adaptive_active
        assert flow.rolling_coverage() >= 0.8

    def test_shift_triggers_alarm_and_recalibration(self):
        """Acceptance: injected distribution shift -> alarm -> online
        recalibration widens the served band and coverage recovers."""
        X, y = _make_data(seed=23)
        flow = _fit_flow(X, y, monitor_min_observations=10, monitor_window=20)
        Xh, yh = X[N_TRAIN:], y[N_TRAIN:] + 2.0  # strong upward Vmin shift

        width_before = flow.predict_interval(Xh).mean_width
        alarms = []
        for start in range(0, 200, 10):
            alarm = flow.observe(Xh[start : start + 10], yh[start : start + 10]).alarm
            if alarm is not None:
                alarms.append(alarm)
        assert alarms, "coverage monitor never alarmed under a 2 V shift"
        assert flow.adaptive_active
        assert flow.recalibrations_ >= 1
        # Gibbs-Candes: sustained misses pushed alpha_t below nominal at
        # some point (it drifts back up once coverage recovers).
        assert min(flow.calibration_.alpha_history_) < flow.alpha
        after = flow.predict_interval(Xh)
        assert after.mean_width > width_before
        assert any("recalibration" in note for note in after.notes)
        # Recalibration must actually win coverage back on the shifted stream.
        assert flow.rolling_coverage() >= 0.6

    def test_observe_validates_labels(self):
        X, y = _make_data(seed=31)
        flow = _fit_flow(X, y)
        Xh, yh = X[N_TRAIN:], y[N_TRAIN:]
        with pytest.raises(ValueError, match="NaN or infinite"):
            flow.observe(Xh[:5], np.array([1.0, np.nan, 1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="inconsistent lengths"):
            flow.observe(Xh[:5], yh[:4])
        with pytest.raises(ValueError, match="1-D"):
            flow.observe(Xh[:5], yh[:5].reshape(-1, 1))


class TestStressHarness:
    def test_dead_sensor_campaign_within_five_points(self, serving_stack):
        """Acceptance: <= 20 % dead sensors costs <= 5 coverage points."""
        flow, Xh, yh = serving_stack
        campaign = FaultCampaign.standard(
            severities=(0.05, 0.1, 0.2), columns=MONITORS, seed=1
        )
        dead_only = [s for s in campaign if s.name == "dead_sensors"]
        assert len(dead_only) == 3
        report = run_fault_campaign(flow, Xh, yh, dead_only)
        assert report.coverage_drop("dead_sensors") <= 0.05

    def test_report_structure(self, serving_stack):
        flow, Xh, yh = serving_stack
        campaign = FaultCampaign.standard(severities=(0.1,), seed=2)
        report = run_fault_campaign(flow, Xh, yh, campaign)
        assert isinstance(report, StressReport)
        assert len(report.results) == len(campaign)
        assert all(isinstance(r, StressResult) for r in report.results)
        assert 0.0 <= report.nominal_coverage <= 1.0
        assert report.nominal_width > 0.0
        for result in report.results:
            assert 0.0 <= result.coverage <= 1.0
            assert result.mean_width > 0.0
            assert result.inflation >= 1.0

    def test_report_table_lists_every_scenario(self, serving_stack):
        flow, Xh, yh = serving_stack
        campaign = FaultCampaign.standard(severities=(0.1,), seed=2)
        table = run_fault_campaign(flow, Xh, yh, campaign).to_table()
        assert "(nominal)" in table
        for scenario in campaign:
            assert scenario.name in table

    def test_worst_coverage_prefix_filter(self, serving_stack):
        flow, Xh, yh = serving_stack
        campaign = FaultCampaign.standard(severities=(0.1,), seed=2)
        report = run_fault_campaign(flow, Xh, yh, campaign)
        assert report.worst_coverage("dead_sensors") >= report.worst_coverage()
        with pytest.raises(ValueError, match="no scenario matches"):
            report.worst_coverage("nonexistent")

    def test_rejects_mismatched_inputs(self, serving_stack):
        flow, Xh, yh = serving_stack
        with pytest.raises(ValueError, match="matching"):
            run_fault_campaign(flow, Xh, yh[:-1], [])
