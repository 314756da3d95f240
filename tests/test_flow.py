"""Tests for the prediction pipeline, screening, and forecasting a later read point."""

import numpy as np
import pytest

from repro.core.intervals import PredictionIntervals
from repro.flow.pipeline import VminPredictionFlow
from repro.flow.screening import ScreeningDecision, SpecScreeningPolicy
from repro.models import LinearRegression, QuantileLinearRegression
from repro.silicon.constants import MIN_SPEC_V


class TestVminPredictionFlow:
    def test_end_to_end_coverage(self, lot):
        X, names = lot.features(0)
        y = lot.target(25.0, 0)
        flow = VminPredictionFlow(alpha=0.1, random_state=0)
        flow.fit(X[:120], y[:120], feature_names=names)
        intervals = flow.predict_interval(X[120:])
        assert intervals.coverage(y[120:]) >= 0.75
        assert intervals.mean_width < 0.1  # volts; sane scale

    def test_guaranteed_coverage_reported(self, lot):
        X, _ = lot.features(0)
        y = lot.target(25.0, 0)
        flow = VminPredictionFlow(alpha=0.1, random_state=0).fit(X[:100], y[:100])
        assert flow.guaranteed_coverage_ >= 0.9

    def test_conformal_correction_exposed(self, lot):
        X, _ = lot.features(0)
        y = lot.target(25.0, 0)
        flow = VminPredictionFlow(random_state=0).fit(X[:100], y[:100])
        low, high = flow.conformal_correction_
        assert np.isfinite(low) and np.isfinite(high)

    def test_rejects_non_quantile_base(self, lot):
        X, _ = lot.features(0)
        y = lot.target(25.0, 0)
        flow = VminPredictionFlow(base_model=LinearRegression())
        with pytest.raises(ValueError, match="quantile-capable"):
            flow.fit(X[:60], y[:60])

    def test_rejects_name_length_mismatch(self, lot):
        X, _ = lot.features(0)
        y = lot.target(25.0, 0)
        with pytest.raises(ValueError, match="feature names"):
            VminPredictionFlow().fit(X[:60], y[:60], feature_names=["a"])

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            VminPredictionFlow().predict_interval(np.zeros((2, 2)))


class TestScreening:
    def _intervals(self, lows, highs):
        return PredictionIntervals(np.asarray(lows), np.asarray(highs))

    def test_three_way_decision(self):
        spec = 0.7
        policy = SpecScreeningPolicy(min_spec_v=spec)
        intervals = self._intervals(
            [0.60, 0.71, 0.68], [0.65, 0.75, 0.72]
        )
        decisions = policy.decide(intervals)
        assert decisions[0] == ScreeningDecision.PASS
        assert decisions[1] == ScreeningDecision.FAIL
        assert decisions[2] == ScreeningDecision.RETEST

    def test_guard_band_makes_pass_stricter(self):
        policy = SpecScreeningPolicy(min_spec_v=0.7, guard_band_v=0.02)
        intervals = self._intervals([0.60], [0.69])
        assert policy.decide(intervals)[0] == ScreeningDecision.RETEST

    def test_outcome_accounting(self):
        policy = SpecScreeningPolicy(min_spec_v=0.7)
        intervals = self._intervals(
            [0.60, 0.71, 0.68, 0.55], [0.65, 0.75, 0.72, 0.62]
        )
        truth = np.array([0.63, 0.73, 0.71, 0.72])  # chip 3: passed but failing
        outcome = policy.screen(intervals, truth)
        assert outcome.count(ScreeningDecision.PASS) == 2
        assert outcome.count(ScreeningDecision.FAIL) == 1
        assert outcome.test_time_saved == pytest.approx(0.75)
        assert outcome.underkill == pytest.approx(1 / 3)
        assert outcome.overkill == 0.0

    def test_screen_on_real_flow(self, lot):
        X, _ = lot.features(0)
        y = lot.target(-45.0, 1008)
        X_t, _ = lot.features(1008)
        flow = VminPredictionFlow(alpha=0.1, random_state=0).fit(X_t[:120], y[:120])
        intervals = flow.predict_interval(X_t[120:])
        outcome = SpecScreeningPolicy(min_spec_v=MIN_SPEC_V).screen(
            intervals, y[120:]
        )
        # Screening must save some test time without huge misclassification.
        assert 0.0 <= outcome.underkill <= 1.0
        assert outcome.test_time_saved > 0.2

    def test_rejects_mismatched_truth(self):
        policy = SpecScreeningPolicy()
        intervals = self._intervals([0.6], [0.7])
        with pytest.raises(ValueError, match="shape"):
            policy.screen(intervals, np.zeros(3))

    def test_rejects_negative_guard_band(self):
        with pytest.raises(ValueError):
            SpecScreeningPolicy(guard_band_v=-0.01)


class TestForecastScenario:
    def test_forecastability_with_cqr(self, lot):
        """The headline extension: a calibrated interval on NEXT-read-point
        Vmin from current telemetry still covers."""
        from repro.core import ConformalizedQuantileRegressor
        from repro.features.selection import CFSSelectedRegressor

        X, _ = lot.features(168)
        y = lot.target(25.0, 504) * 1000.0
        template = CFSSelectedRegressor(
            QuantileLinearRegression(), k=8, quantile=0.5
        )
        cqr = ConformalizedQuantileRegressor(
            template, alpha=0.1, random_state=0
        ).fit(X[:117], y[:117])
        intervals = cqr.predict_interval(X[117:])
        assert intervals.coverage(y[117:]) >= 0.7
