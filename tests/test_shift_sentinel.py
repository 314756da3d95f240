"""Tests for the exchangeability and covariate-shift sentinels."""

import numpy as np
import pytest

from repro.shift import (
    ConformalTestMartingale,
    CovariateShiftDetector,
)


def _scores(rng, n, loc=0.0):
    return rng.normal(loc=loc, scale=1.0, size=n)


class TestMartingale:
    def test_observe_before_arm_raises(self):
        with pytest.raises(RuntimeError):
            ConformalTestMartingale().observe([0.0])

    def test_arm_validates_reference(self):
        sentinel = ConformalTestMartingale()
        with pytest.raises(ValueError, match="non-empty"):
            sentinel.arm([])
        with pytest.raises(ValueError, match="finite"):
            sentinel.arm([1.0, np.nan])

    def test_quiet_on_exchangeable_stream(self, rng):
        sentinel = ConformalTestMartingale(random_state=0).arm(
            _scores(rng, 200)
        )
        alarm = sentinel.observe(_scores(rng, 400))
        assert alarm is None
        assert not sentinel.in_alarm_
        assert sentinel.alarms_ == []

    def test_alarms_on_shifted_stream(self, rng):
        sentinel = ConformalTestMartingale(random_state=0).arm(
            _scores(rng, 200)
        )
        alarm = sentinel.observe(_scores(rng, 300, loc=3.0))
        assert alarm is not None
        assert sentinel.in_alarm_
        assert alarm.threshold == 100.0
        assert alarm.log10_martingale >= 2.0
        assert 0 < alarm.n_observed <= 300
        assert "exchangeability rejected" in alarm.describe()

    def test_alarm_is_latched_and_recorded_once(self, rng):
        sentinel = ConformalTestMartingale(random_state=0).arm(
            _scores(rng, 200)
        )
        sentinel.observe(_scores(rng, 300, loc=3.0))
        sentinel.observe(_scores(rng, 100, loc=3.0))
        assert sentinel.in_alarm_
        assert len(sentinel.alarms_) == 1

    def test_rearm_resets_state(self, rng):
        sentinel = ConformalTestMartingale(random_state=0).arm(
            _scores(rng, 200)
        )
        sentinel.observe(_scores(rng, 300, loc=3.0))
        assert sentinel.in_alarm_
        sentinel.arm(_scores(rng, 200))
        assert not sentinel.in_alarm_
        assert sentinel.alarms_ == []
        assert sentinel.n_observed_ == 0
        assert sentinel.log10_martingale_ == pytest.approx(0.0)

    def test_trajectory_is_deterministic(self):
        histories = []
        for _ in range(2):
            rng = np.random.default_rng(7)
            sentinel = ConformalTestMartingale(random_state=3).arm(
                _scores(rng, 150)
            )
            sentinel.observe(_scores(rng, 250, loc=1.0))
            histories.append(list(sentinel.log10_history_))
        assert histories[0] == histories[1]

    def test_rejects_non_finite_scores(self, rng):
        sentinel = ConformalTestMartingale(random_state=0).arm(
            _scores(rng, 100)
        )
        with pytest.raises(ValueError, match="finite"):
            sentinel.observe([np.inf])


class TestDetector:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"psi_threshold": -1.0},
            {"min_observations": 201},  # more rows than the 200-row window
            {"psi_threshold": 0.0},
            {"alarm_fraction": 0.0},
            {"alarm_fraction": 1.5},
            {"min_observations": 0},
            {"psi_threshold": float("nan")},
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            CovariateShiftDetector(**kwargs)

    def test_arm_validates_reference(self, rng):
        detector = CovariateShiftDetector()
        with pytest.raises(ValueError, match="2-D"):
            detector.arm(rng.normal(size=50))
        with pytest.raises(ValueError, match="one row per PSI bin"):
            detector.arm(rng.normal(size=(5, 3)))
        bad = rng.normal(size=(100, 3))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            detector.arm(bad)
        with pytest.raises(ValueError, match="feature_names"):
            CovariateShiftDetector(feature_names=["a"]).arm(
                rng.normal(size=(100, 3))
            )

    def test_quiet_on_same_distribution(self, rng):
        detector = CovariateShiftDetector(min_observations=50).arm(
            rng.normal(size=(300, 4))
        )
        alarm = detector.observe(rng.normal(size=(200, 4)))
        assert alarm is None
        assert not detector.in_alarm_
        assert np.all(detector.psi() < 0.25)

    def test_alarms_on_mean_shift(self, rng):
        detector = CovariateShiftDetector(
            min_observations=50, feature_names=["a", "b", "c", "d"]
        ).arm(rng.normal(size=(300, 4)))
        alarm = detector.observe(rng.normal(loc=2.0, size=(200, 4)))
        assert alarm is not None
        assert detector.in_alarm_
        assert alarm.fraction_flagged == 1.0
        names = [name for name, _ in alarm.top_features]
        assert set(names) <= {"a", "b", "c", "d"}
        assert "covariate shift" in alarm.describe()

    def test_psi_requires_min_observations(self, rng):
        detector = CovariateShiftDetector(min_observations=50).arm(
            rng.normal(size=(300, 2))
        )
        detector.observe(rng.normal(size=(10, 2)))
        with pytest.raises(RuntimeError, match="window rows"):
            detector.psi()
        with pytest.raises(RuntimeError, match="window rows"):
            detector.ks()

    def test_ks_ranks_the_shifted_feature_first(self, rng):
        detector = CovariateShiftDetector(min_observations=50).arm(
            rng.normal(size=(300, 3))
        )
        current = rng.normal(size=(200, 3))
        current[:, 1] += 3.0
        detector.observe(current)
        ks = detector.ks()
        assert int(np.argmax(ks)) == 1
        assert ks[1] > 0.8

    def test_alarm_latched_and_rearm_resets(self, rng):
        detector = CovariateShiftDetector(min_observations=50).arm(
            rng.normal(size=(300, 2))
        )
        detector.observe(rng.normal(loc=2.0, size=(100, 2)))
        # Even a return to the reference distribution keeps the latch.
        detector.observe(rng.normal(size=(400, 2)))
        assert detector.in_alarm_
        assert len(detector.alarms_) == 1
        detector.arm(rng.normal(size=(300, 2)))
        assert not detector.in_alarm_
        assert detector.n_observed_ == 0

    def test_observe_validates_batches(self, rng):
        detector = CovariateShiftDetector().arm(rng.normal(size=(300, 2)))
        with pytest.raises(ValueError, match="2-D"):
            detector.observe(rng.normal(size=10))
        with pytest.raises(ValueError, match="features"):
            detector.observe(rng.normal(size=(10, 5)))
        with pytest.raises(ValueError, match="finite"):
            detector.observe(np.full((5, 2), np.nan))
