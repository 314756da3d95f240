"""Tests for split conformal prediction."""

import numpy as np
import pytest

from repro.core.split_cp import SplitConformalRegressor, split_train_calibration
from repro.models.linear import LinearRegression
from repro.models.tree import DecisionTreeRegressor


class TestSplitHelper:
    def test_disjoint_and_complete(self, rng):
        train, cal = split_train_calibration(100, 0.25, rng)
        assert len(set(train) & set(cal)) == 0
        assert len(train) + len(cal) == 100
        assert len(cal) == 25

    def test_at_least_one_each_side(self, rng):
        train, cal = split_train_calibration(2, 0.01, rng)
        assert len(train) == 1 and len(cal) == 1

    def test_rejects_bad_fraction(self, rng):
        with pytest.raises(ValueError):
            split_train_calibration(10, 1.0, rng)

    def test_rejects_tiny_population(self, rng):
        with pytest.raises(ValueError):
            split_train_calibration(1, 0.5, rng)


class TestSplitConformal:
    def test_constant_width_by_construction(self, linear_data):
        X, y, *_ = linear_data
        cp = SplitConformalRegressor(LinearRegression(), alpha=0.1, random_state=0)
        cp.fit(X, y)
        intervals = cp.predict_interval(X)
        np.testing.assert_allclose(intervals.width, intervals.width[0])
        assert intervals.width[0] == pytest.approx(2 * cp.quantile_)

    def test_marginal_coverage_monte_carlo(self):
        """Average coverage over many (train, test) draws >= 1 - alpha."""
        rng = np.random.default_rng(7)
        coverages = []
        for _ in range(40):
            X = rng.normal(size=(120, 3))
            y = X[:, 0] + rng.normal(scale=0.5, size=120)
            cp = SplitConformalRegressor(
                LinearRegression(), alpha=0.2, random_state=int(rng.integers(1e6))
            ).fit(X[:80], y[:80])
            coverages.append(cp.predict_interval(X[80:]).coverage(y[80:]))
        assert np.mean(coverages) >= 0.8 - 0.02

    def test_point_prediction_delegates(self, linear_data):
        X, y, *_ = linear_data
        cp = SplitConformalRegressor(LinearRegression(), random_state=0).fit(X, y)
        assert cp.score(X, y) > 0.9

    def test_coverage_holds_with_bad_model(self, rng):
        """The guarantee is model-agnostic: even a useless model covers."""
        X = rng.normal(size=(400, 2))
        y = np.sin(5 * X[:, 0]) + rng.normal(scale=0.1, size=400)
        cp = SplitConformalRegressor(
            DecisionTreeRegressor(max_depth=1), alpha=0.1, random_state=0
        ).fit(X[:300], y[:300])
        coverage = cp.predict_interval(X[300:]).coverage(y[300:])
        assert coverage >= 0.8

    def test_template_unfitted_after_use(self, linear_data):
        X, y, *_ = linear_data
        template = LinearRegression()
        SplitConformalRegressor(template, random_state=0).fit(X, y)
        assert template.coef_ is None

    def test_infinite_quantile_raises_at_predict(self, rng):
        X = rng.normal(size=(12, 2))
        y = rng.normal(size=12)
        # 25% of 12 -> 3 calibration points, too few for alpha=0.05.
        cp = SplitConformalRegressor(
            LinearRegression(), alpha=0.05, random_state=0
        ).fit(X, y)
        with pytest.raises(RuntimeError, match="too small"):
            cp.predict_interval(X)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            SplitConformalRegressor(LinearRegression(), alpha=1.0)

    def test_deterministic_given_seed(self, linear_data):
        X, y, *_ = linear_data
        a = SplitConformalRegressor(LinearRegression(), random_state=3).fit(X, y)
        b = SplitConformalRegressor(LinearRegression(), random_state=3).fit(X, y)
        assert a.quantile_ == b.quantile_
