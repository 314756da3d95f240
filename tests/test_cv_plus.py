"""Tests for CV+ and Jackknife+ conformal intervals."""

import numpy as np
import pytest

from repro.core.cv_plus import CVPlusRegressor, JackknifePlusRegressor
from repro.models.linear import LinearRegression


class TestCVPlus:
    def test_marginal_coverage_monte_carlo(self):
        rng = np.random.default_rng(3)
        coverages = []
        for _ in range(25):
            X = rng.normal(size=(140, 3))
            y = X[:, 0] + rng.normal(scale=0.5, size=140)
            model = CVPlusRegressor(
                LinearRegression(),
                alpha=0.2,
                n_folds=5,
                random_state=int(rng.integers(1e6)),
            ).fit(X[:100], y[:100])
            coverages.append(model.predict_interval(X[100:]).coverage(y[100:]))
        assert np.mean(coverages) >= 0.8 - 0.03

    def test_residuals_are_out_of_fold(self, rng):
        X = rng.normal(size=(60, 2))
        y = X[:, 0] + rng.normal(scale=0.3, size=60)
        model = CVPlusRegressor(
            LinearRegression(), n_folds=4, random_state=0
        ).fit(X, y)
        # Check residual i matches fold model that did NOT see sample i.
        for i in range(0, 60, 13):
            k = model.fold_of_sample_[i]
            expected = abs(y[i] - model.fold_models_[k].predict(X[i : i + 1])[0])
            assert model.residuals_[i] == pytest.approx(expected)

    def test_prediction_is_fold_mean(self, rng):
        X = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        model = CVPlusRegressor(LinearRegression(), n_folds=4, random_state=0).fit(X, y)
        stacked = np.stack([m.predict(X) for m in model.fold_models_])
        np.testing.assert_allclose(model.predict(X), stacked.mean(axis=0))

    def test_intervals_ordered(self, rng):
        X = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        model = CVPlusRegressor(LinearRegression(), n_folds=5, random_state=0).fit(X, y)
        intervals = model.predict_interval(X)
        assert np.all(intervals.lower <= intervals.upper)

    def test_rejects_more_folds_than_samples(self, rng):
        X = rng.normal(size=(4, 2))
        model = CVPlusRegressor(LinearRegression(), n_folds=10)
        with pytest.raises(ValueError, match="exceeds"):
            model.fit(X, rng.normal(size=4))

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            CVPlusRegressor(LinearRegression(), alpha=0.0)
        with pytest.raises(ValueError):
            CVPlusRegressor(LinearRegression(), n_folds=1)


class TestJackknifePlus:
    def test_uses_leave_one_out_folds(self, rng):
        X = rng.normal(size=(25, 2))
        y = rng.normal(size=25)
        model = JackknifePlusRegressor(LinearRegression(), random_state=0).fit(X, y)
        assert len(model.fold_models_) == 25

    def test_coverage_on_fresh_data(self, rng):
        X = rng.normal(size=(220, 2))
        y = X[:, 0] + rng.normal(scale=0.4, size=220)
        model = JackknifePlusRegressor(
            LinearRegression(), alpha=0.1, random_state=0
        ).fit(X[:60], y[:60])
        coverage = model.predict_interval(X[60:]).coverage(y[60:])
        assert coverage >= 0.8

    def test_overflowing_rank_refuses_like_split_cp(self, rng):
        """Rank ceil((n+1)(1-alpha)) > n needs an infinite interval: 8
        chips at alpha=0.1 (rank 9) refuse, at alpha=0.2 (rank 8) serve."""
        X = rng.normal(size=(40, 2))
        y = X[:, 0] + rng.normal(scale=0.4, size=40)
        strict = JackknifePlusRegressor(LinearRegression(), alpha=0.1).fit(X[:8], y[:8])
        with pytest.raises(RuntimeError, match="too small"):
            strict.predict_interval(X[8:])
        loose = JackknifePlusRegressor(LinearRegression(), alpha=0.2).fit(X[:8], y[:8])
        intervals = loose.predict_interval(X[8:])
        assert np.all(np.isfinite(intervals.lower)) and len(intervals) == 32
