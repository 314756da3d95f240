"""Tests for group-conditional (Mondrian) conformal prediction."""

import numpy as np
import pytest

from repro.core.cqr import ConformalizedQuantileRegressor
from repro.core.mondrian import (
    MondrianConformalRegressor,
    MondrianFallbackWarning,
)
from repro.core.split_cp import SplitConformalRegressor
from repro.models.linear import LinearRegression, QuantileLinearRegression


def _group_by_sign(X):
    return (X[:, 0] > 0).astype(int)


@pytest.fixture()
def grouped_data(rng):
    """Two subpopulations with very different noise scales."""
    n = 1200
    X = rng.normal(size=(n, 3))
    noise = np.where(X[:, 0] > 0, 2.0, 0.2)
    y = X[:, 1] + rng.normal(scale=noise)
    return X, y


class TestMondrian:
    def test_point_mode_per_group_coverage(self, grouped_data):
        X, y = grouped_data
        model = MondrianConformalRegressor(
            LinearRegression(), _group_by_sign, alpha=0.1, random_state=0
        ).fit(X[:900], y[:900])
        intervals = model.predict_interval(X[900:])
        for key in (0, 1):
            members = _group_by_sign(X[900:]) == key
            coverage = intervals.contains(y[900:]).astype(float)[members].mean()
            assert coverage >= 0.8, f"group {key} under-covered"

    def test_group_quantiles_reflect_noise(self, grouped_data):
        X, y = grouped_data
        model = MondrianConformalRegressor(
            LinearRegression(), _group_by_sign, alpha=0.1, random_state=0
        ).fit(X, y)
        assert model.group_quantiles_[1] > model.group_quantiles_[0]

    def test_marginal_cp_undercovers_noisy_group(self, grouped_data):
        """The motivating contrast: plain split CP's marginal interval is
        too narrow for the noisy group."""
        X, y = grouped_data
        marginal = SplitConformalRegressor(
            LinearRegression(), alpha=0.1, random_state=0
        ).fit(X[:900], y[:900])
        intervals = marginal.predict_interval(X[900:])
        noisy = _group_by_sign(X[900:]) == 1
        noisy_coverage = intervals.contains(y[900:]).astype(float)[noisy].mean()
        mondrian = MondrianConformalRegressor(
            LinearRegression(), _group_by_sign, alpha=0.1, random_state=0
        ).fit(X[:900], y[:900])
        m_intervals = mondrian.predict_interval(X[900:])
        m_noisy = m_intervals.contains(y[900:]).astype(float)[noisy].mean()
        assert m_noisy >= noisy_coverage - 0.02

    def test_quantile_mode_uses_band(self, grouped_data):
        X, y = grouped_data
        model = MondrianConformalRegressor(
            QuantileLinearRegression(), _group_by_sign, alpha=0.1, random_state=0
        ).fit(X[:900], y[:900])
        assert model.band_ is not None and model.point_model_ is None
        intervals = model.predict_interval(X[900:])
        assert intervals.coverage(y[900:]) >= 0.85

    def test_unseen_group_falls_back_to_marginal(self, rng):
        """The fallback must serve every row AND page loudly: one
        :class:`MondrianFallbackWarning` per call, carrying the keys."""
        X = rng.normal(size=(200, 2))
        y = X[:, 0] + rng.normal(size=200)

        def grouper(Z):
            # At predict time, inject an unseen group label.
            return np.where(Z[:, 1] > 3.5, 99, 0)

        model = MondrianConformalRegressor(
            LinearRegression(), grouper, alpha=0.1, random_state=0
        ).fit(X, y)
        X_test = X.copy()
        X_test[0, 1] = 10.0  # force group 99
        assert model.unseen_group_keys(X_test) == (99,)
        with pytest.warns(MondrianFallbackWarning, match="99") as caught:
            intervals = model.predict_interval(X_test)
        assert len(intervals) == 200
        fallback = [
            w for w in caught if isinstance(w.message, MondrianFallbackWarning)
        ]
        assert len(fallback) == 1
        assert fallback[0].message.group_keys == (99,)

    def test_seen_groups_do_not_warn(self, grouped_data):
        import warnings

        X, y = grouped_data
        model = MondrianConformalRegressor(
            LinearRegression(), _group_by_sign, alpha=0.1, random_state=0
        ).fit(X[:900], y[:900])
        assert model.unseen_group_keys(X[900:]) == ()
        with warnings.catch_warnings():
            warnings.simplefilter("error", MondrianFallbackWarning)
            model.predict_interval(X[900:])

    def test_too_small_group_raises(self, rng):
        X = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        model = MondrianConformalRegressor(
            LinearRegression(), _group_by_sign, alpha=0.1, random_state=0
        ).fit(X, y)
        # Force a group whose calibration quantile is infinite (too few
        # members for the target alpha) and check the guard fires.
        key = next(iter(model.group_quantiles_))
        model.group_quantiles_[key] = float("inf")
        with pytest.raises(RuntimeError, match="too few"):
            model.predict_interval(X)

    def test_group_function_shape_checked(self, rng):
        X = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        model = MondrianConformalRegressor(
            LinearRegression(), lambda Z: np.zeros((2, 2)), random_state=0
        )
        with pytest.raises(ValueError, match="one key per row"):
            model.fit(X, y)


class TestSingleGroupParity:
    """With one group, Mondrian is exactly the marginal method it wraps."""

    @staticmethod
    def _one_group(X):
        return np.zeros(X.shape[0], dtype=int)

    def test_quantile_template_equals_cqr(self, grouped_data):
        X, y = grouped_data
        mondrian = MondrianConformalRegressor(
            QuantileLinearRegression(), self._one_group, random_state=4
        ).fit(X[:900], y[:900])
        cqr = ConformalizedQuantileRegressor(
            QuantileLinearRegression(), random_state=4
        ).fit(X[:900], y[:900])
        served = mondrian.predict_interval(X[900:])
        expected = cqr.predict_interval(X[900:])
        assert np.array_equal(served.lower, expected.lower)
        assert np.array_equal(served.upper, expected.upper)

    def test_point_template_equals_split_cp(self, grouped_data):
        X, y = grouped_data
        mondrian = MondrianConformalRegressor(
            LinearRegression(), self._one_group, random_state=4
        ).fit(X[:900], y[:900])
        split = SplitConformalRegressor(LinearRegression(), random_state=4).fit(
            X[:900], y[:900]
        )
        assert mondrian.group_quantiles_ == {0: split.quantile_}
        served = mondrian.predict_interval(X[900:])
        expected = split.predict_interval(X[900:])
        assert np.array_equal(served.lower, expected.lower)
        assert np.array_equal(served.upper, expected.upper)
        assert np.array_equal(mondrian.predict(X[900:]), split.predict(X[900:]))
