"""Tests for conformalized quantile regression."""

import numpy as np
import pytest

from repro.core.cqr import ConformalizedQuantileRegressor, PointBand
from repro.core.split_cp import SplitConformalRegressor
from repro.models.linear import LinearRegression, QuantileLinearRegression
from repro.models.oblivious import ObliviousBoostingRegressor
from repro.models.quantile import PackageDefaultQuantileBand


class TestCQR:
    def test_marginal_coverage_monte_carlo(self):
        rng = np.random.default_rng(11)
        coverages = []
        for _ in range(30):
            X = rng.normal(size=(150, 3))
            y = X[:, 0] + rng.normal(scale=0.4, size=150)
            cqr = ConformalizedQuantileRegressor(
                QuantileLinearRegression(),
                alpha=0.2,
                random_state=int(rng.integers(1e6)),
            ).fit(X[:100], y[:100])
            coverages.append(cqr.predict_interval(X[100:]).coverage(y[100:]))
        assert np.mean(coverages) >= 0.8 - 0.03

    def test_adapts_to_heteroscedastic_noise(self, hetero_data):
        X, y = hetero_data
        cqr = ConformalizedQuantileRegressor(
            QuantileLinearRegression(), alpha=0.1, random_state=0
        ).fit(X[:450], y[:450])
        intervals = cqr.predict_interval(X[450:])
        width = intervals.width
        noisy = X[450:, 0] > 1.0
        assert width[noisy].mean() > width[~noisy].mean()

    def test_correction_can_shrink_conservative_band(self, rng):
        """A band trained at extreme quantiles over-covers; CQR's q-hat goes
        negative to shrink it."""
        X = rng.normal(size=(500, 2))
        y = X[:, 0] + rng.normal(scale=0.2, size=500)
        cqr = ConformalizedQuantileRegressor(
            QuantileLinearRegression(),
            alpha=0.5,  # band quantiles 25/75, but alpha=0.5 target
            random_state=0,
        )
        # Manually widen: fit at alpha=0.02-style band via a template trick
        cqr_wide = ConformalizedQuantileRegressor(
            QuantileLinearRegression(), alpha=0.5, random_state=0
        )
        cqr_wide.band_template = None
        cqr_wide.fit(X, y)
        # For a 50% target on clean data the correction is usually <= 0 at
        # least sometimes; the invariant we assert is coverage near target.
        coverage = cqr_wide.predict_interval(X).coverage(y)
        assert coverage == pytest.approx(0.5, abs=0.1)

    def test_negative_correction_possible(self, rng):
        X = rng.normal(size=(400, 1))
        y = X[:, 0] + rng.normal(scale=0.1, size=400)

        class WideBand(PackageDefaultQuantileBand):
            """Band that is deliberately too wide for the target."""

            def predict_interval(self, X):
                lower, upper = super().predict_interval(X)
                return lower - 10.0, upper + 10.0

        band = WideBand(
            ObliviousBoostingRegressor(n_estimators=5, quantile=0.5),
            random_state=0,
        )
        cqr = ConformalizedQuantileRegressor(
            None, alpha=0.1, band_template=band, random_state=0
        ).fit(X, y)
        assert cqr.quantile_low_ < 0  # shrank the over-wide band

    def test_band_template_used(self, rng):
        X = rng.normal(size=(80, 2))
        y = rng.normal(size=80)
        band = PackageDefaultQuantileBand(
            ObliviousBoostingRegressor(n_estimators=3, quantile=0.5),
            random_state=0,
        )
        cqr = ConformalizedQuantileRegressor(
            None, alpha=0.2, band_template=band, random_state=0
        ).fit(X, y)
        assert isinstance(cqr.band_, PackageDefaultQuantileBand)
        assert band.lower_ is None  # template itself never fitted

    def test_requires_estimator_or_band(self):
        with pytest.raises(ValueError, match="estimator or a band"):
            ConformalizedQuantileRegressor(None)

    def test_predict_is_midpoint(self, rng):
        X = rng.normal(size=(120, 2))
        y = X[:, 0] + rng.normal(size=120)
        cqr = ConformalizedQuantileRegressor(
            QuantileLinearRegression(), alpha=0.2, random_state=0
        ).fit(X, y)
        intervals = cqr.predict_interval(X)
        np.testing.assert_allclose(cqr.predict(X), intervals.midpoint)

    def test_too_small_calibration_raises(self, rng):
        X = rng.normal(size=(16, 1))
        y = rng.normal(size=16)
        cqr = ConformalizedQuantileRegressor(
            QuantileLinearRegression(), alpha=0.05, random_state=0
        ).fit(X, y)
        with pytest.raises(RuntimeError, match="too small"):
            cqr.predict_interval(X)

    def test_deterministic_given_seed(self, rng):
        X = rng.normal(size=(100, 2))
        y = X[:, 0] + rng.normal(size=100)
        a = ConformalizedQuantileRegressor(
            QuantileLinearRegression(), random_state=5
        ).fit(X, y)
        b = ConformalizedQuantileRegressor(
            QuantileLinearRegression(), random_state=5
        ).fit(X, y)
        assert a.quantile_low_ == b.quantile_low_

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            ConformalizedQuantileRegressor(QuantileLinearRegression(), alpha=0.0)


class TestPointBand:
    def test_band_is_zero_width(self, rng):
        X = rng.normal(size=(50, 2))
        y = X[:, 0] + rng.normal(size=50)
        band = PointBand(LinearRegression()).fit(X, y)
        lower, upper = band.predict_interval(X)
        assert np.array_equal(lower, band.predict(X))
        assert np.array_equal(upper, band.predict(X))

    @pytest.mark.parametrize("alpha", [0.1, 0.3])
    def test_cqr_over_point_band_equals_split_cp(self, rng, alpha):
        X = rng.normal(size=(300, 3))
        y = X[:, 0] + rng.normal(size=300) * (0.2 + np.abs(X[:, 1]))
        cqr = ConformalizedQuantileRegressor(
            None, alpha=alpha, band_template=PointBand(LinearRegression()), random_state=3
        ).fit(X[:200], y[:200])
        split = SplitConformalRegressor(
            LinearRegression(), alpha=alpha, random_state=3
        ).fit(X[:200], y[:200])
        assert cqr.quantile_low_ == split.quantile_
        served = cqr.predict_interval(X[200:])
        expected = split.predict_interval(X[200:])
        assert np.array_equal(served.lower, expected.lower)
        assert np.array_equal(served.upper, expected.upper)
