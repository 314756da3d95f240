"""Tests for likelihood-ratio-weighted conformal prediction."""

import numpy as np
import pytest

from repro.core import ConformalizedQuantileRegressor, PointBand
from repro.core.calibration import conformal_quantile
from repro.models.linear import LinearRegression, QuantileLinearRegression
from repro.shift import (
    DegenerateWeightsError,
    LogisticDensityRatio,
    WeightedBandCalibrator,
    weighted_band_calibrator,
)
from repro.shift.weighted import MIN_ESS


def _hetero(rng, n, loc=0.0, scale=1.0):
    """1-D data whose noise grows with |x|: covariate shift moves the
    score distribution, which is exactly what the weighting corrects."""
    X = rng.normal(loc=loc, scale=scale, size=(n, 1))
    y = 1.5 * X[:, 0] + rng.normal(size=n) * (0.2 + 0.5 * np.abs(X[:, 0]))
    return X, y


def _split_cp(X, y, **kwargs):
    """Split CP as a CQR over the zero-width band of a point model."""
    return ConformalizedQuantileRegressor(
        None, band_template=PointBand(LinearRegression()), **kwargs
    ).fit(X, y)


def _repair(cqr, X_current, **kwargs):
    return weighted_band_calibrator(
        cqr.band_,
        cqr.calibration_scores_,
        cqr.calibration_features_,
        X_current,
        alpha=cqr.alpha,
        **kwargs,
    )


class TestWeightedQuantile:
    """The weighted branch of :func:`conformal_quantile`."""

    def test_uniform_weights_match_unweighted(self, rng):
        scores = rng.normal(size=81)
        for alpha in (0.05, 0.1, 0.25):
            assert conformal_quantile(
                scores, alpha, weights=np.ones_like(scores)
            ) == conformal_quantile(scores, alpha)

    def test_heavy_test_weight_needs_the_infinite_atom(self):
        scores = np.array([1.0, 2.0, 3.0])
        assert conformal_quantile(
            scores, alpha=0.1, weights=np.ones(3), test_weight=100.0
        ) == np.inf

    def test_upweighting_large_scores_widens(self):
        scores = np.array([1.0, 2.0, 3.0, 4.0, 5.0] * 10)
        uniform = conformal_quantile(scores, 0.25, weights=np.ones_like(scores))
        top_heavy = np.where(scores >= 4.0, 5.0, 0.1)
        shifted = conformal_quantile(scores, 0.25, weights=top_heavy)
        assert shifted >= uniform

    def test_vector_test_weight_matches_scalar_calls(self, rng):
        scores = rng.normal(size=40)
        weights = rng.uniform(0.1, 3.0, size=40)
        test_weights = np.array([0.0, 0.5, 1.0, 7.0, 1e3])
        batch = conformal_quantile(scores, 0.1, weights=weights, test_weight=test_weights)
        one_by_one = [
            conformal_quantile(scores, 0.1, weights=weights, test_weight=w)
            for w in test_weights
        ]
        assert batch.shape == test_weights.shape
        assert np.array_equal(batch, one_by_one)
        assert batch[-1] == np.inf

    def test_validates_inputs(self):
        with pytest.raises(ValueError, match="non-empty"):
            conformal_quantile([], 0.1, weights=[])
        with pytest.raises(ValueError, match="match"):
            conformal_quantile([1.0], 0.1, weights=[1.0, 2.0])
        with pytest.raises(ValueError, match="alpha"):
            conformal_quantile([1.0], 1.5, weights=[1.0])
        with pytest.raises(ValueError, match="non-negative"):
            conformal_quantile([1.0], 0.1, weights=[-1.0])
        with pytest.raises(ValueError, match="test_weight"):
            conformal_quantile([1.0], 0.1, weights=[1.0], test_weight=-1.0)
        with pytest.raises(ValueError, match="zero"):
            conformal_quantile([1.0], 0.1, weights=[0.0], test_weight=0.0)


class TestWeightedBandCalibrator:
    def _band(self, rng):
        from repro.models.quantile import QuantileBandRegressor

        X, y = _hetero(rng, 400)
        band = QuantileBandRegressor(QuantileLinearRegression(), alpha=0.1)
        return band.fit(X[:300], y[:300]), X, y

    def test_degenerate_weights_refused_at_construction(self, rng):
        band, X, y = self._band(rng)
        weights = np.zeros(100)
        weights[0] = 1.0
        with pytest.raises(DegenerateWeightsError, match="ESS"):
            WeightedBandCalibrator(band, np.abs(rng.normal(size=100)), weights)

    def test_uniform_weights_reproduce_unweighted_margin(self, rng):
        band, X, y = self._band(rng)
        scores = np.abs(rng.normal(size=99))
        calibrator = WeightedBandCalibrator(
            band, scores, np.ones_like(scores), alpha=0.1
        )
        intervals = calibrator.predict_interval(X[300:])
        lower, upper = band.predict_interval(X[300:])
        margin = conformal_quantile(scores, 0.1)
        assert np.array_equal(intervals.lower, lower - margin)
        assert np.array_equal(intervals.upper, upper + margin)

    @pytest.mark.parametrize("template", ["point", "quantile"])
    def test_uniform_weights_equal_the_fitted_cqr(self, rng, template):
        """Unit weights everywhere (calibration and test) serve exactly
        the CQR's own intervals, on point and quantile templates."""
        X, y = _hetero(rng, 600)
        if template == "point":
            cqr = _split_cp(X[:400], y[:400], random_state=0)
        else:
            cqr = ConformalizedQuantileRegressor(
                QuantileLinearRegression(), random_state=0
            ).fit(X[:400], y[:400])
        scores = cqr.calibration_scores_
        calibrator = WeightedBandCalibrator(cqr.band_, scores, np.ones_like(scores))
        served = calibrator.predict_interval(X[400:])
        expected = cqr.predict_interval(X[400:])
        assert np.array_equal(served.lower, expected.lower)
        assert np.array_equal(served.upper, expected.upper)

    def test_validates_construction(self, rng):
        band, _, _ = self._band(rng)
        with pytest.raises(TypeError, match="predict_interval"):
            WeightedBandCalibrator(object(), [1.0], [1.0])
        with pytest.raises(ValueError, match="non-empty"):
            WeightedBandCalibrator(band, [], [])
        with pytest.raises(ValueError, match="match"):
            WeightedBandCalibrator(band, [1.0], [1.0, 2.0])


class TestWeightedConformalRegressor:
    """Weighted split CP / CQR: a fitted CQR plus
    :func:`weighted_band_calibrator` re-targeted at the shifted batch."""

    def test_unweighted_coverage_on_exchangeable_data(self, rng):
        X, y = _hetero(rng, 1200)
        model = _split_cp(X[:800], y[:800], random_state=0)
        assert model.predict_interval(X[800:]).coverage(y[800:]) >= 0.85

    def test_weighting_restores_coverage_under_covariate_shift(self):
        rng = np.random.default_rng(0)
        X, y = _hetero(rng, 1200)
        model = _split_cp(X, y, random_state=0)
        rng_test = np.random.default_rng(1)
        X_shift, y_shift = _hetero(rng_test, 400, loc=1.5, scale=0.8)
        before = model.predict_interval(X_shift).coverage(y_shift)
        repair = _repair(
            model,
            X_shift,
            ratio_estimator=LogisticDensityRatio(ridge=4.0),
        )
        after = repair.predict_interval(X_shift).coverage(y_shift)
        assert before < 0.80  # the shift genuinely breaks plain split CP
        assert after >= 0.85
        assert repair.ess_ >= MIN_ESS

    def test_degenerate_shift_refuses_and_keeps_previous_weighting(self):
        rng = np.random.default_rng(0)
        X, y = _hetero(rng, 1200)
        model = _split_cp(X, y, random_state=0)
        # A tight cluster in the far tail of the reference: a handful of
        # calibration chips soak up all the mass and the ESS collapses.
        X_far = np.full((200, 1), 3.0) + rng.normal(
            scale=0.2, size=(200, 1)
        )
        with pytest.raises(DegenerateWeightsError, match="refusing"):
            _repair(model, X_far)
        # The fitted CQR still serves plain unweighted intervals.
        assert len(model.predict_interval(X[:10])) == 10

    def test_quantile_template_uses_band(self, rng):
        X, y = _hetero(rng, 600)
        model = ConformalizedQuantileRegressor(
            QuantileLinearRegression(), alpha=0.1, random_state=0
        ).fit(X, y)
        repair = _repair(model, X[:200] + 0.5)
        assert repair.band is model.band_
        intervals = repair.predict_interval(X[:50])
        lower, upper = model.band_.predict_interval(X[:50])
        np.testing.assert_allclose(intervals.midpoint, (lower + upper) / 2.0)

    def test_calibrate_to_validates_input(self, rng):
        X, y = _hetero(rng, 400)
        model = _split_cp(X, y, random_state=0)
        with pytest.raises(ValueError, match="2-D"):
            _repair(model, np.zeros(5))
        with pytest.raises(ValueError, match="features"):
            _repair(model, np.zeros((5, 3)))

    def test_rejects_bad_params(self, rng):
        X, y = _hetero(rng, 400)
        model = _split_cp(X, y, random_state=0)
        with pytest.raises(ValueError, match="alpha"):
            weighted_band_calibrator(
                model.band_,
                model.calibration_scores_,
                model.calibration_features_,
                X,
                alpha=0.0,
            )
