"""Tests for the XGBoost-style gradient boosting regressor."""

import numpy as np
import pytest

from repro.models.gbm import GradientBoostingRegressor


@pytest.fixture()
def boost_data(rng):
    X = rng.normal(size=(200, 6))
    y = 2.0 * X[:, 0] + np.sin(2 * X[:, 1]) + rng.normal(scale=0.2, size=200)
    return X[:150], y[:150], X[150:], y[150:]


class TestPointObjective:
    def test_fits_nonlinear_signal(self, boost_data):
        Xtr, ytr, Xte, yte = boost_data
        model = GradientBoostingRegressor().fit(Xtr, ytr)
        assert model.score(Xte, yte) > 0.7

    def test_more_rounds_reduce_training_error(self, boost_data):
        Xtr, ytr, *_ = boost_data
        few = GradientBoostingRegressor(n_estimators=5).fit(Xtr, ytr)
        many = GradientBoostingRegressor(n_estimators=80).fit(Xtr, ytr)
        assert many.score(Xtr, ytr) > few.score(Xtr, ytr)

    def test_base_score_is_target_mean(self, boost_data):
        Xtr, ytr, *_ = boost_data
        model = GradientBoostingRegressor(n_estimators=1).fit(Xtr, ytr)
        assert model.base_score_ == pytest.approx(ytr.mean())

    def test_staged_predict_last_stage_matches_predict(self, boost_data):
        Xtr, ytr, Xte, _ = boost_data
        model = GradientBoostingRegressor(n_estimators=10).fit(Xtr, ytr)
        stages = model.staged_predict(Xte)
        assert stages.shape == (10, Xte.shape[0])
        np.testing.assert_array_equal(stages[-1], model.predict(Xte))

    def test_refit_is_bit_identical(self, boost_data):
        Xtr, ytr, Xte, _ = boost_data
        a = GradientBoostingRegressor().fit(Xtr, ytr)
        b = GradientBoostingRegressor().fit(Xtr, ytr)
        np.testing.assert_array_equal(a.predict(Xte), b.predict(Xte))

    def test_exact_method_close_to_hist(self, rng):
        X = rng.normal(size=(60, 3))
        y = X[:, 0] + rng.normal(scale=0.1, size=60)
        hist = GradientBoostingRegressor(n_estimators=10, max_bins=256).fit(X, y)
        exact = GradientBoostingRegressor(
            n_estimators=10, tree_method="exact"
        ).fit(X, y)
        np.testing.assert_allclose(hist.predict(X), exact.predict(X), atol=1e-8)


class TestQuantileObjective:
    def test_base_score_is_empirical_quantile(self, boost_data):
        Xtr, ytr, *_ = boost_data
        model = GradientBoostingRegressor(n_estimators=1, quantile=0.9).fit(Xtr, ytr)
        assert model.base_score_ == pytest.approx(np.quantile(ytr, 0.9))

    def test_band_ordering_on_average(self, boost_data):
        Xtr, ytr, Xte, _ = boost_data
        lo = GradientBoostingRegressor(quantile=0.1).fit(Xtr, ytr)
        hi = GradientBoostingRegressor(quantile=0.9).fit(Xtr, ytr)
        assert np.mean(hi.predict(Xte) - lo.predict(Xte)) > 0

    def test_training_exceedance_tracks_quantile(self, boost_data):
        Xtr, ytr, *_ = boost_data
        model = GradientBoostingRegressor(quantile=0.8).fit(Xtr, ytr)
        below = np.mean(ytr <= model.predict(Xtr))
        assert 0.6 < below <= 1.0


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_estimators": 0},
            {"learning_rate": 0.0},
            {"quantile": 1.0},
            {"tree_method": "gpu"},
            {"feature_shortlist": 0},
        ],
    )
    def test_constructor_rejects(self, kwargs):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(**kwargs)

    def test_predict_before_fit(self):
        with pytest.raises(Exception):
            GradientBoostingRegressor().predict(np.zeros((2, 2)))

    def test_predict_rejects_wrong_width(self, boost_data):
        Xtr, ytr, *_ = boost_data
        model = GradientBoostingRegressor(n_estimators=3).fit(Xtr, ytr)
        with pytest.raises(ValueError, match="features"):
            model.predict(np.zeros((2, 3)))
