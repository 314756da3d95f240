"""Tests for Gaussian process regression."""

import warnings

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from repro.models.gp import GaussianProcessRegressor
from repro.models.kernels import ConstantKernel, RBFKernel, WhiteKernel


@pytest.fixture()
def smooth_data(rng):
    X = np.linspace(-3, 3, 40).reshape(-1, 1)
    y = np.sin(X[:, 0]) + rng.normal(scale=0.05, size=40)
    return X, y


class TestPosterior:
    def test_matches_closed_form_posterior_mean(self, rng):
        """Fixed kernel + no optimisation must equal textbook GPR."""
        X = rng.normal(size=(15, 2))
        y = rng.normal(size=15)
        kernel = RBFKernel(1.3)
        model = GaussianProcessRegressor(
            kernel=kernel, alpha=0.1, optimizer=None, normalize_y=False
        ).fit(X, y)
        X_test = rng.normal(size=(5, 2))

        K = kernel(X) + 0.1 * np.eye(15)
        expected = kernel(X_test, X) @ cho_solve(cho_factor(K), y)
        np.testing.assert_allclose(model.predict(X_test), expected, atol=1e-10)

    def test_interpolates_noise_free_data(self, rng):
        X = rng.uniform(-2, 2, size=(20, 1))
        y = np.sin(2 * X[:, 0])
        model = GaussianProcessRegressor(alpha=1e-10, random_state=0).fit(X, y)
        np.testing.assert_allclose(model.predict(X), y, atol=1e-3)

    def test_predictive_std_smaller_near_data(self, smooth_data):
        X, y = smooth_data
        model = GaussianProcessRegressor(random_state=0).fit(X, y)
        _, std_near = model.predict(np.array([[0.0]]), return_std=True)
        _, std_far = model.predict(np.array([[10.0]]), return_std=True)
        assert std_far[0] > std_near[0]

    def test_optimisation_improves_marginal_likelihood(self, smooth_data):
        X, y = smooth_data
        fixed = GaussianProcessRegressor(
            kernel=ConstantKernel(1.0) * RBFKernel(5.0) + WhiteKernel(0.5),
            optimizer=None,
        ).fit(X, y)
        tuned = GaussianProcessRegressor(
            kernel=ConstantKernel(1.0) * RBFKernel(5.0) + WhiteKernel(0.5),
            n_restarts=1,
            random_state=0,
        ).fit(X, y)
        assert tuned.log_marginal_likelihood_ >= fixed.log_marginal_likelihood_

    def test_normalize_y_handles_large_offsets(self, rng):
        X = rng.normal(size=(30, 1))
        y = 0.56 + 0.01 * X[:, 0]  # Vmin-like scale: ~560 mV offset
        model = GaussianProcessRegressor(random_state=0).fit(X, y)
        prediction = model.predict(X)
        assert np.abs(prediction - y).max() < 0.005


class TestIntervals:
    def test_interval_widens_with_smaller_alpha(self, smooth_data):
        X, y = smooth_data
        model = GaussianProcessRegressor(random_state=0).fit(X, y)
        lo90, hi90 = model.predict_interval(X, alpha=0.1)
        lo99, hi99 = model.predict_interval(X, alpha=0.01)
        assert np.all(hi99 - lo99 >= hi90 - lo90)

    def test_interval_covers_on_gaussian_data(self, rng):
        X = rng.normal(size=(150, 2))
        y = X[:, 0] + rng.normal(scale=0.3, size=150)
        model = GaussianProcessRegressor(random_state=0).fit(X[:100], y[:100])
        lo, hi = model.predict_interval(X[100:], alpha=0.1)
        coverage = np.mean((y[100:] >= lo) & (y[100:] <= hi))
        # On in-distribution Gaussian data GP intervals are roughly honest.
        assert coverage > 0.75

    def test_interval_rejects_bad_alpha(self, smooth_data):
        X, y = smooth_data
        model = GaussianProcessRegressor(random_state=0).fit(X, y)
        with pytest.raises(ValueError, match="alpha"):
            model.predict_interval(X, alpha=1.5)


class TestValidation:
    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            GaussianProcessRegressor(alpha=-1.0)

    def test_rejects_unknown_optimizer(self):
        with pytest.raises(ValueError, match="optimizer"):
            GaussianProcessRegressor(optimizer="adam")

    def test_predict_before_fit(self):
        with pytest.raises(Exception):
            GaussianProcessRegressor().predict(np.ones((2, 2)))

    def test_predict_rejects_wrong_width(self, smooth_data):
        X, y = smooth_data
        model = GaussianProcessRegressor(random_state=0).fit(X, y)
        with pytest.raises(ValueError, match="features"):
            model.predict(np.ones((3, 4)))

    def test_deterministic_given_seed(self, smooth_data):
        X, y = smooth_data
        a = GaussianProcessRegressor(random_state=5, n_restarts=2).fit(X, y)
        b = GaussianProcessRegressor(random_state=5, n_restarts=2).fit(X, y)
        np.testing.assert_allclose(a.predict(X), b.predict(X))


class TestSingularKernelMatrix:
    """At the corner of the kernel bounds -- signal variance and length
    scale at their maxima, noise at its minimum -- every entry of ``K``
    is alike and ``K + alpha * I`` does not factor.  The marginal
    likelihood must stay finite there, or L-BFGS-B's finite differences
    subtract infinities."""

    @pytest.fixture()
    def data(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 2))
        y = np.sin(X[:, 0]) + rng.normal(scale=0.05, size=60)
        return X, y

    @staticmethod
    def corner():
        return ConstantKernel(1e5) * RBFKernel(1e5) + WhiteKernel(1e-10)

    def test_marginal_likelihood_is_finite(self, data):
        X, y = data
        gp = GaussianProcessRegressor()
        assert np.isfinite(gp._log_marginal_likelihood(self.corner(), X, y))

    def test_fit_started_at_the_corner_is_warning_free(self, data):
        X, y = data
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model = GaussianProcessRegressor(kernel=self.corner(), n_restarts=0)
            model.fit(X, y)
        mean, std = model.predict(X, return_std=True)
        assert np.isfinite(model.log_marginal_likelihood_)
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(std))

    def test_fixed_corner_kernel_fits_with_a_grown_jitter(self, data):
        X, y = data
        model = GaussianProcessRegressor(kernel=self.corner(), optimizer=None)
        model.fit(X, y)
        assert model.jitter_ > model.alpha
        assert np.all(np.isfinite(model.predict(X)))

    def test_factorable_kernel_keeps_alpha(self, data):
        X, y = data
        model = GaussianProcessRegressor(random_state=0).fit(X, y)
        assert model.jitter_ == model.alpha
