"""Tests for the GP kernel algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.kernels import (
    ConstantKernel,
    ProductKernel,
    RBFKernel,
    SumKernel,
    WhiteKernel,
)


def _random_inputs(seed=0, n=12, d=3):
    return np.random.default_rng(seed).normal(size=(n, d))


ALL_KERNELS = [
    RBFKernel(0.7),
    RBFKernel([0.5, 1.0, 2.0]),
    ConstantKernel(2.0),
    WhiteKernel(0.3),
    ConstantKernel(1.5) * RBFKernel(1.0) + WhiteKernel(0.1),
]


class TestPositiveSemidefinite:
    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: type(k).__name__)
    def test_gram_matrix_is_psd(self, kernel):
        X = _random_inputs()
        K = kernel(X)
        eigenvalues = np.linalg.eigvalsh((K + K.T) / 2)
        assert eigenvalues.min() > -1e-9

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=25)
    def test_rbf_psd_random_inputs(self, seed):
        X = _random_inputs(seed=seed, n=8, d=2)
        K = RBFKernel(1.0)(X)
        assert np.linalg.eigvalsh((K + K.T) / 2).min() > -1e-9


class TestRBF:
    def test_unit_diagonal(self):
        X = _random_inputs()
        np.testing.assert_allclose(np.diag(RBFKernel(1.0)(X)), 1.0)

    def test_matches_closed_form(self):
        X = np.array([[0.0], [1.0]])
        K = RBFKernel(2.0)(X)
        assert K[0, 1] == pytest.approx(np.exp(-0.5 / 4.0))

    def test_ard_length_scales(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        K = RBFKernel([0.5, 5.0])(X)
        # distance along the short-scale axis decays much faster
        assert K[0, 1] < K[0, 2]

    def test_cross_covariance_shape(self):
        K = RBFKernel(1.0)(_random_inputs(n=5), _random_inputs(seed=1, n=7))
        assert K.shape == (5, 7)

    def test_theta_roundtrip(self):
        kernel = RBFKernel([0.5, 2.0])
        clone = kernel.clone_with_theta(kernel.theta)
        np.testing.assert_allclose(clone.length_scale, kernel.length_scale)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            RBFKernel(0.0)


class TestWhite:
    def test_zero_cross_covariance(self):
        A = _random_inputs(n=4)
        B = _random_inputs(seed=2, n=6)
        np.testing.assert_array_equal(WhiteKernel(0.5)(A, B), 0.0)

    def test_diagonal_on_self(self):
        A = _random_inputs(n=4)
        np.testing.assert_allclose(WhiteKernel(0.5)(A), 0.5 * np.eye(4))


class TestComposition:
    def test_sum_adds(self):
        X = _random_inputs(n=5)
        combined = ConstantKernel(1.0) + ConstantKernel(2.0)
        np.testing.assert_allclose(combined(X), 3.0)

    def test_product_multiplies(self):
        X = _random_inputs(n=5)
        combined = ConstantKernel(2.0) * ConstantKernel(3.0)
        np.testing.assert_allclose(combined(X), 6.0)

    def test_scalar_promotes_to_constant(self):
        combined = 2.0 * RBFKernel(1.0)
        assert isinstance(combined, ProductKernel)

    def test_composite_theta_concatenates(self):
        combined = ConstantKernel(2.0) * RBFKernel(1.0) + WhiteKernel(0.1)
        assert combined.theta.size == 3
        assert combined.bounds.shape == (3, 2)

    def test_composite_theta_setter_propagates(self):
        combined = ConstantKernel(2.0) * RBFKernel(1.0) + WhiteKernel(0.1)
        new_theta = np.log([4.0, 0.5, 0.2])
        combined.theta = new_theta
        np.testing.assert_allclose(combined.theta, new_theta)
        assert combined.left.left.value == pytest.approx(4.0)

    def test_theta_setter_rejects_wrong_size(self):
        combined = ConstantKernel(2.0) + WhiteKernel(0.1)
        with pytest.raises(ValueError, match="entries"):
            combined.theta = np.zeros(5)

    def test_diag_consistent_with_full_matrix(self):
        X = _random_inputs(n=6)
        kernel = ConstantKernel(1.5) * RBFKernel(1.0) + WhiteKernel(0.2)
        np.testing.assert_allclose(kernel.diag(X), np.diag(kernel(X)))
