"""Tests for repro.models.losses, including property-based checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.losses import (
    mse_gradient_hessian,
    mse_loss,
    pinball_gradient_hessian,
    pinball_loss,
    validate_quantile,
)

finite_floats = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
quantiles = st.floats(0.01, 0.99)


class TestValidateQuantile:
    @pytest.mark.parametrize("q", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_out_of_range(self, q):
        with pytest.raises(ValueError, match="quantile"):
            validate_quantile(q)

    def test_accepts_and_casts(self):
        assert validate_quantile(np.float32(0.5)) == pytest.approx(0.5)


class TestMSE:
    def test_zero_for_exact(self):
        y = np.array([1.0, 2.0])
        assert mse_loss(y, y) == 0.0

    def test_known_value(self):
        assert mse_loss(np.array([0.0, 0.0]), np.array([1.0, 3.0])) == pytest.approx(5.0)

    def test_gradient_hessian_shapes_and_values(self):
        y = np.array([1.0, 2.0, 3.0])
        pred = np.array([2.0, 2.0, 2.0])
        grad, hess = mse_gradient_hessian(y, pred)
        np.testing.assert_allclose(grad, [1.0, 0.0, -1.0])
        np.testing.assert_allclose(hess, 1.0)


class TestPinball:
    def test_matches_hand_computed(self):
        # residual +2 at q=0.9 -> 1.8 ; residual -2 -> 0.2
        assert pinball_loss(np.array([2.0]), np.array([0.0]), 0.9) == pytest.approx(1.8)
        assert pinball_loss(np.array([0.0]), np.array([2.0]), 0.9) == pytest.approx(0.2)

    def test_symmetric_at_median_is_half_mae(self):
        y = np.array([1.0, -3.0, 2.0])
        pred = np.zeros(3)
        assert pinball_loss(y, pred, 0.5) == pytest.approx(np.mean(np.abs(y)) / 2)

    def test_minimised_by_empirical_quantile(self, rng):
        y = rng.normal(size=2000)
        q = 0.8
        target = np.quantile(y, q)
        losses = {
            c: pinball_loss(y, np.full_like(y, c), q)
            for c in (target - 0.3, target, target + 0.3)
        }
        assert losses[target] == min(losses.values())

    @given(q=quantiles, residual=finite_floats)
    def test_nonnegative(self, q, residual):
        loss = pinball_loss(np.array([residual]), np.array([0.0]), q)
        assert loss >= 0.0

    @given(q=quantiles, y=finite_floats, a=finite_floats, b=finite_floats)
    @settings(max_examples=60)
    def test_convex_along_prediction(self, q, y, a, b):
        """Pinball loss is convex in the prediction."""
        ya = pinball_loss(np.array([y]), np.array([a]), q)
        yb = pinball_loss(np.array([y]), np.array([b]), q)
        mid = pinball_loss(np.array([y]), np.array([(a + b) / 2]), q)
        assert mid <= (ya + yb) / 2 + 1e-9

    def test_gradient_sign_convention(self):
        y = np.array([1.0, -1.0])
        pred = np.array([0.0, 0.0])
        grad, hess = pinball_gradient_hessian(y, pred, 0.9)
        # under-prediction (y > pred): gradient -q pushes prediction up
        assert grad[0] == pytest.approx(-0.9)
        assert grad[1] == pytest.approx(0.1)
        np.testing.assert_allclose(hess, 1.0)

    @given(q=quantiles)
    def test_gradient_matches_loss_slope(self, q):
        y = np.array([0.0])
        eps = 1e-6
        for pred in (-1.0, 1.0):  # away from the kink
            grad, _ = pinball_gradient_hessian(y, np.array([pred]), q)
            numeric = (
                pinball_loss(y, np.array([pred + eps]), q)
                - pinball_loss(y, np.array([pred - eps]), q)
            ) / (2 * eps)
            assert grad[0] == pytest.approx(numeric, abs=1e-5)
