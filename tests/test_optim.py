"""Tests for the Adam optimiser."""

import numpy as np
import pytest

from repro.models.optim import Adam


def _minimise(optimizer, steps=500):
    """Drive ``f(w) = ||w - target||^2`` to its minimum."""
    target = np.array([1.0, -2.0, 3.0])
    w = np.zeros(3)
    for _ in range(steps):
        grad = 2.0 * (w - target)
        optimizer.step([w], [grad])
    return w, target


class TestAdam:
    def test_converges_on_quadratic(self):
        w, target = _minimise(Adam(learning_rate=0.05))
        np.testing.assert_allclose(w, target, atol=1e-2)

    def test_first_step_magnitude_is_learning_rate(self):
        # Adam's bias-corrected first step has magnitude ~lr regardless of
        # gradient scale.
        opt = Adam(learning_rate=0.01)
        w = np.array([0.0])
        opt.step([w], [np.array([1e6])])
        assert abs(w[0]) == pytest.approx(0.01, rel=1e-3)

    def test_updates_in_place(self):
        opt = Adam()
        w = np.zeros(2)
        ref = w
        opt.step([w], [np.ones(2)])
        assert ref is w and not np.all(w == 0)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="parameters"):
            Adam().step([np.zeros(1)], [np.zeros(1), np.zeros(1)])

    def test_rejects_changed_parameter_count(self):
        opt = Adam()
        opt.step([np.zeros(1)], [np.ones(1)])
        with pytest.raises(ValueError, match="length changed"):
            opt.step([np.zeros(1), np.zeros(1)], [np.ones(1), np.ones(1)])

    def test_reset_clears_state(self):
        opt = Adam()
        w = np.zeros(1)
        opt.step([w], [np.ones(1)])
        opt.reset()
        opt.step([np.zeros(2)], [np.ones(2)])  # no shape complaint after reset

    @pytest.mark.parametrize("lr", [0.0, -1.0])
    def test_rejects_bad_learning_rate(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            Adam(learning_rate=lr)

    def test_rejects_bad_betas(self):
        with pytest.raises(ValueError, match="betas"):
            Adam(beta1=1.0)
