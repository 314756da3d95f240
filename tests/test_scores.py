"""Tests for conformity score functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scores import absolute_residual_score, cqr_score

finite = st.floats(-100, 100, allow_nan=False)


class TestAbsoluteResidual:
    def test_values(self):
        scores = absolute_residual_score(
            np.array([1.0, 2.0]), np.array([3.0, 1.0])
        )
        np.testing.assert_allclose(scores, [2.0, 1.0])

    def test_nonnegative(self, rng):
        scores = absolute_residual_score(rng.normal(size=50), rng.normal(size=50))
        assert np.all(scores >= 0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            absolute_residual_score(np.zeros(3), np.zeros(2))

    def test_equals_cqr_score_on_a_zero_width_band(self, rng):
        """``max(ŷ − y, y − ŷ)`` is ``|y − ŷ|`` bit for bit, exact ties
        included: what lets a point model calibrate as the band [ŷ, ŷ]."""
        y = rng.normal(size=10_000)
        prediction = rng.normal(size=10_000)
        prediction[::7] = y[::7]  # exact ties: zero residuals
        assert np.array_equal(
            cqr_score(y, prediction, prediction),
            absolute_residual_score(y, prediction),
        )


class TestCQRScore:
    def test_inside_band_is_negative(self):
        scores = cqr_score(np.array([5.0]), np.array([0.0]), np.array([10.0]))
        assert scores[0] == -5.0

    def test_escape_below(self):
        scores = cqr_score(np.array([-2.0]), np.array([0.0]), np.array([10.0]))
        assert scores[0] == 2.0

    def test_escape_above(self):
        scores = cqr_score(np.array([13.0]), np.array([0.0]), np.array([10.0]))
        assert scores[0] == 3.0

    def test_on_boundary_is_zero(self):
        scores = cqr_score(np.array([0.0, 10.0]), np.zeros(2), np.full(2, 10.0))
        np.testing.assert_allclose(scores, 0.0)

    def test_rejects_unsorted_band(self):
        with pytest.raises(ValueError, match="sort"):
            cqr_score(np.zeros(1), np.array([1.0]), np.array([0.0]))

    @given(y=finite, lo=finite, width=st.floats(0, 100, allow_nan=False))
    @settings(max_examples=60)
    def test_score_iff_outside(self, y, lo, width):
        """s > 0 exactly when y escapes the closed band (Eq. 9 semantics)."""
        hi = lo + width
        score = cqr_score(np.array([y]), np.array([lo]), np.array([hi]))[0]
        outside = y < lo or y > hi
        assert (score > 0) == outside

    @given(y=finite, lo=finite, width=st.floats(0.0, 100, allow_nan=False))
    @settings(max_examples=60)
    def test_interval_widened_by_score_covers(self, y, lo, width):
        """[lo - s, hi + s] always contains y -- the CQR reconstruction."""
        hi = lo + width
        score = cqr_score(np.array([y]), np.array([lo]), np.array([hi]))[0]
        eps = 1e-9 * max(1.0, abs(y), abs(lo), abs(hi))
        assert lo - score - eps <= y <= hi + score + eps

