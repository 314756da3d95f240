"""Tests for the PredictionIntervals container."""

import numpy as np
import pytest

from repro.core.intervals import PredictionIntervals, collapse_crossed


class TestValidation:
    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError, match="exceeds"):
            PredictionIntervals(np.array([1.0, 2.0]), np.array([2.0, 1.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            PredictionIntervals(np.zeros(3), np.zeros(4))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            PredictionIntervals(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            PredictionIntervals(np.array([0.0, np.nan]), np.array([1.0, 2.0]))

    def test_degenerate_zero_width_allowed(self):
        intervals = PredictionIntervals(np.ones(3), np.ones(3))
        np.testing.assert_array_equal(intervals.width, 0.0)


class TestMetrics:
    @pytest.fixture()
    def intervals(self):
        return PredictionIntervals(
            np.array([0.0, 1.0, 2.0]), np.array([1.0, 3.0, 2.5])
        )

    def test_len(self, intervals):
        assert len(intervals) == 3

    def test_width(self, intervals):
        np.testing.assert_allclose(intervals.width, [1.0, 2.0, 0.5])
        assert intervals.mean_width == pytest.approx(3.5 / 3)

    def test_midpoint(self, intervals):
        np.testing.assert_allclose(intervals.midpoint, [0.5, 2.0, 2.25])

    def test_contains_boundary_inclusive(self, intervals):
        mask = intervals.contains(np.array([0.0, 3.0, 2.6]))
        np.testing.assert_array_equal(mask, [True, True, False])

    def test_coverage(self, intervals):
        assert intervals.coverage(np.array([0.5, 10.0, 2.2])) == pytest.approx(2 / 3)

    def test_contains_rejects_wrong_shape(self, intervals):
        with pytest.raises(ValueError, match="shape"):
            intervals.contains(np.zeros(5))

    def test_clip(self, intervals):
        clipped = intervals.clip(minimum=0.5, maximum=2.4)
        assert clipped.lower.min() >= 0.5
        assert clipped.upper.max() <= 2.4
        # original untouched (frozen dataclass semantics)
        assert intervals.upper.max() == 3.0


class TestCollapseCrossed:
    def test_crossed_pairs_collapse_to_their_midpoint(self):
        lower = np.array([0.0, 3.0, 1.0])
        upper = np.array([1.0, 1.0, 1.0])
        intervals = collapse_crossed(lower, upper)
        assert np.array_equal(intervals.lower, [0.0, 2.0, 1.0])
        assert np.array_equal(intervals.upper, [1.0, 2.0, 1.0])

    def test_ordered_bounds_pass_through_unchanged(self, rng):
        lower = rng.normal(size=20)
        upper = lower + rng.uniform(0.0, 1.0, size=20)
        intervals = collapse_crossed(lower, upper)
        assert np.array_equal(intervals.lower, lower)
        assert np.array_equal(intervals.upper, upper)
