"""Tests for coverage diagnostics."""

import numpy as np
import pytest

from repro.core.intervals import PredictionIntervals
from repro.eval.diagnostics import coverage_by_group


@pytest.fixture()
def intervals():
    lower = np.array([0.0, 0.0, 0.0, 0.0])
    upper = np.array([1.0, 2.0, 1.0, 2.0])
    return PredictionIntervals(lower, upper)


class TestCoverageByGroup:
    def test_per_group_numbers(self, intervals):
        y = np.array([0.5, 3.0, 0.5, 1.5])
        groups = ["a", "a", "b", "b"]
        report = coverage_by_group(intervals, y, groups)
        assert report.groups == ("a", "b")
        assert report.counts == (2, 2)
        assert report.coverages == (0.5, 1.0)
        assert report.mean_widths == (1.5, 1.5)

    def test_boolean_groups(self, intervals):
        y = np.array([0.5, 0.5, 0.5, 0.5])
        report = coverage_by_group(
            intervals, y, np.array([True, False, True, False])
        )
        assert set(report.groups) == {True, False}

    def test_rejects_length_mismatch(self, intervals):
        with pytest.raises(ValueError, match="labels"):
            coverage_by_group(intervals, np.zeros(4), ["a"])
