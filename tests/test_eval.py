"""Tests for metrics, cross-validation, and reporting."""

import numpy as np
import pytest

from repro.eval.crossval import (
    KFold,
    cross_validate_intervals,
    cross_validate_point,
)
from repro.eval.metrics import r2_score, rmse
from repro.eval.reporting import format_series, format_table
from repro.models.linear import LinearRegression, QuantileLinearRegression
from repro.models.quantile import QuantileBandRegressor


class TestMetrics:
    def test_r2_perfect(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, y) == 1.0

    def test_r2_mean_prediction_is_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, np.full(3, 2.0)) == pytest.approx(0.0)

    def test_r2_worse_than_mean_negative(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, np.array([3.0, 2.0, 1.0])) < 0

    def test_r2_constant_target(self):
        y = np.full(4, 5.0)
        assert r2_score(y, y) == 1.0
        assert r2_score(y, y + 1) == 0.0

    def test_rmse_known_value(self):
        assert rmse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(
            np.sqrt(12.5)
        )

    def test_metrics_reject_empty(self):
        with pytest.raises(ValueError):
            r2_score(np.array([]), np.array([]))


class TestKFold:
    def test_partitions_all_samples(self):
        kfold = KFold(n_splits=4, random_state=0)
        seen = []
        for train, test in kfold.split(103):
            assert len(set(train) & set(test)) == 0
            seen.extend(test.tolist())
        assert sorted(seen) == list(range(103))

    def test_fold_sizes_balanced(self):
        sizes = [len(test) for _, test in KFold(n_splits=4, random_state=0).split(10)]
        assert sorted(sizes) == [2, 2, 3, 3]

    def test_same_seed_same_folds(self):
        a = [test.tolist() for _, test in KFold(4, random_state=3).split(50)]
        b = [test.tolist() for _, test in KFold(4, random_state=3).split(50)]
        assert a == b

    def test_no_shuffle_contiguous(self):
        folds = list(KFold(2, shuffle=False).split(6))
        np.testing.assert_array_equal(folds[0][1], [0, 1, 2])

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError):
            list(KFold(5).split(3))

    def test_rejects_bad_n_splits(self):
        with pytest.raises(ValueError):
            KFold(n_splits=1)


class TestCrossValidate:
    def test_point_cv_scores_reasonable(self, rng):
        X = rng.normal(size=(120, 3))
        y = X[:, 0] + rng.normal(scale=0.1, size=120)
        result = cross_validate_point(
            lambda Xt, yt: LinearRegression().fit(Xt, yt),
            X,
            y,
            KFold(4, random_state=0),
        )
        assert result.n_folds == 4
        assert result.r2 > 0.9
        assert result.rmse < 0.2

    def test_interval_cv_collects_both_metrics(self, rng):
        X = rng.normal(size=(200, 2))
        y = X[:, 0] + rng.normal(size=200)

        def builder(Xt, yt):
            return QuantileBandRegressor(QuantileLinearRegression(), alpha=0.2).fit(
                Xt, yt
            )

        result = cross_validate_intervals(builder, X, y, KFold(4, random_state=0))
        assert 0.5 < result.coverage <= 1.0
        assert result.width > 0
        assert len(result.width_per_fold) == 4

    def test_builder_never_sees_test_data(self, rng):
        X = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        seen_sizes = []

        def builder(Xt, yt):
            seen_sizes.append(len(yt))
            return LinearRegression().fit(Xt, yt)

        cross_validate_point(builder, X, y, KFold(4, random_state=0))
        assert all(size == 30 for size in seen_sizes)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["A", "BB"], [[1.5, "x"], [2.25, "yy"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_format_table_title(self):
        text = format_table(["A"], [[1.0]], title="My Table")
        assert text.startswith("My Table")

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="cells"):
            format_table(["A", "B"], [[1.0]])

    def test_format_series_columns(self):
        text = format_series("x", [0, 1], {"s1": [1.0, 2.0], "s2": [3.0, 4.0]})
        assert "s1" in text and "s2" in text
        assert "3.00" in text

    def test_format_series_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="points"):
            format_series("x", [0, 1], {"s": [1.0]})
