"""Tests for the health guard and the bounded imputer."""

import numpy as np
import pytest

from repro.models.base import NotFittedError
from repro.robust.guard import FeatureHealthGuard
from repro.robust.imputation import TrainStatImputer


@pytest.fixture()
def train(rng):
    X = rng.normal(size=(200, 6)) * np.array([1.0, 2.0, 0.5, 3.0, 1.0, 1.0])
    X[:, 5] = 4.2  # constant at train time
    return X


@pytest.fixture()
def guard(train):
    return FeatureHealthGuard().fit(train)


class TestFeatureHealthGuard:
    def test_clean_batch_is_healthy(self, guard, train):
        report = guard.assess(train[:50])
        assert report.healthy
        assert report.unhealthy_fraction == 0.0
        assert report.damaged_entry_fraction == 0.0

    def test_missing_entries_flagged(self, guard, train):
        batch = train[:10].copy()
        batch[0, 1] = np.nan
        batch[3, 2] = np.inf
        report = guard.assess(batch)
        assert report.missing[0, 1] and report.missing[3, 2]
        assert report.missing.sum() == 2
        assert not report.healthy

    def test_dead_column_is_unhealthy(self, guard, train):
        batch = train[:10].copy()
        batch[:, 4] = np.nan
        report = guard.assess(batch)
        assert report.unhealthy[4]
        assert report.unhealthy_fraction == pytest.approx(1 / 6)

    def test_stuck_column_detected(self, guard, train):
        batch = train[:10].copy()
        batch[:, 0] = batch[0, 0]
        report = guard.assess(batch)
        assert report.stuck[0]
        assert report.unhealthy[0]

    def test_train_constant_column_not_stuck(self, guard, train):
        report = guard.assess(train[:10])
        assert not report.stuck[5]

    def test_single_sample_cannot_be_stuck(self, guard, train):
        report = guard.assess(train[:1])
        assert not report.stuck.any()

    def test_out_of_range_detected(self, guard, train):
        batch = train[:10].copy()
        batch[2, 3] = 1e6
        report = guard.assess(batch)
        assert report.out_of_range[2, 3]
        assert report.out_of_range.sum() == 1

    def test_moderate_values_stay_in_range(self, guard, train):
        batch = train[:50].copy()
        batch[:, :5] *= 1.05  # mild drift on the varying columns
        report = guard.assess(batch)
        assert report.out_of_range.mean() < 0.05

    def test_unhealthy_fraction_of_subset(self, guard, train):
        batch = train[:10].copy()
        batch[:, 4] = np.nan
        report = guard.assess(batch)
        assert report.unhealthy_fraction_of([4]) == 1.0
        assert report.unhealthy_fraction_of([0, 1]) == 0.0
        assert report.unhealthy_fraction_of([]) == 0.0
        with pytest.raises(ValueError, match="column indices"):
            report.unhealthy_fraction_of([99])

    def test_describe_mentions_counts(self, guard, train):
        batch = train[:10].copy()
        batch[:, 4] = np.nan
        text = guard.assess(batch).describe()
        assert "unhealthy" in text and "10 missing" in text

    def test_structural_errors_raise(self, guard, train):
        with pytest.raises(ValueError, match="2-D"):
            guard.assess(train[0])
        with pytest.raises(ValueError, match="features"):
            guard.assess(train[:5, :3])

    def test_unfitted_raises(self, train):
        with pytest.raises(NotFittedError):
            FeatureHealthGuard().assess(train)

    def test_fit_requires_clean_training_data(self, train):
        dirty = train.copy()
        dirty[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN or infinite"):
            FeatureHealthGuard().fit(dirty)


class TestTrainStatImputer:
    def test_output_is_always_finite(self, guard, train, rng):
        imputer = TrainStatImputer().fit(train)
        batch = train[:20].copy()
        batch[rng.random(batch.shape) < 0.5] = np.nan
        batch[0, 0] = np.inf
        out = imputer.transform(batch, guard.assess(batch))
        assert np.isfinite(out).all()

    def test_missing_replaced_by_median(self, guard, train):
        imputer = TrainStatImputer().fit(train)
        batch = train[:5].copy()
        batch[:, 2] = np.nan
        out = imputer.transform(batch, guard.assess(batch))
        np.testing.assert_allclose(out[:, 2], np.median(train[:, 2]))

    def test_healthy_entries_untouched(self, guard, train):
        # Training rows lie inside the clip range: nothing is clipped.
        imputer = TrainStatImputer().fit(train)
        out = imputer.transform(train[:20], guard.assess(train[:20]))
        np.testing.assert_array_equal(out, train[:20])

    def test_stuck_columns_medianised(self, guard, train):
        imputer = TrainStatImputer().fit(train)
        batch = train[:5].copy()
        batch[:, 1] = batch[0, 1]
        report = guard.assess(batch)
        assert report.stuck[1]
        out = imputer.transform(batch, report)
        np.testing.assert_allclose(out[:, 1], np.median(train[:, 1]))

    def test_clipping_bounds_extrapolation(self, guard, train):
        """Values clip to the training range widened by a quarter span."""
        imputer = TrainStatImputer().fit(train)
        batch = train[:5].copy()
        batch[0, 0] = 1e9
        batch[1, 0] = -1e9
        out = imputer.transform(batch, guard.assess(batch))
        high, low = train[:, 0].max(), train[:, 0].min()
        assert out[0, 0] == high + 0.25 * (high - low)
        assert out[1, 0] == low - 0.25 * (high - low)

    def test_input_not_mutated(self, guard, train):
        imputer = TrainStatImputer().fit(train)
        batch = train[:5].copy()
        batch[0, 0] = np.nan
        snapshot = batch.copy()
        imputer.transform(batch, guard.assess(batch))
        np.testing.assert_array_equal(
            np.isnan(batch), np.isnan(snapshot)
        )

    def test_structural_errors_raise(self, guard, train):
        imputer = TrainStatImputer().fit(train)
        with pytest.raises(ValueError, match="features"):
            imputer.transform(train[:5, :3], guard.assess(train[:5]))
        with pytest.raises(ValueError, match="report covers a batch"):
            imputer.transform(train[:5], guard.assess(train[:4]))

    def test_unfitted_raises(self, guard, train):
        with pytest.raises(NotFittedError):
            TrainStatImputer().transform(train, guard.assess(train))
