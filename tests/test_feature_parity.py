"""Parity of the one CFS feature pipeline with the code it replaced.

The CFS scan reads every correlation from ``feature_target_correlation``,
where it once had its own column-vs-vector kernel; the Fig.-2 point cells
(LR, GP, NN) and the Table-III GP cell fit through
``CFSSelectedRegressor``, where they once had their own select -> scale
-> fit composition.  Both replaced bodies live in
:mod:`tests.oracles.features`.  Every comparison is between two code
paths in this process, bit for bit with sign bits, so it holds on any
BLAS; the smoke tables print two decimals and would miss one moved bit.
"""

import numpy as np
import pytest

from repro.eval.crossval import KFold, cross_validate_intervals, cross_validate_point
from repro.eval.experiments import (
    ExperimentProfile,
    FeatureSet,
    _experiment_data,
    _GPIntervalAdapter,
    _point_template,
    run_point_experiment,
    run_region_experiment,
)
from repro.features.cfs import CFSSelector, feature_target_correlation
from repro.features.selection import CFSSelectedRegressor
from repro.models.base import clone
from repro.models.gp import GaussianProcessRegressor
from tests.oracles.features import SelectedFeatureModel, batch_abs_pearson, cfs_scan

PROFILE = ExperimentProfile.smoke()
SEED = 3
ALPHA = 0.1


def assert_same_floats(actual, expected):
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


@pytest.fixture(scope="module")
def cell(small_lot):
    """The 25 degC / 168 h cell, in mV as the runners model it."""
    return _experiment_data(small_lot, 25.0, 168, FeatureSet.BOTH)


class TestPearsonKernel:
    def test_matches_batch_abs_pearson_on_scaled_columns(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(60, 30)) * np.logspace(-9, 3, 30)
            X[:, rng.integers(30)] = 2.5
            for j in range(30):
                assert_same_floats(
                    np.abs(feature_target_correlation(X, X[:, j])),
                    batch_abs_pearson(X, X[:, j]),
                )

    def test_matches_batch_abs_pearson_on_the_lot(self, lot):
        X, _ = lot.features(1008)
        for j in np.linspace(0, X.shape[1] - 1, 30).astype(int):
            assert_same_floats(
                np.abs(feature_target_correlation(X, X[:, j])),
                batch_abs_pearson(X, X[:, j]),
            )


@pytest.mark.parametrize("hours", [0, 1008])
def test_cfs_selector_matches_oracle_scan(lot, hours):
    X, _ = lot.features(hours)
    y = lot.target(25.0, hours)
    selector = CFSSelector(k_max=10).fit(X, y)
    selected, merits = cfs_scan(X, y, k_max=10)
    assert selector.selected_ == selected
    assert_same_floats(selector.merits_, merits)


class TestSelectedModel:
    @pytest.mark.parametrize("name", ["LR", "GP", "NN"])
    def test_predict_matches_oracle(self, cell, name):
        X, y = cell
        template = _point_template(name, PROFILE, SEED)
        scale = name in ("GP", "NN")
        merged = clone(CFSSelectedRegressor(template, k=5, scale=scale))
        oracle = SelectedFeatureModel(clone(template), k=5, scale=scale)
        assert_same_floats(
            merged.fit(X[:40], y[:40]).predict(X[40:]),
            oracle.fit(X[:40], y[:40]).predict(X[40:]),
        )

    def test_gp_interval_matches_oracle(self, cell):
        X, y = cell
        gp = GaussianProcessRegressor(n_restarts=PROFILE.gp_restarts, random_state=SEED)
        merged = clone(CFSSelectedRegressor(_GPIntervalAdapter(gp, ALPHA), k=10, scale=True))
        oracle = SelectedFeatureModel(clone(gp), k=10, scale=True)
        lower, upper = merged.fit(X[:40], y[:40]).predict_interval(X[40:])
        oracle_lower, oracle_upper = oracle.fit(X[:40], y[:40]).predict_interval(
            X[40:], alpha=ALPHA
        )
        assert_same_floats(lower, oracle_lower)
        assert_same_floats(upper, oracle_upper)


class TestExperimentCells:
    """Per-fold results of the runners against the oracle composition."""

    @pytest.mark.parametrize("name", ["LR", "GP", "NN"])
    def test_point_cell(self, small_lot, cell, name):
        X, y = cell
        template = _point_template(name, PROFILE, SEED)
        kfold = KFold(n_splits=PROFILE.n_folds, shuffle=True, random_state=SEED)
        (k,) = PROFILE.cfs_k_values

        def builder(X_train, y_train):
            return SelectedFeatureModel(
                clone(template), k=k, scale=name in ("GP", "NN")
            ).fit(X_train, y_train)

        expected = cross_validate_point(builder, X, y, kfold)
        result = run_point_experiment(
            small_lot, name, 25.0, 168, profile=PROFILE, seed=SEED
        )
        assert_same_floats(result.r2_per_fold, expected.r2_per_fold)
        assert_same_floats(result.rmse_per_fold, expected.rmse_per_fold)

    def test_gp_region_cell(self, small_lot, cell):
        X, y = cell
        kfold = KFold(n_splits=PROFILE.n_folds, shuffle=True, random_state=SEED)

        class Oracle(SelectedFeatureModel):
            def predict_interval(self, X):
                return super().predict_interval(X, alpha=ALPHA)

        def builder(X_train, y_train):
            gp = GaussianProcessRegressor(
                n_restarts=PROFILE.gp_restarts, random_state=SEED
            )
            return Oracle(gp, k=10, scale=True).fit(X_train, y_train)

        expected = cross_validate_intervals(builder, X, y, kfold)
        result = run_region_experiment(
            small_lot, "GP", 25.0, 168, alpha=ALPHA, profile=PROFILE, seed=SEED
        )
        assert_same_floats(result.coverage_per_fold, expected.coverage_per_fold)
        assert_same_floats(result.width_per_fold, expected.width_per_fold)
