"""Non-finite-input contract for every regressor in :mod:`repro.models`.

Property-style check: every model must raise a *clear* ``ValueError``
(never a numpy warning or a garbage prediction) when handed NaN or Inf
at either fit or predict time.  Robust serving relies on this contract:
:mod:`repro.robust` sanitizes inputs *because* the models refuse them.
"""

import warnings

import numpy as np
import pytest

from repro.models import (
    DecisionTreeRegressor,
    DeepEnsembleRegressor,
    GaussianProcessRegressor,
    GradientBoostingRegressor,
    LinearRegression,
    MLPRegressor,
    ObliviousBoostingRegressor,
    PackageDefaultQuantileBand,
    QuantileBandRegressor,
    QuantileLinearRegression,
)
from repro.models.base import check_X
from repro.models.tree import TreeGrowthParams

MODEL_FACTORIES = {
    "LinearRegression": lambda: LinearRegression(),
    "QuantileLinearRegression": lambda: QuantileLinearRegression(max_iter=50),
    "DecisionTreeRegressor": lambda: DecisionTreeRegressor(max_depth=3),
    "GradientBoostingRegressor": lambda: GradientBoostingRegressor(
        n_estimators=5, max_depth=2
    ),
    "ObliviousBoostingRegressor": lambda: ObliviousBoostingRegressor(
        n_estimators=5, depth=2, random_state=0
    ),
    "MLPRegressor": lambda: MLPRegressor(hidden_units=4, epochs=20, random_state=0),
    "GaussianProcessRegressor": lambda: GaussianProcessRegressor(
        optimizer=None, n_restarts=0, alpha=1e-6
    ),
    "DeepEnsembleRegressor": lambda: DeepEnsembleRegressor(
        template=LinearRegression(), n_members=2, random_state=0
    ),
    "QuantileBandRegressor": lambda: QuantileBandRegressor(
        QuantileLinearRegression(max_iter=50), alpha=0.2
    ),
    "PackageDefaultQuantileBand": lambda: PackageDefaultQuantileBand(
        QuantileLinearRegression(max_iter=50), random_state=0
    ),
}


@pytest.fixture(params=sorted(MODEL_FACTORIES), ids=str)
def model(request):
    return MODEL_FACTORIES[request.param]()


@pytest.fixture()
def data(rng):
    X = rng.normal(size=(40, 3))
    y = X @ np.array([1.0, -2.0, 0.5]) + rng.normal(scale=0.1, size=40)
    return X, y


def _predict(model, X):
    """Exercise whichever prediction surface the model exposes."""
    if hasattr(model, "predict_interval"):
        return model.predict_interval(X)
    return model.predict(X)


class TestNonFiniteInputsRejected:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=str)
    def test_fit_rejects_non_finite_X(self, model, data, bad):
        X, y = data
        X = X.copy()
        X[3, 1] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            model.fit(X, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=str)
    def test_fit_rejects_non_finite_y(self, model, data, bad):
        X, y = data
        y = y.copy()
        y[7] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            model.fit(X, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=str)
    def test_predict_rejects_non_finite_X(self, model, data, bad):
        X, y = data
        model.fit(X, y)
        X_bad = X.copy()
        X_bad[0, 0] = bad
        with warnings.catch_warnings():
            # A clear error, not a numpy all-NaN/overflow warning.
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="NaN or infinite"):
                _predict(model, X_bad)

    def test_clean_fit_predict_round_trip(self, model, data):
        X, y = data
        out = _predict(model.fit(X, y), X)
        flat = np.concatenate([np.asarray(o).ravel() for o in np.atleast_1d(out)])
        assert np.isfinite(flat).all()


NAN, INF = float("nan"), float("inf")


class TestNonFiniteHyperparametersRejected:
    """A NaN (or, where no limit makes sense, infinite) booster knob is a
    ``ValueError`` naming it, not a fit that predicts NaN."""

    @pytest.mark.parametrize(
        "factory, name, value",
        [
            (GradientBoostingRegressor, "learning_rate", NAN),
            (GradientBoostingRegressor, "learning_rate", INF),
            (GradientBoostingRegressor, "reg_lambda", NAN),
            (GradientBoostingRegressor, "gamma", NAN),
            (GradientBoostingRegressor, "min_child_weight", NAN),
            (ObliviousBoostingRegressor, "learning_rate", NAN),
            (ObliviousBoostingRegressor, "learning_rate", INF),
            (ObliviousBoostingRegressor, "l2_leaf_reg", NAN),
            (ObliviousBoostingRegressor, "random_strength", NAN),
            (ObliviousBoostingRegressor, "random_strength", INF),
        ],
        ids=lambda value: getattr(value, "__name__", str(value)),
    )
    def test_booster_refuses(self, data, factory, name, value):
        X, y = data
        with pytest.raises(ValueError, match=name):
            factory(n_estimators=3, **{name: value}).fit(X, y)

    @pytest.mark.parametrize(
        "name", ["max_depth", "min_samples_leaf", "min_child_weight",
                 "reg_lambda", "gamma"],
    )
    def test_growth_params_refuse_nan(self, name):
        with pytest.raises(ValueError, match=name):
            TreeGrowthParams(**{name: NAN})

    @pytest.mark.parametrize(
        "factory, name",
        [
            (GradientBoostingRegressor, "reg_lambda"),
            (GradientBoostingRegressor, "gamma"),
            (GradientBoostingRegressor, "min_child_weight"),
            (ObliviousBoostingRegressor, "l2_leaf_reg"),
        ],
        ids=lambda value: getattr(value, "__name__", str(value)),
    )
    def test_infinite_limit_still_fits(self, data, factory, name):
        X, y = data
        model = factory(n_estimators=3, **{name: INF}).fit(X, y)
        assert np.isfinite(model.predict(X)).all()


class TestCheckXColumnReporting:
    def test_error_names_offending_columns(self):
        X = np.zeros((5, 6))
        X[0, 1] = np.nan
        X[2, 4] = np.inf
        with pytest.raises(ValueError, match=r"column\(s\) \[1, 4\]"):
            check_X(X)

    def test_error_truncates_long_column_lists(self):
        X = np.full((3, 15), np.nan)
        with pytest.raises(ValueError, match=r"\(15 columns total\)"):
            check_X(X)

    def test_clean_matrix_passes(self, rng):
        X = rng.normal(size=(4, 3))
        np.testing.assert_array_equal(check_X(X), X)
