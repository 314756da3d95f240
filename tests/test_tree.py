"""Tests for the exact-greedy gradient tree and DecisionTreeRegressor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.tree import DecisionTreeRegressor, GradientTree, TreeGrowthParams


class TestGrowthParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_depth": -1},
            {"min_samples_leaf": 0},
            {"min_child_weight": -1.0},
            {"reg_lambda": -0.1},
            {"gamma": -0.5},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TreeGrowthParams(**kwargs)


class TestGradientTree:
    def test_single_leaf_is_newton_step(self):
        X = np.zeros((4, 1))
        grads = np.array([1.0, 2.0, 3.0, 4.0])
        hess = np.ones(4)
        tree = GradientTree(TreeGrowthParams(max_depth=0, reg_lambda=0.0))
        tree.fit_gradients(X, grads, hess)
        np.testing.assert_allclose(tree.predict(X), -grads.sum() / 4.0)

    def test_perfect_step_split(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        grads = np.array([-1.0, -1.0, 1.0, 1.0])
        tree = GradientTree(TreeGrowthParams(max_depth=1, reg_lambda=0.0))
        tree.fit_gradients(X, grads, np.ones(4))
        prediction = tree.predict(X)
        np.testing.assert_allclose(prediction, [1.0, 1.0, -1.0, -1.0])

    def test_min_samples_leaf_respected(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        grads = np.array([-1.0] + [1.0] * 9)  # best unrestricted split isolates one point
        tree = GradientTree(
            TreeGrowthParams(max_depth=3, min_samples_leaf=3, reg_lambda=0.0)
        )
        tree.fit_gradients(X, grads, np.ones(10))
        # Every leaf must contain >= 3 training samples.
        leaf_of = np.array(
            [np.flatnonzero(tree.predict(X[i : i + 1]) == tree.value_)[0] for i in range(10)]
        )
        _, counts = np.unique(leaf_of, return_counts=True)
        assert counts.min() >= 3

    def test_gamma_prunes_weak_splits(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 2))
        grads = rng.normal(scale=0.01, size=50)  # almost no structure
        strict = GradientTree(TreeGrowthParams(max_depth=4, gamma=100.0))
        strict.fit_gradients(X, grads, np.ones(50))
        assert strict.n_leaves == 1

    def test_rejects_bad_shapes(self):
        tree = GradientTree()
        with pytest.raises(ValueError):
            tree.fit_gradients(np.zeros((3, 1)), np.zeros(2), np.zeros(3))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            GradientTree().predict(np.zeros((2, 2)))

    def test_predict_validates_feature_width(self):
        """The raw tree rejects mismatched X width with a clear error:
        extra columns used to score silently and missing columns died
        with a bare IndexError mid-walk."""
        X = np.column_stack([np.arange(8.0), np.zeros(8)])
        grads = np.array([-1.0] * 4 + [1.0] * 4)
        tree = GradientTree(TreeGrowthParams(max_depth=2, reg_lambda=0.0))
        tree.fit_gradients(X, grads, np.ones(8))
        assert tree.n_features_in_ == 2
        with pytest.raises(ValueError, match="5 features.*fitted with 2"):
            tree.predict(np.zeros((3, 5)))
        with pytest.raises(ValueError, match="1 features.*fitted with 2"):
            tree.predict(np.zeros((3, 1)))
        with pytest.raises(ValueError, match="2-D"):
            tree.predict(np.zeros(2))


class TestDecisionTreeRegressor:
    def test_leaves_predict_leaf_means(self, rng):
        """CART invariant: training prediction equals the mean of the
        targets sharing the same leaf."""
        X = rng.normal(size=(80, 3))
        y = rng.normal(size=80)
        model = DecisionTreeRegressor(max_depth=3, min_samples_leaf=5).fit(X, y)
        prediction = model.predict(X)
        for value in np.unique(prediction):
            members = prediction == value
            assert np.mean(y[members]) == pytest.approx(value, abs=1e-10)

    def test_fits_piecewise_constant_exactly(self):
        X = np.arange(20, dtype=float).reshape(-1, 1)
        y = np.where(X[:, 0] < 10, -1.0, 2.0)
        model = DecisionTreeRegressor(max_depth=2).fit(X, y)
        np.testing.assert_allclose(model.predict(X), y)

    def test_deeper_fits_training_better(self, rng):
        X = rng.normal(size=(100, 2))
        y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2
        shallow = DecisionTreeRegressor(max_depth=1).fit(X, y)
        deep = DecisionTreeRegressor(max_depth=6).fit(X, y)
        assert deep.score(X, y) > shallow.score(X, y)

    @given(seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_partition_consistency(self, seed):
        """Every training point predicts exactly one of the leaf values."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        model = DecisionTreeRegressor(max_depth=3).fit(X, y)
        prediction = model.predict(X)
        assert np.isin(prediction, model.tree_.value_).all()

    def test_predict_wrong_width(self, rng):
        X = rng.normal(size=(30, 2))
        model = DecisionTreeRegressor().fit(X, rng.normal(size=30))
        with pytest.raises(ValueError, match="features"):
            model.predict(np.zeros((2, 5)))
