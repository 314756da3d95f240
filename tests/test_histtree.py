"""Tests for binning and the histogram tree grower."""

import numpy as np
import pytest

from repro.models.base import NotFittedError
from repro.models.binning import FeatureBinner
from repro.models.gbm import GradientBoostingRegressor
from repro.models.histtree import grow_histogram_tree
from repro.models.tree import GradientTree, TreeGrowthParams
from tests.oracles.binning import quantile_bin_edges


class TestQuantileBinEdges:
    def test_constant_column_has_no_edges(self):
        assert quantile_bin_edges(np.full(10, 3.0), 8).size == 0

    def test_few_distinct_values_use_midpoints(self):
        column = np.array([0.0, 0.0, 1.0, 1.0, 2.0])
        edges = quantile_bin_edges(column, 16)
        np.testing.assert_allclose(edges, [0.5, 1.5])

    def test_many_values_capped_by_max_bins(self):
        column = np.linspace(0, 1, 500)
        edges = quantile_bin_edges(column, 8)
        assert edges.size <= 7

    def test_edges_strictly_increasing(self, rng):
        edges = quantile_bin_edges(rng.normal(size=300), 16)
        assert np.all(np.diff(edges) > 0)

    def test_rejects_bad_max_bins(self):
        with pytest.raises(ValueError, match="max_bins"):
            quantile_bin_edges(np.arange(5.0), 1)


class TestFeatureBinner:
    def test_transform_codes_within_range(self, rng):
        X = rng.normal(size=(100, 5))
        binner = FeatureBinner(max_bins=8)
        codes = binner.fit_transform(X)
        assert codes.min() >= 0 and codes.max() < binner.n_bins

    def test_codes_monotone_in_value(self, rng):
        X = rng.normal(size=(50, 1))
        binner = FeatureBinner(max_bins=8).fit(X)
        order = np.argsort(X[:, 0])
        codes = binner.transform(X)[order, 0]
        assert np.all(np.diff(codes) >= 0)

    def test_threshold_maps_back_to_raw_units(self, rng):
        X = rng.normal(size=(60, 2))
        binner = FeatureBinner(max_bins=8).fit(X)
        codes = binner.transform(X)
        threshold = binner.threshold(0, 2)
        goes_right_binned = codes[:, 0] > 2
        goes_right_raw = X[:, 0] > threshold
        np.testing.assert_array_equal(goes_right_binned, goes_right_raw)

    def test_transform_rejects_wrong_width(self, rng):
        binner = FeatureBinner().fit(rng.normal(size=(10, 3)))
        with pytest.raises(ValueError, match="columns"):
            binner.transform(rng.normal(size=(5, 2)))

    def test_threshold_rejects_out_of_range(self, rng):
        binner = FeatureBinner(max_bins=4).fit(rng.normal(size=(10, 1)))
        with pytest.raises(IndexError):
            binner.threshold(0, 99)

    def test_unfitted_binner_raises_not_fitted(self, rng):
        binner = FeatureBinner()
        with pytest.raises(NotFittedError):
            binner.transform(rng.normal(size=(3, 2)))
        with pytest.raises(NotFittedError):
            binner.threshold(0, 0)

    def test_zero_column_fit_still_transforms(self):
        binner = FeatureBinner().fit(np.empty((5, 0)))
        assert binner.edges_ == []
        assert binner.transform(np.empty((3, 0))).shape == (3, 0)


class TestHistogramGrower:
    def _grow_both(self, X, grads, hess, params, max_bins=256):
        binner = FeatureBinner(max_bins=max_bins)
        binned = binner.fit_transform(X)
        hist_tree = grow_histogram_tree(binned, binner, grads, hess, params)
        exact_tree = GradientTree(params).fit_gradients(X, grads, hess)
        return hist_tree, exact_tree

    def test_equivalent_to_exact_on_small_data(self, rng):
        """With bins >= distinct values both growers see the same splits."""
        X = rng.normal(size=(40, 4))
        grads = rng.normal(size=40)
        params = TreeGrowthParams(max_depth=3, reg_lambda=1.0)
        hist_tree, exact_tree = self._grow_both(X, grads, np.ones(40), params)
        np.testing.assert_allclose(
            hist_tree.predict(X), exact_tree.predict(X), atol=1e-10
        )

    def test_equivalence_across_seeds(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(25, 3))
            grads = rng.normal(size=25)
            params = TreeGrowthParams(max_depth=2, min_samples_leaf=2)
            hist_tree, exact_tree = self._grow_both(X, grads, np.ones(25), params)
            np.testing.assert_allclose(
                hist_tree.predict(X), exact_tree.predict(X), atol=1e-10
            )

    def test_respects_max_depth_zero(self, rng):
        X = rng.normal(size=(20, 2))
        grads = rng.normal(size=20)
        params = TreeGrowthParams(max_depth=0)
        binner = FeatureBinner()
        tree = grow_histogram_tree(
            binner.fit_transform(X), binner, grads, np.ones(20), params
        )
        assert tree.n_leaves == 1

    def test_prediction_operates_on_raw_features(self, rng):
        """The grown tree predicts directly on raw, un-binned matrices."""
        X = rng.normal(size=(50, 3))
        grads = np.sign(X[:, 0])
        params = TreeGrowthParams(max_depth=2)
        binner = FeatureBinner()
        tree = grow_histogram_tree(
            binner.fit_transform(X), binner, grads, np.ones(50), params
        )
        X_new = rng.normal(size=(10, 3))
        prediction = tree.predict(X_new)  # must not raise, raw inputs
        assert prediction.shape == (10,)

    def test_shortlist_keeps_strong_feature(self, rng):
        X = rng.normal(size=(80, 20))
        grads = np.sign(X[:, 7]) * 2.0 + rng.normal(scale=0.1, size=80)
        params = TreeGrowthParams(max_depth=3)
        binner = FeatureBinner()
        binned = binner.fit_transform(X)
        tree = grow_histogram_tree(
            binned, binner, grads, np.ones(80), params, feature_shortlist=3
        )
        used = set(tree.feature_[tree.feature_ >= 0].tolist())
        assert 7 in used

    @pytest.mark.parametrize("unit_hessian", [True, False])
    def test_leaf_values_are_newton_steps_of_their_rows(self, rng, unit_hessian):
        """Rows re-slotted level by level land where the tree routes them:
        every leaf's value is -G/(H+λ) over exactly the training rows that
        reach it, including leaves that stopped splitting early."""
        X = rng.normal(size=(150, 6))
        X[:, 0] = np.round(X[:, 0])
        grads = np.sign(X[:, 0]) + rng.normal(scale=0.5, size=150)
        hess = np.ones(150) if unit_hessian else rng.uniform(0.5, 2.0, size=150)
        params = TreeGrowthParams(max_depth=5, reg_lambda=1.0, gamma=2.0)
        binner = FeatureBinner(max_bins=16)
        tree = grow_histogram_tree(
            binner.fit_transform(X), binner, grads, hess, params
        )
        node = np.zeros(150, dtype=np.int64)
        depth = np.zeros(150, dtype=np.int64)
        while np.any(tree.feature_[node] >= 0):
            rows = np.flatnonzero(tree.feature_[node] >= 0)
            split = node[rows]
            goes_left = X[rows, tree.feature_[split]] <= tree.threshold_[split]
            node[rows] = np.where(goes_left, tree.left_[split], tree.right_[split])
            depth[rows] += 1
        assert depth.min() < depth.max() <= params.max_depth
        leaves = np.unique(node)
        g = np.bincount(node, weights=grads)[leaves]
        h = np.bincount(node, weights=hess)[leaves]
        np.testing.assert_array_equal(tree.value_[leaves], -g / (h + 1.0))

    def test_constant_matrix_grows_root_only_trees(self, rng):
        """Every column constant: one bin, no split candidates.  The
        level scan used to take an argmax over zero boundaries."""
        X = np.full((30, 4), 2.5)
        y = rng.normal(size=30)
        hist = GradientBoostingRegressor(n_estimators=5).fit(X, y)
        exact = GradientBoostingRegressor(n_estimators=5, tree_method="exact").fit(X, y)
        assert all(tree.n_nodes == 1 for tree in hist.trees_)
        np.testing.assert_allclose(
            hist.predict(X), exact.predict(X), rtol=0.0, atol=1e-12
        )

    def test_rejects_bad_gradient_shapes(self, rng):
        X = rng.normal(size=(10, 2))
        binner = FeatureBinner()
        binned = binner.fit_transform(X)
        with pytest.raises(ValueError):
            grow_histogram_tree(
                binned, binner, np.zeros(5), np.ones(10), TreeGrowthParams()
            )
