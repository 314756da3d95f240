"""Equivalence guarantees of the fast training engine.

Two contracts, each load-bearing for the perf work staying honest:

* the batched exact finder grows *identical* trees to the legacy
  per-feature reference scan (:mod:`tests.oracles.trees`),
* the histogram grower (:func:`~repro.models.histtree.grow_histogram_tree`)
  matches the exact grower's training predictions to 1e-12 on
  randomised fixtures and its full structure on shallow fixed-seed
  fixtures (thresholds agree up to bin edges, so test routing between
  bin edge and exact midpoint may differ -- training partitions cannot).

Plus the hot-loop regression test: node data is sliced once per node
(through ``_node_view``), never once per candidate feature.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import tree as tree_mod
from repro.models.binning import FeatureBinner
from repro.models.histtree import grow_histogram_tree
from repro.models.tree import (
    GradientTree,
    TreeGrowthParams,
    _best_split_all_features,
)
from tests.oracles.trees import best_split_for_feature, best_split_loop


def _random_problem(seed, n=80, n_features=6, duplicates=False):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n_features))
    if duplicates:
        X = np.round(X, 1)  # heavy value ties exercise tie-breaking
    gradients = rng.normal(size=n)
    hessians = np.ones(n)
    return X, gradients, hessians


def _leaves(tree, X):
    """The leaf node every row of ``X`` reaches."""
    node = np.zeros(X.shape[0], dtype=np.int64)
    while np.any(tree.feature_[node] >= 0):
        rows = np.flatnonzero(tree.feature_[node] >= 0)
        split = node[rows]
        goes_left = X[rows, tree.feature_[split]] <= tree.threshold_[split]
        node[rows] = np.where(goes_left, tree.left_[split], tree.right_[split])
    return node


def _hist_fit(X, gradients, hessians, params):
    binner = FeatureBinner(max_bins=256)
    return grow_histogram_tree(
        binner.fit_transform(X), binner, gradients, hessians, params
    )


# ---------------------------------------------------------------------------
# batched exact finder == legacy per-feature loop (bit-identical)
# ---------------------------------------------------------------------------

class TestBatchedExactEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("duplicates", [False, True])
    def test_identical_trees(self, monkeypatch, seed, duplicates):
        X, gradients, hessians = _random_problem(seed, duplicates=duplicates)
        params = TreeGrowthParams(max_depth=5, min_samples_leaf=2)
        fast = GradientTree(params).fit_gradients(X, gradients, hessians)
        monkeypatch.setattr(tree_mod, "_best_split_all_features", best_split_loop)
        legacy = GradientTree(params).fit_gradients(X, gradients, hessians)
        np.testing.assert_array_equal(fast.feature_, legacy.feature_)
        np.testing.assert_array_equal(fast.threshold_, legacy.threshold_)
        np.testing.assert_array_equal(fast.value_, legacy.value_)

    def test_single_column_matches_reference_finder(self):
        X, gradients, hessians = _random_problem(3, n_features=1)
        params = TreeGrowthParams()
        gain_ref, thr_ref = best_split_for_feature(
            X[:, 0], gradients, hessians, params
        )
        gain, pos, thr = _best_split_all_features(X, gradients, hessians, params)
        assert pos == 0
        assert gain == gain_ref
        assert thr == thr_ref

    def test_no_admissible_split(self):
        X = np.full((8, 3), 2.5)  # constant features: nothing to split on
        gain, pos, thr = _best_split_all_features(
            X, np.ones(8), np.ones(8), TreeGrowthParams()
        )
        assert gain == -np.inf and pos == -1 and np.isnan(thr)


# ---------------------------------------------------------------------------
# histogram grower vs exact grower
# ---------------------------------------------------------------------------

class TestBinnedEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_training_predictions_match(self, seed):
        X, gradients, hessians = _random_problem(seed, n=120)
        params = TreeGrowthParams(max_depth=5, min_samples_leaf=2)
        exact = GradientTree(params).fit_gradients(X, gradients, hessians)
        hist = _hist_fit(X, gradients, hessians, params)
        # With >= one bin per distinct value the partitions are identical;
        # last-ulp gain ties may pick a different but equivalent split, so
        # the contract is on training predictions, not node layout.
        np.testing.assert_allclose(
            hist.predict(X), exact.predict(X), rtol=0.0, atol=1e-12
        )

    def test_shallow_structure_identical(self):
        # Shallow + well-separated data: both growers make the same
        # splits.  The exact grower numbers nodes depth first and the
        # histogram grower level by level, so the node arrays are
        # permutations of each other.
        X, gradients, hessians = _random_problem(2024, n=64, n_features=4)
        params = TreeGrowthParams(max_depth=3, min_samples_leaf=2)
        exact = GradientTree(params).fit_gradients(X, gradients, hessians)
        hist = _hist_fit(X, gradients, hessians, params)
        np.testing.assert_array_equal(
            np.sort(hist.feature_), np.sort(exact.feature_)
        )
        # Thresholds agree "up to bin edges": the stored cut points differ
        # (bin edge vs node-local midpoint) but the training rows fall
        # into the same leaves -- one-to-one.  Leaf sums differ only in
        # addition order (np.bincount vs ndarray.sum), a last-ulp effect.
        pairs = set(zip(_leaves(exact, X), _leaves(hist, X)))
        assert len(pairs) == exact.n_leaves == hist.n_leaves
        np.testing.assert_allclose(
            hist.predict(X), exact.predict(X), rtol=0.0, atol=1e-15
        )


# ---------------------------------------------------------------------------
# hot-loop regression: slice once per node, not once per feature
# ---------------------------------------------------------------------------

class TestNodeSlicingRegression:
    def test_node_view_called_once_per_node(self, monkeypatch):
        X, gradients, hessians = _random_problem(0, n=60, n_features=5)
        calls = []
        real_view = tree_mod._node_view

        def counting_view(columns, grads, hess, rows):
            calls.append(rows.size)
            return real_view(columns, grads, hess, rows)

        monkeypatch.setattr(tree_mod, "_node_view", counting_view)
        tree = GradientTree(TreeGrowthParams(max_depth=4)).fit_gradients(
            X, gradients, hessians
        )
        # Exactly one slice per materialised node -- with 5 candidate
        # features, the historical per-feature slicing would have made
        # ~5x as many.
        assert len(calls) == tree.n_nodes
