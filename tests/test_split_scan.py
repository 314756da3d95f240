"""Bit-for-bit parity of the bin-major level scans with their oracles.

Both growers scan each level's ``(F, L, B)`` histograms bin-major, in
reused buffers (:func:`repro.models.oblivious.level_split_scores`,
:func:`repro.models.histtree.best_leaf_splits`).  Their outputs must equal
the feature-major scans in :mod:`tests.oracles.split_scan` exactly --
``np.array_equal`` plus sign bits -- on random histograms, and whole fits
with the oracle patched in must grow the same trees.

The histograms carry exact ties on purpose: feature 0 is feature 1's
codes shifted up by 8 bins, so every split of feature 1 after bin ``b``
partitions the rows exactly like feature 0 after ``b + 8``.  The shift
is a multiple of numpy's 8-way pairwise block, so even the oblivious
leaf totals (pairwise sums over the bin axis) agree bit for bit, and the
first-max rule must pick feature 0 at the higher bin.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.models import histtree, oblivious
from repro.models.binning import (
    BinnedDataset,
    FeatureBinner,
    histogram_cells,
    histogram_sums,
)
from repro.models.gbm import GradientBoostingRegressor
from repro.models.losses import mse_gradient_hessian, pinball_gradient_hessian
from repro.models.histtree import best_leaf_splits
from repro.models.oblivious import ObliviousBoostingRegressor, level_split_scores
from repro.models.tree import TreeGrowthParams
from tests.oracles.split_scan import histtree_leaf_splits, oblivious_level_scores

LOSSES = [None, 0.5, 0.05, 0.95]
N_BINS = [1, 2, 5, 8, 16, 32]
LEAVES = [1, 2, 3, 8, 17, 32]
LAMBDAS = [0.0, 1.0, 3.0]
SHIFT = 8


def assert_bits_equal(actual, expected):
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


def level_problem(seed, n_features, n_leaves, n_bins, quantile, n_rows=120):
    """Codes, leaf slots and gradients of one level, with shifted ties."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, n_bins, size=(n_rows, n_features))
    if n_features >= 2 and n_bins > SHIFT:
        low = rng.integers(0, n_bins - SHIFT, size=n_rows)
        codes[:, 1] = low
        codes[:, 0] = low + SHIFT
    leaf_idx = rng.integers(0, n_leaves, size=n_rows)
    y = codes[:, -1] * 0.3 + rng.normal(size=n_rows)
    if n_features >= 2 and n_bins > SHIFT:
        y = y + 2.0 * codes[:, 1]
    prediction = rng.normal(scale=0.5, size=n_rows)
    if quantile is None:
        gradients, hessians = mse_gradient_hessian(y, prediction)
    else:
        gradients, hessians = pinball_gradient_hessian(y, prediction, quantile)
    return codes.astype(np.uint8), leaf_idx, gradients, hessians


def cells(codes, leaf_idx, weights, n_leaves, n_bins):
    n_features = codes.shape[1]
    cell = histogram_cells(
        codes, leaf_idx, n_leaves, n_bins, np.arange(n_features)
    )
    return histogram_sums(cell, weights, n_leaves, n_bins, n_features)


def code_dataset(codes, n_bins):
    """A BinnedDataset over ready-made codes (edges are placeholders)."""
    edges = [np.arange(n_bins - 1, dtype=np.float64)] * codes.shape[1]
    return BinnedDataset(FeatureBinner.from_edges(max(n_bins, 2), edges), codes)


def splittable_mask(codes, n_bins):
    bins = np.arange(n_bins - 1)
    return (codes.min(axis=0)[:, None] <= bins) & (
        codes.max(axis=0)[:, None] > bins
    )


class TestObliviousScan:
    @pytest.mark.parametrize("quantile", LOSSES)
    @pytest.mark.parametrize("n_bins", N_BINS)
    def test_scores_and_baseline_match_oracle(self, quantile, n_bins):
        for case, (n_leaves, n_features) in enumerate(
            (leaves, features) for leaves in LEAVES for features in (1, 2, 7)
        ):
            codes, leaf_idx, grad, hess = level_problem(
                case, n_features, n_leaves, n_bins, quantile
            )
            grad_cells = cells(codes, leaf_idx, grad, n_leaves, n_bins)
            hess_cells = cells(codes, leaf_idx, hess, n_leaves, n_bins)
            splittable = splittable_mask(codes, n_bins)
            for lam in LAMBDAS:
                score, baseline = level_split_scores(
                    grad_cells, hess_cells, splittable, lam
                )
                want_score, want_baseline = oblivious_level_scores(
                    grad_cells, hess_cells, splittable, lam
                )
                assert score.flags.c_contiguous
                assert_bits_equal(score, want_score)
                assert_bits_equal(baseline, want_baseline)

    @pytest.mark.parametrize("quantile", LOSSES)
    @pytest.mark.parametrize("n_bins", N_BINS)
    def test_occupied_leaf_scan_matches_full_leaf_axis(self, quantile, n_bins):
        """Histograms over the occupied leaves only score like the full
        leaf axis, in every shape: the sequential leaf sum and the
        pairwise ones (one candidate, two bins, the baseline)."""
        for case, (n_leaves, n_features) in enumerate(
            (leaves, features) for leaves in (8, 64, 256) for features in (1, 2, 7)
        ):
            codes, leaf_idx, grad, hess = level_problem(
                case, n_features, n_leaves, n_bins, quantile, n_rows=40
            )
            # Leaf 0 empty too: the leaf sum then starts on an occupied leaf.
            leaf_idx = np.maximum(leaf_idx, 1)
            occupied = np.bincount(leaf_idx, minlength=n_leaves) > 0
            assert not occupied.all()
            grad_cells = cells(codes, leaf_idx, grad, n_leaves, n_bins)
            hess_cells = cells(codes, leaf_idx, hess, n_leaves, n_bins)
            splittable = splittable_mask(codes, n_bins)
            for lam in LAMBDAS:
                want_score, want_baseline = oblivious_level_scores(
                    grad_cells, hess_cells, splittable, lam
                )
                compact = [grad_cells[:, occupied], hess_cells[:, occupied]]
                for scan in (level_split_scores, oblivious_level_scores):
                    score, baseline = scan(
                        *compact, splittable, lam, occupied=occupied
                    )
                    assert_bits_equal(score, want_score)
                    assert_bits_equal(baseline, want_baseline)

    def test_work_buffers_are_reused_without_leaking_between_levels(self):
        """One work array serves levels of different shapes in turn."""
        work = np.empty((4, 31 * 8 * 7))
        for n_leaves in (8, 1, 4, 2, 8):
            codes, leaf_idx, grad, hess = level_problem(n_leaves, 7, n_leaves, 32, 0.05)
            grad_cells = cells(codes, leaf_idx, grad, n_leaves, 32)
            hess_cells = cells(codes, leaf_idx, hess, n_leaves, 32)
            splittable = splittable_mask(codes, 32)
            reused = level_split_scores(
                grad_cells, hess_cells, splittable, 3.0, work
            )
            fresh = oblivious_level_scores(grad_cells, hess_cells, splittable, 3.0)
            assert_bits_equal(reused[0], fresh[0])
            assert reused[1] == fresh[1]

    @pytest.mark.parametrize("quantile", LOSSES)
    @pytest.mark.parametrize("random_strength", [0.0, 1.0])
    def test_chosen_split_matches_oracle(self, monkeypatch, quantile, random_strength):
        chosen = []
        for n_bins in N_BINS:
            for n_leaves in (1, 4, 32):
                for n_features in (1, 2, 7):
                    codes, leaf_idx, grad, hess = level_problem(
                        n_bins + n_leaves, n_features, n_leaves, n_bins, quantile
                    )
                    dataset = code_dataset(codes, n_bins)
                    splittable = splittable_mask(codes, n_bins)
                    candidates = np.arange(n_features)
                    for lam in LAMBDAS:
                        model = ObliviousBoostingRegressor(
                            l2_leaf_reg=lam, random_strength=random_strength
                        )
                        results = []
                        for scan in (level_split_scores, oblivious_level_scores):
                            monkeypatch.setattr(oblivious, "level_split_scores", scan)
                            results.append(
                                model._best_level_split(
                                    dataset, leaf_idx, grad, hess, n_leaves,
                                    candidates, np.random.default_rng(7),
                                    splittable, np.empty((4, 31 * 32 * 7)),
                                )
                            )
                        got, want = results
                        assert got[:2] == want[:2]
                        assert_bits_equal(got[2], want[2])
                        assert_bits_equal(got[3], want[3])
                        chosen.append(got[:2])
        if random_strength == 0.0:
            # The planted ties are decided by the first max: feature 0,
            # SHIFT bins above feature 1's equal split.
            assert any(f == 0 and b >= SHIFT for f, b in chosen)


class TestHisttreeScan:
    @pytest.mark.parametrize("quantile", LOSSES)
    @pytest.mark.parametrize("n_bins", N_BINS[1:])
    def test_leaf_splits_match_oracle(self, quantile, n_bins):
        ties_at_shift = 0
        for case, (n_leaves, n_features) in enumerate(
            (leaves, features) for leaves in LEAVES for features in (1, 2, 7)
        ):
            codes, slot, grad, hess = level_problem(
                case, n_features, n_leaves, n_bins, quantile
            )
            grad_cells = cells(codes, slot, grad, n_leaves, n_bins)
            hess_cells = cells(codes, slot, hess, n_leaves, n_bins)
            grad_leaf = np.bincount(slot, weights=grad, minlength=n_leaves)
            hess_leaf = np.bincount(slot, weights=hess, minlength=n_leaves)
            count_leaf = np.bincount(slot, minlength=n_leaves)
            # Non-unit Hessians exercise the separate count histogram.
            half_hess = 0.5 * hess
            half_cells = cells(codes, slot, half_hess, n_leaves, n_bins)
            half_leaf = np.bincount(slot, weights=half_hess, minlength=n_leaves)
            inputs = [
                (hess_cells, hess_cells, hess_leaf),
                (half_cells, hess_cells, half_leaf),
            ]
            for lam in LAMBDAS:
                for min_child_weight in (0.0, 1.0):
                    params = TreeGrowthParams(
                        reg_lambda=lam, min_child_weight=min_child_weight
                    )
                    for shortlist in (None, 1):
                        for hess_c, count_c, hess_l in inputs:
                            args = (
                                grad_cells, hess_c, count_c, grad_leaf,
                                hess_l, count_leaf, params, shortlist,
                            )
                            got = best_leaf_splits(*args)
                            want = histtree_leaf_splits(*args)
                            for g, w in zip(got[:3], want[:3]):
                                assert_bits_equal(g, w)
                            if want[3] is None:
                                assert got[3] is None
                            else:
                                assert_bits_equal(got[3], want[3])
                            if n_features >= 2 and n_bins > SHIFT and shortlist is None:
                                ties_at_shift += int(np.sum(
                                    (want[1] == 0) & (want[2] >= SHIFT)
                                ))
        if n_bins > SHIFT:
            assert ties_at_shift > 0


def wide_problem(n_rows=88, n_features=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_rows + 40, n_features))
    X[:, :30] = np.round(X[:, :30] * 2)
    y = 2 * X[:, 0] + np.sin(X[:, 40]) + 0.5 * X[:, 50] * X[:, 1]
    y = y + rng.normal(scale=0.3, size=n_rows + 40)
    return X[:n_rows], y[:n_rows], X[n_rows:]


def assert_same_trees(got, want, X_test):
    assert len(got.trees_) == len(want.trees_)
    for a, b in zip(got.trees_, want.trees_):
        for name in vars(b):
            value = getattr(b, name)
            if isinstance(value, np.ndarray):
                assert_bits_equal(getattr(a, name), value)
    assert_bits_equal(got.predict(X_test), want.predict(X_test))


class TestFitParity:
    @pytest.mark.parametrize("quantile", [None, 0.05, 0.95])
    @pytest.mark.parametrize(
        "params",
        [{}, {"feature_shortlist": None, "max_bins": 8}],
        ids=["default", "no-shortlist-8-bins"],
    )
    def test_oblivious_fit_matches_oracle_scan(self, monkeypatch, quantile, params):
        X, y, X_test = wide_problem()

        def fit():
            return ObliviousBoostingRegressor(
                n_estimators=12, quantile=quantile, random_state=4, **params
            ).fit(X, y)

        got = fit()
        monkeypatch.setattr(oblivious, "level_split_scores", oblivious_level_scores)
        assert_same_trees(got, fit(), X_test)

    @pytest.mark.parametrize("quantile", [None, 0.05, 0.95])
    @pytest.mark.parametrize(
        "params",
        [{}, {"max_bins": 2}, {"one_candidate": True}, {"l2_leaf_reg": 0.0}],
        ids=["default", "2-bins", "one-candidate", "lambda-0"],
    )
    def test_deep_oblivious_fit_on_few_rows_matches_oracle_scan(
        self, monkeypatch, quantile, params
    ):
        """Depth 8 on 40 rows leaves most deep leaves empty: the scans of
        the occupied leaves grow the trees the full leaf axis grows."""
        params = {"max_bins": 32, **params}
        X, y, X_test = wide_problem(n_rows=40, n_features=60, seed=5)
        if params.pop("one_candidate", False):
            X, X_test = X[:, 40:41], X_test[:, 40:41]

        def fit():
            return ObliviousBoostingRegressor(
                n_estimators=8, depth=8, quantile=quantile, random_state=4,
                **params,
            ).fit(X, y)

        got = fit()
        monkeypatch.setattr(oblivious, "level_split_scores", oblivious_level_scores)
        assert_same_trees(got, fit(), X_test)

    def test_deep_levels_scan_only_occupied_leaves(self, monkeypatch):
        X, y, _ = wide_problem(n_rows=40, n_features=60, seed=5)
        scanned = []
        scan = oblivious.level_split_scores

        def spy(grad_cells, *args, **kwargs):
            occupied = kwargs.get("occupied")
            n_leaves = grad_cells.shape[1]
            scanned.append((n_leaves, n_leaves if occupied is None else occupied.size))
            return scan(grad_cells, *args, **kwargs)

        monkeypatch.setattr(oblivious, "level_split_scores", spy)
        ObliviousBoostingRegressor(
            n_estimators=4, depth=8, quantile=0.05, random_state=4
        ).fit(X, y)
        assert all(leaves <= 40 for leaves, _ in scanned)
        assert any(leaves < level_leaves for leaves, level_leaves in scanned)
        assert max(level_leaves for _, level_leaves in scanned) == 2 ** 7

    @pytest.mark.parametrize("quantile", [None, 0.05, 0.95])
    @pytest.mark.parametrize(
        "params",
        [{}, {"feature_shortlist": None, "max_bins": 8}, {"reg_lambda": 0.0}],
        ids=["default", "no-shortlist-8-bins", "lambda-0"],
    )
    def test_gbm_fit_matches_oracle_scan(self, monkeypatch, quantile, params):
        X, y, X_test = wide_problem()

        def fit():
            return GradientBoostingRegressor(
                n_estimators=10, quantile=quantile, **params
            ).fit(X, y)

        got = fit()
        monkeypatch.setattr(histtree, "best_leaf_splits", histtree_leaf_splits)
        assert_same_trees(got, fit(), X_test)

    def test_concurrent_fits_keep_their_own_buffers(self):
        """The scan arrays are locals of each fit: oblivious fits running
        in threads (a band's lo/hi members under n_jobs >= 2) must grow
        exactly the trees they grow one at a time."""
        X, y, X_test = wide_problem()
        quantiles = [0.05, 0.95, None, 0.5]

        def fit_predict(seed):
            model = ObliviousBoostingRegressor(
                n_estimators=6, quantile=quantiles[seed], random_state=seed
            )
            return model.fit(X, y).predict(X_test)

        serial = [fit_predict(seed) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(fit_predict, seed) for seed in range(4)]
                threaded = [future.result(timeout=300) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(threaded, serial):
            assert_bits_equal(got, want)
