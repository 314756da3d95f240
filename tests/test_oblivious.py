"""Tests for the CatBoost-style oblivious boosting regressor."""

import numpy as np
import pytest

from repro.models.oblivious import ObliviousBoostingRegressor, ObliviousTree


@pytest.fixture()
def boost_data(rng):
    X = rng.normal(size=(200, 6))
    y = 2.0 * X[:, 0] + np.sin(2 * X[:, 1]) + rng.normal(scale=0.2, size=200)
    return X[:150], y[:150], X[150:], y[150:]


class TestObliviousTree:
    def test_leaf_indices_binary_code(self):
        tree = ObliviousTree(
            features=np.array([0, 1]),
            thresholds=np.array([0.0, 0.0]),
            leaf_values=np.array([10.0, 20.0, 30.0, 40.0]),
        )
        X = np.array(
            [[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]]
        )
        np.testing.assert_allclose(tree.predict(X), [10.0, 20.0, 30.0, 40.0])

    def test_same_test_per_level(self):
        """An oblivious tree applies the identical test to all level nodes:
        swapping earlier decisions never changes later thresholds."""
        tree = ObliviousTree(
            features=np.array([0, 0]),
            thresholds=np.array([0.0, 1.0]),
            leaf_values=np.arange(4.0),
        )
        # value 0.5: above 0.0, below 1.0 -> code 0b10 = 2
        assert tree.predict(np.array([[0.5]]))[0] == 2.0

    def test_depth_zero_table_is_a_valid_tree(self):
        """The tree itself owns the degenerate single-leaf case; callers
        need no special-casing."""
        tree = ObliviousTree(
            features=np.empty(0, dtype=np.int64),
            thresholds=np.empty(0),
            leaf_values=np.array([4.5]),
        )
        X = np.ones((3, 2))
        np.testing.assert_array_equal(
            tree.leaf_indices(X), np.zeros(3, dtype=np.int64)
        )
        np.testing.assert_array_equal(tree.predict(X), np.full(3, 4.5))
        assert tree.predict(np.empty((0, 2))).shape == (0,)

    def test_leaf_indices_compare_in_float64(self):
        """A float32 row must land on the same side of a split as its
        float64 widening -- thresholds are float64 and so is the
        comparison."""
        threshold = 1.0 + 3.0 * 2.0**-25  # rounds UP to 1 + 2**-23 in float32
        tree = ObliviousTree(
            features=np.array([0], dtype=np.int64),
            thresholds=np.array([threshold]),
            leaf_values=np.array([10.0, 20.0]),
        )
        X32 = np.array([[1.0 + 2.0**-23]], dtype=np.float32)
        assert tree.leaf_indices(X32)[0] == 1
        np.testing.assert_array_equal(
            tree.predict(X32), tree.predict(X32.astype(np.float64))
        )


class TestPointObjective:
    def test_fits_nonlinear_signal(self, boost_data):
        Xtr, ytr, Xte, yte = boost_data
        model = ObliviousBoostingRegressor(random_state=0).fit(Xtr, ytr)
        assert model.score(Xte, yte) > 0.7

    def test_deterministic_with_seed(self, boost_data):
        Xtr, ytr, Xte, _ = boost_data
        a = ObliviousBoostingRegressor(random_state=3).fit(Xtr, ytr)
        b = ObliviousBoostingRegressor(random_state=3).fit(Xtr, ytr)
        np.testing.assert_array_equal(a.predict(Xte), b.predict(Xte))

    def test_seeds_give_different_models(self, boost_data):
        Xtr, ytr, Xte, _ = boost_data
        a = ObliviousBoostingRegressor(random_state=0).fit(Xtr, ytr)
        b = ObliviousBoostingRegressor(random_state=1).fit(Xtr, ytr)
        assert not np.allclose(a.predict(Xte), b.predict(Xte))

    def test_constant_feature_never_split(self, rng):
        X = np.column_stack([rng.normal(size=80), np.full(80, 7.0)])
        y = X[:, 0] * 2
        model = ObliviousBoostingRegressor(n_estimators=20, random_state=0).fit(X, y)
        used = {int(f) for tree in model.trees_ for f in tree.features}
        assert 1 not in used

    def test_more_rounds_reduce_training_error(self, boost_data):
        Xtr, ytr, *_ = boost_data
        few = ObliviousBoostingRegressor(n_estimators=3, random_state=0).fit(Xtr, ytr)
        many = ObliviousBoostingRegressor(n_estimators=60, random_state=0).fit(Xtr, ytr)
        assert many.score(Xtr, ytr) > few.score(Xtr, ytr)

    def test_pure_noise_gives_shallow_model(self, rng):
        X = rng.normal(size=(40, 3))
        y = np.full(40, 5.0)  # constant target: no split should help
        model = ObliviousBoostingRegressor(n_estimators=5, random_state=0).fit(X, y)
        np.testing.assert_allclose(model.predict(X), 5.0, atol=1e-8)

    def test_feature_importances_normalised(self, boost_data):
        Xtr, ytr, *_ = boost_data
        model = ObliviousBoostingRegressor(n_estimators=20, random_state=0).fit(Xtr, ytr)
        assert model.feature_importances_.sum() == pytest.approx(1.0)

    def test_shortlist_matches_exhaustive_closely(self, boost_data):
        Xtr, ytr, Xte, yte = boost_data
        fast = ObliviousBoostingRegressor(
            n_estimators=30, feature_shortlist=3, random_state=0
        ).fit(Xtr, ytr)
        # 6 features only: shortlist barely binds; quality must hold.
        assert fast.score(Xte, yte) > 0.6


class TestQuantileObjective:
    def test_exact_leaf_median_converges(self, boost_data):
        """Exact-quantile leaf estimation makes the median model a decent
        point predictor (unlike unit-Hessian pinball steps)."""
        Xtr, ytr, Xte, yte = boost_data
        model = ObliviousBoostingRegressor(quantile=0.5, random_state=0).fit(Xtr, ytr)
        assert model.score(Xte, yte) > 0.6

    def test_band_ordering(self, boost_data):
        Xtr, ytr, Xte, _ = boost_data
        lo = ObliviousBoostingRegressor(quantile=0.1, random_state=0).fit(Xtr, ytr)
        hi = ObliviousBoostingRegressor(quantile=0.9, random_state=0).fit(Xtr, ytr)
        assert np.mean(hi.predict(Xte) - lo.predict(Xte)) > 0

    def test_scale_equivariance_of_exact_leaves(self, boost_data):
        """Exact-quantile leaves make the fit equivariant to target scale
        (CatBoost property the XGB-style pinball boosting lacks)."""
        Xtr, ytr, Xte, _ = boost_data
        base = ObliviousBoostingRegressor(quantile=0.5, random_state=0).fit(Xtr, ytr)
        scaled = ObliviousBoostingRegressor(quantile=0.5, random_state=0).fit(
            Xtr, ytr * 1000.0
        )
        np.testing.assert_allclose(
            scaled.predict(Xte) / 1000.0, base.predict(Xte), rtol=1e-6, atol=1e-6
        )


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_estimators": 0},
            {"learning_rate": 0.0},
            {"depth": 0},
            {"l2_leaf_reg": -1.0},
            {"max_bins": 1},
            {"rsm": 0.0},
            {"random_strength": -1.0},
            {"bagging_temperature": -0.5},
            {"quantile": 0.0},
            {"feature_shortlist": 0},
        ],
    )
    def test_constructor_rejects(self, kwargs):
        with pytest.raises(ValueError):
            ObliviousBoostingRegressor(**kwargs)

    def test_predict_before_fit(self):
        with pytest.raises(Exception):
            ObliviousBoostingRegressor().predict(np.zeros((2, 2)))

    def test_predict_rejects_wrong_width(self, boost_data):
        Xtr, ytr, *_ = boost_data
        model = ObliviousBoostingRegressor(n_estimators=3, random_state=0).fit(Xtr, ytr)
        with pytest.raises(ValueError, match="features"):
            model.predict(np.zeros((2, 3)))


class TestStagedPredict:
    def test_last_stage_matches_predict(self, boost_data):
        Xtr, ytr, Xte, _ = boost_data
        model = ObliviousBoostingRegressor(n_estimators=8, random_state=0).fit(
            Xtr, ytr
        )
        stages = model.staged_predict(Xte)
        assert stages.shape == (8, Xte.shape[0])
        np.testing.assert_allclose(stages[-1], model.predict(Xte), atol=1e-10)

    def test_training_loss_decreases_along_stages(self, boost_data):
        Xtr, ytr, *_ = boost_data
        model = ObliviousBoostingRegressor(n_estimators=30, random_state=0).fit(
            Xtr, ytr
        )
        stages = model.staged_predict(Xtr)
        losses = ((stages - ytr[None, :]) ** 2).mean(axis=1)
        assert losses[-1] < losses[0]


class TestRegressionGuards:
    def test_zero_split_fit_serves_the_constant(self, rng):
        """A fit where no round finds a split yields all depth-0 tables;
        predict and staged_predict must serve them like any other tree
        (the regressor no longer special-cases them inline)."""
        X = rng.normal(size=(40, 3))
        y = np.full(40, -1.75)
        model = ObliviousBoostingRegressor(n_estimators=4, random_state=0).fit(
            X, y
        )
        assert all(tree.features.size == 0 for tree in model.trees_)
        Xte = rng.normal(size=(10, 3))
        np.testing.assert_allclose(model.predict(Xte), -1.75)
        stages = model.staged_predict(Xte)
        np.testing.assert_array_equal(stages[-1], model.predict(Xte))

    def test_quantile_mode_actually_splits(self, boost_data):
        """Regression guard: the no-split baseline must be computed once
        per leaf set, not summed over candidate features -- the inflated
        baseline silently suppressed ALL splits in quantile mode."""
        Xtr, ytr, *_ = boost_data
        model = ObliviousBoostingRegressor(
            quantile=0.5, n_estimators=5, random_state=0
        ).fit(Xtr, ytr)
        assert any(tree.features.size > 0 for tree in model.trees_)

    def test_wide_matrix_quantile_mode_splits(self, rng):
        """Same guard at paper-like width (the bug scaled with n_features)."""
        X = rng.normal(size=(100, 500))
        y = X[:, 3] + rng.normal(scale=0.1, size=100)
        model = ObliviousBoostingRegressor(
            quantile=0.5, n_estimators=3, random_state=0
        ).fit(X, y)
        assert any(tree.features.size > 0 for tree in model.trees_)

    def test_split_never_selects_out_of_range_bin(self, rng):
        """Regression guard: score noise must not promote no-op splits
        whose bin index exceeds a feature's real edge count."""
        # One feature with 2 distinct values amid many rich features.
        X = rng.normal(size=(60, 10))
        X[:, 0] = (X[:, 0] > 0).astype(float)
        y = X[:, 0] + X[:, 1] + rng.normal(scale=0.1, size=60)
        for seed in range(5):
            model = ObliviousBoostingRegressor(
                n_estimators=10, random_state=seed
            ).fit(X, y)  # IndexError before the fix
            assert np.all(np.isfinite(model.predict(X)))


def rounded_first_column(seed):
    """40 rows, 6 columns, the first rounded to a handful of values."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(40, 6))
    X[:, 0] = np.round(X[:, 0])
    y = X[:, 1] + rng.normal(scale=0.1, size=40)
    return X, y


class TestSplitMaskAndEmptyLeaves:
    @pytest.mark.parametrize("seed", range(8))
    def test_bootstrap_weights_never_pick_a_bin_past_the_last_edge(self, seed):
        """Bootstrap weights make the Hessian mass non-integral, so the
        right-hand mass past a feature's last edge could sit a few ulps
        above zero; a mask built on it let such a bin win (IndexError).
        The mask counts rows instead."""
        X, y = rounded_first_column(seed)
        model = ObliviousBoostingRegressor(
            n_estimators=20, bagging_temperature=1.0, random_state=0
        ).fit(X, y)
        edges = model._bin_features(X).binner.edges_
        for tree in model.trees_:
            for feature, threshold in zip(tree.features, tree.thresholds):
                assert threshold in edges[feature]
                goes_right = X[:, feature] > threshold
                assert 0 < goes_right.sum() < X.shape[0]

    def test_zero_l2_leaf_reg_serves_finite_predictions(self):
        """With l2_leaf_reg=0 an empty leaf's Newton step and its no-split
        baseline term were 0/0: NaN leaves, and a NaN baseline that let
        every split through.  Runs under the suite's RuntimeWarning-as-
        error filter, so the fit must also be warning-free."""
        X, y = rounded_first_column(0)
        model = ObliviousBoostingRegressor(
            n_estimators=20, l2_leaf_reg=0.0, random_state=0
        ).fit(X, y)
        fresh = np.random.default_rng(1).normal(size=(200, 6))
        assert np.all(np.isfinite(model.predict(fresh)))
        assert all(np.all(np.isfinite(t.leaf_values)) for t in model.trees_)

    @pytest.mark.parametrize("quantile", [0.05, 0.5, 0.95])
    def test_exact_leaves_equal_one_quantile_per_leaf(self, rng, quantile):
        """Leaves grouped by size and quantiled in one call per size give
        the per-leaf np.quantile values bit for bit."""
        model = ObliviousBoostingRegressor(quantile=quantile, l2_leaf_reg=3.0)
        for n_leaves in (1, 2, 16, 64):
            y = rng.normal(size=150)
            y[::7] = 0.0
            prediction = np.where(rng.random(150) < 0.2, y, rng.normal(size=150))
            leaf_idx = rng.integers(0, n_leaves, size=150)
            leaf_idx[leaf_idx == n_leaves - 1] = 0  # at least one empty leaf
            values = model._leaf_values(
                y, prediction, None, None, leaf_idx, n_leaves
            )
            expected = np.zeros(n_leaves)
            counts = np.bincount(leaf_idx, minlength=n_leaves)
            for leaf in np.flatnonzero(counts):
                step = float(np.quantile((y - prediction)[leaf_idx == leaf], quantile))
                expected[leaf] = step * counts[leaf] / (counts[leaf] + 3.0)
            np.testing.assert_array_equal(values, expected)
            np.testing.assert_array_equal(np.signbit(values), np.signbit(expected))
