"""Bit-identity of the compiled decision-table kernels.

The compiled fast path is only admissible because it is *exactly* the
per-tree loop (:mod:`tests.oracles.trees`), not an approximation of it:
every test here asserts ``np.array_equal`` (same floats, bit for bit),
never ``allclose``.  Coverage spans both ensemble families, both
growers, depths 0-8, float32 boundary inputs, byte-for-byte re-pickling,
and an end-to-end CQR interval comparison through
:class:`~repro.robust.flow.RobustVminFlow`.
"""

import pickle

import numpy as np
import pytest

from repro.models.gbm import GradientBoostingRegressor
from repro.models.oblivious import ObliviousBoostingRegressor, ObliviousTree
from repro.models.tables import (
    CompiledDepthwiseTables,
    CompiledObliviousTables,
    compile_depthwise,
    compile_oblivious,
)
from repro.models.tree import GradientTree
from repro.serve.compiled import compiled_summary
from tests.oracles.trees import predict_loop, staged_predict_loop


@pytest.fixture()
def regression_data(rng):
    X = rng.normal(size=(140, 12))
    y = X[:, 0] - 2.0 * X[:, 1] ** 2 + rng.normal(scale=0.3, size=140)
    return X[:100], y[:100], X[100:]


class TestDepthwiseParity:
    @pytest.mark.parametrize("tree_method", ["hist", "exact"])
    @pytest.mark.parametrize("max_depth", [0, 1, 3, 8])
    def test_predict_bit_identical_to_loop(
        self, regression_data, tree_method, max_depth
    ):
        Xtr, ytr, Xte = regression_data
        model = GradientBoostingRegressor(
            n_estimators=12,
            max_depth=max_depth,
            tree_method=tree_method,
        ).fit(Xtr, ytr)
        assert isinstance(model.compiled_, CompiledDepthwiseTables)
        assert np.array_equal(model.predict(Xte), predict_loop(model, Xte))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_ensembles(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(90, 7))
        y = rng.normal(size=90)
        model = GradientBoostingRegressor(n_estimators=15).fit(X, y)
        Xte = rng.normal(size=(40, 7))
        assert np.array_equal(model.predict(Xte), predict_loop(model, Xte))

    def test_staged_predict_bit_identical(self, regression_data):
        Xtr, ytr, Xte = regression_data
        model = GradientBoostingRegressor(n_estimators=10).fit(Xtr, ytr)
        stages = model.staged_predict(Xte)
        assert np.array_equal(stages, staged_predict_loop(model, Xte))
        assert np.array_equal(stages[-1], model.predict(Xte))

    def test_tree_values_columns_match_per_tree_predict(self, regression_data):
        Xtr, ytr, Xte = regression_data
        model = GradientBoostingRegressor(n_estimators=8).fit(Xtr, ytr)
        values = model.compiled_.tree_values(Xte)
        assert values.shape == (Xte.shape[0], 8)
        for position, tree in enumerate(model.trees_):
            assert np.array_equal(values[:, position], tree.predict(Xte))


class TestObliviousParity:
    @pytest.mark.parametrize("depth", [1, 2, 4, 8])
    def test_predict_bit_identical_to_loop(self, regression_data, depth):
        Xtr, ytr, Xte = regression_data
        model = ObliviousBoostingRegressor(
            n_estimators=12, depth=depth, random_state=0
        ).fit(Xtr, ytr)
        assert isinstance(model.compiled_, CompiledObliviousTables)
        assert np.array_equal(model.predict(Xte), predict_loop(model, Xte))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_ensembles_quantile_objective(self, rng, seed):
        X = rng.normal(size=(90, 7))
        y = rng.normal(size=90)
        model = ObliviousBoostingRegressor(
            n_estimators=15, quantile=0.9, random_state=seed
        ).fit(X, y)
        Xte = rng.normal(size=(40, 7))
        assert np.array_equal(model.predict(Xte), predict_loop(model, Xte))

    def test_staged_predict_bit_identical(self, regression_data):
        Xtr, ytr, Xte = regression_data
        model = ObliviousBoostingRegressor(
            n_estimators=10, random_state=0
        ).fit(Xtr, ytr)
        stages = model.staged_predict(Xte)
        assert np.array_equal(stages, staged_predict_loop(model, Xte))
        assert np.array_equal(stages[-1], model.predict(Xte))

    def test_tree_values_columns_match_per_tree_predict(self, regression_data):
        Xtr, ytr, Xte = regression_data
        model = ObliviousBoostingRegressor(
            n_estimators=8, random_state=1
        ).fit(Xtr, ytr)
        values = model.compiled_.tree_values(Xte)
        for position, tree in enumerate(model.trees_):
            assert np.array_equal(values[:, position], tree.predict(Xte))

    def test_mixed_depth_ensemble_padding(self, rng):
        """Shallow trees padded into a deeper table stay bit-identical."""
        trees = [
            ObliviousTree(
                features=np.array([0, 1], dtype=np.int64),
                thresholds=np.array([0.0, 0.5]),
                leaf_values=np.array([1.0, 2.0, 3.0, 4.0]),
            ),
            ObliviousTree(
                features=np.array([1], dtype=np.int64),
                thresholds=np.array([-0.25]),
                leaf_values=np.array([10.0, 20.0]),
            ),
            ObliviousTree(
                features=np.empty(0, dtype=np.int64),
                thresholds=np.empty(0),
                leaf_values=np.array([7.5]),
            ),
        ]
        compiled = compile_oblivious(trees)
        assert compiled.depth == 2
        X = rng.normal(size=(50, 3))
        values = compiled.tree_values(X)
        for position, tree in enumerate(trees):
            assert np.array_equal(values[:, position], tree.predict(X))


class TestDepthZeroTables:
    def test_tree_handles_depth_zero_itself(self):
        tree = ObliviousTree(
            features=np.empty(0, dtype=np.int64),
            thresholds=np.empty(0),
            leaf_values=np.array([1.5]),
        )
        X = np.zeros((4, 3))
        assert np.array_equal(tree.leaf_indices(X), np.zeros(4, dtype=np.int64))
        assert np.array_equal(tree.predict(X), np.full(4, 1.5))
        assert tree.predict(np.zeros((0, 3))).shape == (0,)

    def test_zero_split_fit_predicts_base_plus_leaves(self, rng):
        """A constant target admits no split: every tree is depth-0."""
        X = rng.normal(size=(50, 4))
        y = np.full(50, 3.25)
        model = ObliviousBoostingRegressor(
            n_estimators=5, random_state=0
        ).fit(X, y)
        assert all(tree.features.size == 0 for tree in model.trees_)
        Xte = rng.normal(size=(20, 4))
        prediction = model.predict(Xte)
        assert np.array_equal(prediction, predict_loop(model, Xte))
        np.testing.assert_allclose(prediction, 3.25)

    def test_compiled_depth_zero_ensemble(self):
        trees = [
            ObliviousTree(
                features=np.empty(0, dtype=np.int64),
                thresholds=np.empty(0),
                leaf_values=np.array([value]),
            )
            for value in (1.0, -2.0)
        ]
        compiled = compile_oblivious(trees)
        assert compiled.depth == 0
        X = np.zeros((6, 2))
        assert np.array_equal(
            compiled.tree_values(X), np.tile([1.0, -2.0], (6, 1))
        )


class TestFloat64BoundaryContract:
    # A threshold straddling two adjacent float32 values: rounding it to
    # float32 lands exactly on 1 + 2**-23, so a kernel comparing in
    # float32 would call `x > threshold` false for x = 1 + 2**-23 while
    # the float64 contract calls it true.
    THRESHOLD = 1.0 + 3.0 * 2.0**-25
    BOUNDARY = np.float32(1.0 + 2.0**-23)

    def test_oblivious_float32_matches_float64(self):
        tree = ObliviousTree(
            features=np.array([0], dtype=np.int64),
            thresholds=np.array([self.THRESHOLD]),
            leaf_values=np.array([10.0, 20.0]),
        )
        X32 = np.array([[self.BOUNDARY]], dtype=np.float32)
        X64 = X32.astype(np.float64)
        assert tree.predict(X32)[0] == 20.0
        assert np.array_equal(tree.predict(X32), tree.predict(X64))
        compiled = compile_oblivious([tree])
        assert np.array_equal(
            compiled.tree_values(X32), compiled.tree_values(X64)
        )
        assert compiled.tree_values(X32)[0, 0] == 20.0

    def test_depthwise_float32_matches_float64(self):
        tree = GradientTree()
        tree.feature_ = np.array([0, -1, -1], dtype=np.int64)
        tree.threshold_ = np.array([self.THRESHOLD, np.nan, np.nan])
        tree.left_ = np.array([1, 0, 0], dtype=np.int64)
        tree.right_ = np.array([2, 0, 0], dtype=np.int64)
        tree.value_ = np.array([0.0, -5.0, 5.0])
        tree.n_features_in_ = 1
        X32 = np.array([[self.BOUNDARY]], dtype=np.float32)
        X64 = X32.astype(np.float64)
        # x > threshold in float64, so the row routes right.
        assert tree.predict(X32)[0] == 5.0
        assert np.array_equal(tree.predict(X32), tree.predict(X64))
        compiled = compile_depthwise([tree])
        assert np.array_equal(
            compiled.tree_values(X32), compiled.tree_values(X64)
        )
        assert compiled.tree_values(X32)[0, 0] == 5.0

    def test_fitted_model_float32_batch_routes_identically(self, rng):
        X = rng.normal(size=(80, 5))
        y = rng.normal(size=80)
        model = GradientBoostingRegressor(n_estimators=10).fit(X, y)
        Xte32 = rng.normal(size=(30, 5)).astype(np.float32)
        assert np.array_equal(
            model.predict(Xte32), model.predict(Xte32.astype(np.float64))
        )


class TestCompileValidation:
    def test_empty_ensembles_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            compile_depthwise([])
        with pytest.raises(ValueError, match="empty"):
            compile_oblivious([])

    def test_unfitted_tree_rejected(self):
        with pytest.raises(ValueError, match="not fitted"):
            compile_depthwise([GradientTree()])

    def test_inconsistent_leaf_count_rejected(self):
        bad = ObliviousTree(
            features=np.array([0], dtype=np.int64),
            thresholds=np.array([0.0]),
            leaf_values=np.array([1.0, 2.0, 3.0]),
        )
        with pytest.raises(ValueError, match="leaves"):
            compile_oblivious([bad])

    def test_kernel_rejects_non_2d_input(self, rng):
        X = rng.normal(size=(40, 3))
        model = ObliviousBoostingRegressor(
            n_estimators=3, random_state=0
        ).fit(X, rng.normal(size=40))
        with pytest.raises(ValueError, match="2-D"):
            model.compiled_.tree_values(np.zeros(3))

    def test_summaries(self, rng):
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        gbm = GradientBoostingRegressor(n_estimators=4).fit(X, y)
        obl = ObliviousBoostingRegressor(n_estimators=4, random_state=0).fit(X, y)
        assert gbm.compiled_.summary()["kernel"] == "depthwise"
        assert gbm.compiled_.summary()["n_trees"] == 4
        summary = obl.compiled_.summary()
        assert summary["kernel"] == "oblivious"
        assert summary["n_leaves"] == 2 ** summary["depth"]


class TestEnsureCompiled:
    """Every ensemble that can score traffic carries the kernel its
    ``fit`` compiled, and :func:`compiled_summary` reports it."""

    def test_safe_on_arbitrary_objects(self):
        assert compiled_summary({"not": "a model"}) == []
        assert compiled_summary(None) == []
        assert compiled_summary("just a string") == []
        assert pickle.loads(pickle.dumps(GradientBoostingRegressor())).trees_ is None

    def test_summary_lists_every_ensemble_in_flow(self, rng):
        from repro.robust import RobustVminFlow

        X = rng.normal(size=(120, 6))
        y = X @ np.array([1.0, -0.5, 0.3, 0.0, 0.2, 0.1]) + rng.normal(
            scale=0.3, size=120
        )
        flow = RobustVminFlow(
            base_model=ObliviousBoostingRegressor(
                n_estimators=5, quantile=0.5, random_state=0
            ),
            alpha=0.2,
            random_state=0,
        ).fit(X, y)
        summaries = compiled_summary(flow)
        # The CQR band holds a lower and an upper quantile ensemble.
        assert len(summaries) >= 2
        assert all(entry["kernel"] == "oblivious" for entry in summaries)


class TestRepickle:
    """A loaded bundle pickles back to the bytes it was loaded from, so a
    republished flow is the bundle that was verified, byte for byte."""

    def test_gbm_round_trips_byte_for_byte(self, rng):
        X = rng.normal(size=(160, 6))
        y = X[:, 0] + rng.normal(scale=0.3, size=160)
        model = GradientBoostingRegressor(n_estimators=10)
        bundle = pickle.dumps(model.fit(X, y))
        assert pickle.dumps(pickle.loads(bundle)) == bundle

    def test_flow_round_trips_byte_for_byte(self, rng):
        from repro.robust import RobustVminFlow

        X = rng.normal(size=(160, 6))
        y = X[:, 0] + rng.normal(scale=0.3, size=160)
        flow = RobustVminFlow(
            base_model=ObliviousBoostingRegressor(
                n_estimators=10, quantile=0.5, random_state=0
            ),
            alpha=0.2,
            random_state=0,
        ).fit(X, y)
        bundle = pickle.dumps(flow)
        assert pickle.dumps(pickle.loads(bundle)) == bundle


class TestEndToEndCQRParity:
    def test_flow_intervals_identical_with_and_without_kernel(
        self, rng, monkeypatch
    ):
        from repro.models.quantile import QuantileBandRegressor
        from repro.robust import RobustVminFlow

        X = rng.normal(size=(160, 8))
        w = rng.normal(size=8)
        y = X @ w + rng.normal(scale=0.4, size=160)
        flow = RobustVminFlow(
            base_model=ObliviousBoostingRegressor(
                n_estimators=10, quantile=0.5, random_state=0
            ),
            alpha=0.1,
            random_state=0,
        ).fit(X[:120], y[:120])
        Xte = X[120:]
        compiled = flow.predict_interval(Xte)
        calls = []

        def loop_raw(band, X):
            # The band's one joint kernel call, replaced by the per-tree
            # loop over each member.
            calls.append(band)
            return predict_loop(band.lower_, X), predict_loop(band.upper_, X)

        monkeypatch.setattr(QuantileBandRegressor, "_raw", loop_raw)
        loop = flow.predict_interval(Xte)
        assert calls
        assert np.array_equal(
            compiled.intervals.lower, loop.intervals.lower
        )
        assert np.array_equal(
            compiled.intervals.upper, loop.intervals.upper
        )


class TestBatchEdgesAndAccumulation:
    @pytest.mark.parametrize("n_rows", [0, 1])
    def test_tiny_batches_match_loop(self, regression_data, n_rows):
        Xtr, ytr, Xte = regression_data
        for model in (
            GradientBoostingRegressor(n_estimators=6),
            ObliviousBoostingRegressor(n_estimators=6, random_state=0),
        ):
            model.fit(Xtr, ytr)
            X = Xte[:n_rows]
            # The models reject empty batches before scoring, so the
            # kernel is driven directly with the model's own constants.
            kernel = model.compiled_
            constants = (model.base_score_, model.learning_rate)
            prediction = kernel.predict(X, *constants)
            assert prediction.shape == (n_rows,)
            assert np.array_equal(prediction, predict_loop(model, X))
            stages = kernel.staged_predict(X, *constants)
            assert stages.shape == (6, n_rows)
            assert np.array_equal(stages, staged_predict_loop(model, X))
            assert kernel.tree_values(X).shape == (n_rows, 6)
            if n_rows:
                assert np.array_equal(model.predict(X), prediction)

    def test_accumulation_is_sequential_not_pairwise(self):
        """Sixteen tree values whose pairwise sum rounds differently.

        Added left to right, every ``+1`` after ``1e16`` is lost to
        rounding (the spacing there is 2); numpy's pairwise ``np.sum``
        adds the ones to each other first and keeps them.  The kernel
        must reproduce the sequential loop, not the pairwise sum.
        """
        values = [1e16] + [1.0] * 15
        trees = [
            ObliviousTree(
                features=np.empty(0, dtype=np.int64),
                thresholds=np.empty(0),
                leaf_values=np.array([value]),
            )
            for value in values
        ]
        compiled = compile_oblivious(trees)
        X = np.zeros((3, 1))
        base_score, learning_rate = 0.0, 1.0
        loop = np.full(3, base_score)
        staged = []
        for tree in trees:
            loop += learning_rate * tree.predict(X)
            staged.append(loop.copy())
        terms = np.column_stack(
            [np.full(3, base_score), learning_rate * compiled.tree_values(X)]
        )
        assert not np.array_equal(np.sum(terms, axis=1), loop)
        assert np.array_equal(compiled.predict(X, base_score, learning_rate), loop)
        assert np.array_equal(
            compiled.staged_predict(X, base_score, learning_rate), np.array(staged)
        )
