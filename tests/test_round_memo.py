"""The boosting loop grows each distinct round's tree once.

A round of :class:`GradientBoostingRegressor` fits on every row and
every column, so its tree depends only on its gradient and Hessian
vectors, and a round whose vectors repeat an earlier round's byte for
byte appends that round's tree.  These tests pin both halves: the reuse
happens (fewer grower calls than rounds), and it is invisible (a fit
whose round digests never repeat grows the same trees, bit for bit).
"""

import itertools
import pickle

import numpy as np
import pytest

from repro.models import gbm
from repro.models.gbm import GradientBoostingRegressor


def assert_bits_equal(actual, expected):
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


def problem(seed=0, n_rows=120, n_features=20, n_test=40):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_rows + n_test, n_features))
    X[:, :5] = np.round(X[:, :5] * 2)
    y = 2 * X[:, 0] + np.sin(X[:, 1]) + 0.5 * X[:, 2] * X[:, 3]
    y = y + rng.normal(scale=0.3, size=n_rows + n_test)
    return X[:n_rows], y[:n_rows], X[n_rows:], y[n_rows:]


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so every call is counted; returns the counter."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def assert_same_fit(got, want, X_test):
    assert len(got.trees_) == len(want.trees_)
    for a, b in zip(got.trees_, want.trees_):
        for name, value in vars(b).items():
            if isinstance(value, np.ndarray):
                assert_bits_equal(getattr(a, name), value)
    for name, value in vars(want.compiled_).items():
        assert_bits_equal(getattr(got.compiled_, name), value)
    assert_bits_equal(got.predict(X_test), want.predict(X_test))
    assert_bits_equal(got.staged_predict(X_test), want.staged_predict(X_test))


class TestRoundMemo:
    def test_default_pinball_fit_grows_fewer_trees_than_rounds(self, monkeypatch):
        X, y, _, _ = problem()
        grown = count_calls(monkeypatch, gbm, "grow_histogram_tree")
        model = GradientBoostingRegressor(n_estimators=40, quantile=0.05).fit(X, y)
        assert len(model.trees_) == 40
        assert 0 < len(grown) < 40
        assert len({id(tree) for tree in model.trees_}) == len(grown)

    @pytest.mark.parametrize("tree_method", ["hist", "exact"])
    @pytest.mark.parametrize("quantile", [None, 0.05, 0.5, 0.95])
    def test_never_repeating_digest_grows_the_same_trees(
        self, monkeypatch, tree_method, quantile
    ):
        X, y, X_test, _ = problem(seed=1, n_features=12)

        def fit():
            return GradientBoostingRegressor(
                n_estimators=30, quantile=quantile, tree_method=tree_method
            ).fit(X, y)

        memo = fit()
        unique = itertools.count()
        monkeypatch.setattr(gbm, "_round_digest", lambda *_: next(unique))
        fresh = fit()
        assert len({id(tree) for tree in fresh.trees_}) == len(fresh.trees_)
        assert_same_fit(memo, fresh, X_test)

    def test_shared_tree_objects_survive_pickle_and_registry(self, tmp_path):
        from repro.serve.registry import ModelRegistry

        X, y, X_test, _ = problem()
        model = GradientBoostingRegressor(n_estimators=40, quantile=0.95).fit(X, y)
        assert len({id(tree) for tree in model.trees_}) < len(model.trees_)
        expected = model.predict(X_test)
        staged = model.staged_predict(X_test)

        restored = pickle.loads(pickle.dumps(model))
        assert_bits_equal(restored.predict(X_test), expected)
        assert_bits_equal(restored.staged_predict(X_test), staged)

        registry = ModelRegistry(tmp_path)
        registry.publish(model, reason="shared trees")
        loaded, _ = registry.load()
        assert_bits_equal(loaded.predict(X_test), expected)
        assert_bits_equal(loaded.staged_predict(X_test), staged)
