"""Tests for the Pearson kernel, CFS, and the select -> scale -> fit estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.cfs import CFSSelector, feature_target_correlation
from repro.features.preprocessing import StandardScaler
from repro.features.selection import CFSSelectedRegressor
from repro.models.base import NotFittedError
from repro.models.linear import LinearRegression, QuantileLinearRegression
from repro.models.tree import GradientTree
from tests.oracles.features import pearson_correlation


class TestPearson:
    """The scalar oracle the vectorised kernel is checked against."""

    def test_perfect_positive(self):
        a = np.arange(10.0)
        assert pearson_correlation(a, 2 * a + 1) == pytest.approx(1.0)

    def test_perfect_negative(self):
        a = np.arange(10.0)
        assert pearson_correlation(a, -a) == pytest.approx(-1.0)

    def test_constant_input_gives_zero(self):
        assert pearson_correlation(np.ones(5), np.arange(5.0)) == 0.0

    def test_matches_numpy(self, rng):
        a, b = rng.normal(size=(2, 50))
        assert pearson_correlation(a, b) == pytest.approx(np.corrcoef(a, b)[0, 1])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            pearson_correlation(np.arange(3.0), np.arange(4.0))

    @given(st.integers(0, 100))
    @settings(max_examples=20)
    def test_bounded(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(2, 20))
        assert -1.0 - 1e-9 <= pearson_correlation(a, b) <= 1.0 + 1e-9


class TestVectorisedCorrelation:
    def test_feature_target_matches_scalar(self, rng):
        X = rng.normal(size=(40, 5))
        y = rng.normal(size=40)
        vectorised = feature_target_correlation(X, y)
        for j in range(5):
            assert vectorised[j] == pytest.approx(pearson_correlation(X[:, j], y))

    def test_dead_columns_get_zero(self, rng):
        X = np.column_stack([rng.normal(size=20), np.full(20, 3.0)])
        corr = feature_target_correlation(X, rng.normal(size=20))
        assert corr[1] == 0.0

    def test_constant_target_gives_zeros(self, rng):
        X = rng.normal(size=(20, 3))
        np.testing.assert_array_equal(
            feature_target_correlation(X, np.ones(20)), 0.0
        )


class TestCFSMerit:
    def test_single_feature_merit_is_rfy(self, rng):
        X = rng.normal(size=(80, 5))
        y = X[:, 3] - 0.5 * X[:, 1] + rng.normal(size=80)
        selector = CFSSelector(k_max=1).fit(X, y)
        best = selector.selected_[0]
        assert selector.merits_[0] == pytest.approx(
            abs(pearson_correlation(X[:, best], y))
        )

    def test_redundancy_lowers_merit(self, rng):
        a, b = rng.normal(size=(2, 300))
        y = a + b
        independent = CFSSelector(k_max=2).fit(np.column_stack([a, b]), y)
        twin = a + rng.normal(scale=0.01, size=300)
        redundant = CFSSelector(k_max=2).fit(np.column_stack([a, twin]), y)
        assert independent.merits_[1] > redundant.merits_[1]

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k_max"):
            CFSSelector(k_max=0)


class TestCFSSelector:
    def test_picks_informative_feature_first(self, rng):
        X = rng.normal(size=(200, 10))
        y = 3.0 * X[:, 4] + rng.normal(scale=0.1, size=200)
        selector = CFSSelector(k_max=3).fit(X, y)
        assert selector.selected_[0] == 4

    def test_prefers_complementary_over_duplicate(self, rng):
        signal_a = rng.normal(size=300)
        signal_b = rng.normal(size=300)
        y = signal_a + signal_b
        X = np.column_stack(
            [signal_a, signal_a + rng.normal(scale=0.01, size=300), signal_b]
        )
        selector = CFSSelector(k_max=2).fit(X, y)
        # Columns 0 and 1 are interchangeable duplicates; the essential
        # behaviour is that the second pick is the complementary signal
        # (column 2), not the redundant twin.
        assert 2 in selector.selected_
        assert not {0, 1} <= set(selector.selected_)

    def test_subset_prefix_property(self, lot):
        X, _ = lot.features(0)
        y = lot.target(25.0, 0)
        selector = CFSSelector(k_max=6).fit(X[:100], y[:100])
        assert selector.subset(3) == selector.selected_[:3]

    def test_merits_recorded_per_size(self, rng):
        X = rng.normal(size=(100, 8))
        y = X[:, 0] + rng.normal(size=100)
        selector = CFSSelector(k_max=4).fit(X, y)
        assert len(selector.merits_) == len(selector.selected_) == 4

    def test_transform_projects_columns(self, rng):
        X = rng.normal(size=(50, 6))
        y = X[:, 2] + rng.normal(scale=0.1, size=50)
        selector = CFSSelector(k_max=2).fit(X, y)
        out = selector.transform(X, k=1)
        np.testing.assert_array_equal(out[:, 0], X[:, selector.selected_[0]])

    def test_subset_rejects_out_of_range(self, rng):
        X = rng.normal(size=(30, 3))
        selector = CFSSelector(k_max=2).fit(X, rng.normal(size=30))
        with pytest.raises(ValueError):
            selector.subset(5)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            CFSSelector().subset(1)


class TestCFSSelectedRegressor:
    def test_selection_happens_inside_fit(self, rng):
        X = rng.normal(size=(100, 30))
        y = X[:, 9] * 2 + rng.normal(scale=0.1, size=100)
        model = CFSSelectedRegressor(LinearRegression(), k=3).fit(X, y)
        assert 9 in model.selector_.selected_
        assert model.score(X, y) > 0.9

    def test_clone_with_quantile_retargets_inner_model(self, rng):
        from repro.models.base import clone

        template = CFSSelectedRegressor(
            QuantileLinearRegression(), k=2, quantile=0.5
        )
        low = clone(template, quantile=0.05)
        X = rng.normal(size=(80, 5))
        y = X[:, 0] + rng.normal(size=80)
        low.fit(X, y)
        assert low.model_.quantile == 0.05

    def test_predict_interval_requires_capable_inner(self, rng):
        X = rng.normal(size=(40, 4))
        y = rng.normal(size=40)
        model = CFSSelectedRegressor(LinearRegression(), k=2).fit(X, y)
        with pytest.raises(TypeError, match="predict_interval"):
            model.predict_interval(X)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            CFSSelectedRegressor(LinearRegression()).predict(np.zeros((2, 2)))


class TestCFSRobustness:
    def test_rejects_nan_features(self, rng):
        X = rng.normal(size=(30, 4))
        X[3, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            CFSSelector(k_max=2).fit(X, rng.normal(size=30))

    def test_rejects_inf_target(self, rng):
        X = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        y[0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            CFSSelector(k_max=2).fit(X, y)

    def test_all_dead_columns_still_selects(self, rng):
        """A pathological all-constant matrix must not crash: merits are
        zero but a deterministic subset is still returned."""
        X = np.ones((20, 5))
        selector = CFSSelector(k_max=3).fit(X, rng.normal(size=20))
        assert len(selector.selected_) == 3


@pytest.mark.parametrize(
    "call",
    [
        lambda: StandardScaler().transform(np.ones((2, 2))),
        lambda: CFSSelector().subset(1),
        lambda: CFSSelector().transform(np.ones((2, 2))),
        lambda: CFSSelectedRegressor(LinearRegression()).predict(np.ones((2, 2))),
        lambda: CFSSelectedRegressor(LinearRegression()).predict_interval(
            np.ones((2, 2))
        ),
        lambda: GradientTree().predict(np.ones((2, 2))),
    ],
    ids=[
        "scaler-transform",
        "cfs-subset",
        "cfs-transform",
        "selected-predict",
        "selected-predict-interval",
        "gradient-tree-predict",
    ],
)
def test_unfitted_raises_not_fitted_error(call):
    with pytest.raises(NotFittedError, match="not fitted"):
        call()
