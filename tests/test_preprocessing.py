"""Tests for the feature scaler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.features.preprocessing import StandardScaler


class TestStandardScaler:
    def test_zero_mean_unit_variance(self, rng):
        X = rng.normal(loc=5.0, scale=3.0, size=(200, 4))
        Z = StandardScaler().fit(X).transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-10)

    def test_constant_column_maps_to_zero(self, rng):
        X = np.column_stack([rng.normal(size=20), np.full(20, 7.0)])
        Z = StandardScaler().fit(X).transform(X)
        np.testing.assert_array_equal(Z[:, 1], 0.0)

    @given(
        hnp.arrays(
            np.float64,
            shape=st.tuples(st.integers(2, 20), st.integers(1, 5)),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        )
    )
    @settings(max_examples=40)
    def test_roundtrip_property(self, X):
        scaler = StandardScaler().fit(X)
        np.testing.assert_allclose(
            scaler.transform(X) * scaler.scale_ + scaler.mean_, X, atol=1e-6, rtol=1e-9
        )

    def test_transform_uses_training_stats(self, rng):
        train = rng.normal(size=(50, 2))
        scaler = StandardScaler().fit(train)
        test = rng.normal(loc=10.0, size=(10, 2))
        Z = scaler.transform(test)
        assert Z.mean() > 1.0  # shifted data stays shifted

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.ones((2, 2)))

    def test_width_mismatch_raises(self, rng):
        scaler = StandardScaler().fit(rng.normal(size=(10, 3)))
        with pytest.raises(ValueError, match="columns"):
            scaler.transform(rng.normal(size=(5, 2)))
