"""Tests for density-ratio estimation and the ESS degeneracy scale."""

import numpy as np
import pytest

from repro.shift import LogisticDensityRatio, effective_sample_size


class TestEffectiveSampleSize:
    def test_uniform_weights_equal_n(self):
        assert effective_sample_size(np.ones(40)) == pytest.approx(40.0)
        assert effective_sample_size(np.full(40, 0.3)) == pytest.approx(40.0)

    def test_concentrated_mass_collapses_toward_one(self):
        spike = np.zeros(100)
        spike[0] = 1.0
        assert effective_sample_size(spike) == pytest.approx(1.0)

    def test_all_zero_weights_are_zero(self):
        assert effective_sample_size(np.zeros(10)) == 0.0

    def test_validates_input(self):
        with pytest.raises(ValueError, match="non-empty"):
            effective_sample_size([])
        with pytest.raises(ValueError, match="finite"):
            effective_sample_size([1.0, np.inf])
        with pytest.raises(ValueError, match="non-negative"):
            effective_sample_size([1.0, -0.5])


class TestLogisticDensityRatio:
    @pytest.mark.parametrize(
        "kwargs", [{"ridge": 0.0}, {"ridge": -1.0}, {"ridge": float("nan")}]
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            LogisticDensityRatio(**kwargs)

    def test_estimate_validates_matrices(self, rng):
        ratio = LogisticDensityRatio()
        with pytest.raises(ValueError, match="2-D"):
            ratio.estimate(rng.normal(size=20), rng.normal(size=(20, 1)))
        with pytest.raises(ValueError, match="features"):
            ratio.estimate(
                rng.normal(size=(20, 2)), rng.normal(size=(20, 3))
            )
        with pytest.raises(ValueError, match="at least 2 rows"):
            ratio.estimate(
                rng.normal(size=(1, 2)), rng.normal(size=(20, 2))
            )

    def test_unfitted_raises(self, rng):
        with pytest.raises(RuntimeError):
            LogisticDensityRatio().weights(rng.normal(size=(5, 2)))

    def test_weights_upweight_the_current_region(self, rng):
        reference = rng.normal(size=(400, 2))
        current = rng.normal(loc=1.5, size=(400, 2))
        ratio = LogisticDensityRatio(ridge=1.0).estimate(reference, current)
        # Calibration rows that look like the current distribution must
        # carry more mass than rows that do not.
        near = ratio.weights(np.full((1, 2), 1.5))
        far = ratio.weights(np.full((1, 2), -1.5))
        assert near[0] > far[0]

    def test_class_prior_correction(self, rng):
        """Unbalanced class sizes rescale the ratio by n_ref / n_cur."""
        reference = rng.normal(size=(300, 2))
        current = rng.normal(size=(100, 2))
        ratio = LogisticDensityRatio(ridge=1e6).estimate(reference, current)
        # With an enormous ridge the logits shrink to ~0 and the weights
        # collapse to the bare prior correction.
        weights = ratio.weights(rng.normal(size=(50, 2)))
        assert weights == pytest.approx(np.full(50, 3.0), rel=1e-2)

    def test_weights_are_bounded_by_the_logit_clamp(self, rng):
        """Far past separable classes the logit saturates at 30: the
        weight is the class prior times e**30, exactly."""
        reference = rng.normal(size=(200, 2))
        current = rng.normal(loc=8.0, size=(100, 2))
        ratio = LogisticDensityRatio(ridge=0.01).estimate(reference, current)
        weights = ratio.weights(np.array([[1e6, 1e6], [-1e6, -1e6]]))
        assert weights[0] == (200 / 100) * np.exp(30.0)
        assert weights[1] == (200 / 100) * np.exp(-30.0)

    def test_probability_in_unit_interval(self, rng):
        reference = rng.normal(size=(200, 3))
        current = rng.normal(loc=1.0, size=(200, 3))
        ratio = LogisticDensityRatio().estimate(reference, current)
        p = ratio.probability(rng.normal(size=(100, 3)))
        assert np.all((p > 0.0) & (p < 1.0))

