"""Tests for online adaptive conformal inference."""

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveConformalPredictor
from repro.models.linear import QuantileLinearRegression


@pytest.fixture()
def stream(rng):
    X = rng.normal(size=(600, 2))
    y = X[:, 0] + rng.normal(scale=0.3, size=600)
    return X, y


class TestAdaptive:
    def test_alpha_drops_after_misses(self, stream):
        X, y = stream
        aci = AdaptiveConformalPredictor(
            QuantileLinearRegression(), alpha=0.1, gamma=0.05
        ).fit(X[:200], y[:200])
        # Feed labels shifted far outside the intervals: every miss should
        # push alpha_t down (widening future intervals).
        aci.update(X[200:220], y[200:220] + 100.0)
        assert aci.alpha_t < 0.1

    def test_alpha_rises_when_over_covering(self, stream):
        X, y = stream
        aci = AdaptiveConformalPredictor(
            QuantileLinearRegression(), alpha=0.1, gamma=0.05
        ).fit(X[:200], y[:200])
        aci.update(X[200:220], y[200:220] * 0.0)  # all inside? not guaranteed
        # After observing all-covered points alpha_t moves up by gamma*alpha each.
        aci2 = AdaptiveConformalPredictor(
            QuantileLinearRegression(), alpha=0.1, gamma=0.05
        ).fit(X[:200], y[:200])
        intervals = aci2.predict_interval(X[200:210])
        centred = intervals.midpoint
        aci2.update(X[200:210], centred)  # midpoints always covered
        assert aci2.alpha_t > 0.1

    def test_long_run_coverage_under_drift(self, rng):
        """Under a mean shift mid-stream, long-run coverage stays near the
        target thanks to the alpha feedback."""
        n = 900
        X = rng.normal(size=(n, 2))
        y = X[:, 0] + rng.normal(scale=0.3, size=n)
        y[450:] += 1.5  # abrupt in-field drift
        aci = AdaptiveConformalPredictor(
            QuantileLinearRegression(), alpha=0.1, gamma=0.05
        ).fit(X[:300], y[:300])
        for start in range(300, n, 30):
            aci.update(X[start : start + 30], y[start : start + 30])
        assert aci.long_run_coverage() >= 0.8

    def test_gamma_zero_keeps_alpha_fixed(self, stream):
        X, y = stream
        aci = AdaptiveConformalPredictor(
            QuantileLinearRegression(), alpha=0.1, gamma=0.0
        ).fit(X[:200], y[:200])
        aci.update(X[200:260], y[200:260])
        assert aci.alpha_t == pytest.approx(0.1)

    def test_window_limits_history(self, stream):
        X, y = stream
        aci = AdaptiveConformalPredictor(
            QuantileLinearRegression(), alpha=0.1, gamma=0.02, window=50
        ).fit(X[:200], y[:200])
        aci.update(X[200:400], y[200:400])
        assert len(aci._scores._sorted) == len(aci._scores._arrival) == 50

    def test_history_recorded(self, stream):
        X, y = stream
        aci = AdaptiveConformalPredictor(
            QuantileLinearRegression(), alpha=0.1, gamma=0.05
        ).fit(X[:200], y[:200])
        aci.update(X[200:230], y[200:230])
        assert aci.n_labels_ == 30
        assert 0 <= aci.n_misses_ <= 30
        assert aci.long_run_coverage() == 1.0 - aci.n_misses_ / 30
        # alpha_t moved by gamma * (alpha - err) once per label.
        expected = 0.1 + 0.05 * (30 * 0.1 - aci.n_misses_)
        assert aci.alpha_t == pytest.approx(expected)

    def test_unfitted_raises(self):
        aci = AdaptiveConformalPredictor(QuantileLinearRegression())
        with pytest.raises(RuntimeError):
            aci.predict_interval(np.zeros((2, 2)))
        with pytest.raises(RuntimeError):
            _ = aci.alpha_t

    def test_no_updates_coverage_raises(self, stream):
        X, y = stream
        aci = AdaptiveConformalPredictor(QuantileLinearRegression()).fit(
            X[:100], y[:100]
        )
        with pytest.raises(RuntimeError, match="no updates"):
            aci.long_run_coverage()

    @pytest.mark.parametrize(
        "kwargs", [{"alpha": 0.0}, {"gamma": -0.1}, {"window": 0}]
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            AdaptiveConformalPredictor(QuantileLinearRegression(), **kwargs)


class TestFromFitted:
    def test_warm_start_matches_fresh_fit(self, stream):
        """Adopting a fitted band + its calibration scores serves the
        same intervals a natively fitted predictor would."""
        from repro.core.cqr import ConformalizedQuantileRegressor

        X, y = stream
        cqr = ConformalizedQuantileRegressor(
            QuantileLinearRegression(), alpha=0.1, random_state=0
        ).fit(X[:300], y[:300])
        warm = AdaptiveConformalPredictor.from_fitted(
            cqr.band_, cqr.calibration_scores_, alpha=0.1, gamma=0.05
        )
        assert warm.alpha_t == 0.1
        intervals = warm.predict_interval(X[300:330])
        assert intervals.coverage(y[300:330]) >= 0.7
        # The warm-started predictor keeps adapting like a fresh one.
        warm.update(X[300:330], y[300:330] + 100.0)
        assert warm.alpha_t < 0.1

    def test_from_fitted_validates_inputs(self, stream):
        from repro.core.cqr import ConformalizedQuantileRegressor

        X, y = stream
        cqr = ConformalizedQuantileRegressor(
            QuantileLinearRegression(), alpha=0.1, random_state=0
        ).fit(X[:300], y[:300])
        with pytest.raises(TypeError, match="predict_interval"):
            AdaptiveConformalPredictor.from_fitted(object(), cqr.calibration_scores_)
        with pytest.raises(ValueError, match="scores"):
            AdaptiveConformalPredictor.from_fitted(cqr.band_, [])
        with pytest.raises(ValueError, match="scores"):
            AdaptiveConformalPredictor.from_fitted(cqr.band_, [1.0, np.nan])


class TestSortedWindowBitIdentity:
    def test_sorted_window_matches_naive_trailing_list(self, stream):
        """The bisect-maintained sorted mirror must be bit-identical to
        re-sorting a naive arrival-order trailing list at every step --
        eviction by value (not position) is where the two could diverge,
        e.g. on duplicated or near-equal floats."""
        from repro.core.calibration import conformal_quantile

        X, y = stream
        window = 50
        aci = AdaptiveConformalPredictor(
            QuantileLinearRegression(), alpha=0.1, gamma=0.05, window=window
        ).fit(X[:200], y[:200])
        # Reconstruct the seed exactly as fit() does, then stream rows
        # one at a time, mirroring the per-row update protocol.
        from repro.core.scores import cqr_score

        lower, upper = aci.band_.predict_interval(X[:200])
        naive = [float(s) for s in cqr_score(y[:200], lower, upper)]
        for i in range(200, 400):
            aci.update(X[i : i + 1], y[i : i + 1])
            lo, hi = aci.band_.predict_interval(X[i : i + 1])
            naive.append(float(cqr_score(y[i : i + 1], lo, hi)[0]))
            expected = np.sort(np.asarray(naive[-window:], dtype=np.float64))
            np.testing.assert_array_equal(aci._scores._sorted, expected)
            # The margin served off the sorted mirror equals a from-scratch
            # partition of the naive window at the same effective level
            # (its largest score when the rank overflows the window).
            effective = float(np.clip(aci.alpha_t, 1e-6, 1.0 - 1e-6))
            reference = conformal_quantile(np.asarray(naive[-window:]), effective)
            if not np.isfinite(reference):
                reference = float(expected[-1])
            assert aci._correction() == reference

    def test_duplicate_scores_evict_correctly(self):
        """Duplicated float values exercise bisect eviction-by-value."""
        from repro.core.adaptive import _SortedScoreWindow

        win = _SortedScoreWindow([1.0, 2.0, 1.0], window=3)
        win.append(1.0)  # evicts the oldest 1.0
        win.append(3.0)  # evicts the 2.0
        assert win._sorted == [1.0, 1.0, 3.0]
        assert len(win._arrival) == 3

    def test_long_stream_margin_reads_the_window_in_place(self):
        """Under the flow's default unbounded window the margin must stay
        a direct read: every margin equals ``conformal_quantile`` on the
        materialised window (its largest score once the rank overflows)."""
        from repro.core.calibration import conformal_quantile

        class ShiftedBand:
            def predict_interval(self, X):
                return X[:, 0] - 1.0, X[:, 0] + 1.0

        rng = np.random.default_rng(5)
        aci = AdaptiveConformalPredictor.from_fitted(
            ShiftedBand(), rng.normal(size=40), alpha=0.1, gamma=0.05
        )
        n_rows, overflowed, finite = 0, 0, 0
        while n_rows < 2000:
            size = int(rng.integers(1, 9))
            X = rng.normal(size=(size, 1))
            # Label drift sweeps alpha_t through (0, 1) and below it.
            drift = 3.0 * np.sin(n_rows / 150.0)
            y = X[:, 0] + drift + rng.normal(scale=0.5, size=size)
            aci.update(X, y)
            n_rows += size
            window = np.asarray(aci._scores._sorted, dtype=np.float64)
            effective = float(np.clip(aci.alpha_t, 1e-6, 1.0 - 1e-6))
            expected = conformal_quantile(window, effective)
            if np.isfinite(expected):
                finite += 1
            else:
                expected = float(window[-1])
                overflowed += 1
            assert aci._correction() == expected
        assert len(aci._scores._arrival) == 40 + n_rows
        assert finite and overflowed


class _ShiftedBand:
    def predict_interval(self, X):
        return X[:, 0] - 1.0, X[:, 0] + 1.0


def _streamed(window, n_labels, seed=3):
    rng = np.random.default_rng(seed)
    aci = AdaptiveConformalPredictor.from_fitted(
        _ShiftedBand(), rng.normal(size=40), alpha=0.1, gamma=0.05, window=window
    )
    X = rng.normal(size=(n_labels, 1))
    aci.update(X, X[:, 0] + rng.normal(scale=1.5, size=n_labels))
    return aci


class TestFeedbackState:
    def test_twin_copies_nothing_that_grows_with_the_stream(self):
        """A feedback step swaps in a copy: after N labels that copy holds
        the bounded score window and a few scalars, nothing of size N."""
        import copy

        aci = _streamed(window=50, n_labels=2000)
        twin = copy.copy(aci)
        assert twin._scores is not aci._scores
        assert len(twin._scores._arrival) == len(twin._scores._sorted) == 50
        for name, value in vars(twin).items():
            if isinstance(value, (list, tuple, dict, np.ndarray)):
                assert len(value) <= 50, name
        assert twin.n_labels_ == 2000
        assert twin.long_run_coverage() == aci.long_run_coverage()

    def test_state_pickled_with_label_histories_keeps_adapting(self):
        """A state pickled when it still kept one history entry per label
        loads with the same counts and keeps taking feedback."""
        import pickle

        aci = _streamed(window=None, n_labels=300)
        old = dict(vars(aci))
        del old["n_labels_"], old["n_misses_"]
        old["error_history_"] = [True] * aci.n_misses_ + [False] * (
            aci.n_labels_ - aci.n_misses_
        )
        old["alpha_history_"] = [0.1] * (aci.n_labels_ + 1)
        legacy = object.__new__(AdaptiveConformalPredictor)
        legacy.__dict__.update(old)
        restored = pickle.loads(pickle.dumps(legacy))
        assert not hasattr(restored, "error_history_")
        assert not hasattr(restored, "alpha_history_")
        assert (restored.n_labels_, restored.n_misses_) == (
            aci.n_labels_, aci.n_misses_
        )
        assert restored.long_run_coverage() == aci.long_run_coverage()
        X = np.random.default_rng(9).normal(size=(20, 1))
        restored.update(X, X[:, 0])
        aci.update(X, X[:, 0])
        assert restored.alpha_t == aci.alpha_t
        assert restored.n_labels_ == aci.n_labels_ == 320
