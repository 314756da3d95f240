"""Seeded Monte Carlo coverage certificate for every conformal method.

Each method is run over ``R`` random calibration/test splits of
synthetic heteroscedastic data, and its observed coverage is checked
against the exact finite-sample theory -- in both directions, so an
interval that is needlessly wide fails as surely as one that
under-covers:

* split methods (split CP, CQR, CQR over a point band, uniform-weight
  weighted calibration): with ``n`` continuous calibration scores the
  coverage given the calibration set follows ``Beta(k, n+1-k)``,
  ``k = ceil((n+1)(1-alpha))``.  The mean over ``R`` splits must lie
  within four standard deviations of ``k/(n+1)`` (the Beta variance
  plus the test set's binomial noise), and below Romano et al.'s
  ``1 - alpha + 1/(n+1)`` (Thm 1);
* Mondrian: the same check, group by group, against each group's own
  ``k_g/(n_g+1)``;
* CV+ and Jackknife+: at least ``1 - 2 alpha`` (Barber et al.);
* adaptive conformal inference on an exchangeable stream: long-run
  miscoverage within ``(max(alpha, 1-alpha) + gamma) / (gamma T)`` of
  ``alpha`` (Gibbs & Candès).

Calibration sets hold 19 scores at ``alpha = 0.1``, so a conformal rank
off by one moves the expected coverage by 0.05: more than three times
the tolerance at the default ``R``.  The rank is recomputed here, never
read from the library, so a wrong rank there cannot move the target.

``REPRO_CERTIFICATE_REPS`` sets ``R`` (default 300); CI also runs the
module at a large ``R``.
"""

import math
import os
import zlib

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveConformalPredictor
from repro.core.cqr import ConformalizedQuantileRegressor, PointBand
from repro.core.cv_plus import CVPlusRegressor, JackknifePlusRegressor
from repro.core.mondrian import MondrianConformalRegressor
from repro.core.split_cp import SplitConformalRegressor, split_train_calibration
from repro.models.linear import LinearRegression, QuantileLinearRegression
from repro.shift import WeightedBandCalibrator

REPS = int(os.environ.get("REPRO_CERTIFICATE_REPS", "300"))
ALPHA = 0.1
FRACTION = 0.25
N_CAL = 19
N_FIT = 76  # round(FRACTION * N_FIT) == N_CAL
N_TEST = 200
SIGMAS = 4.0


def _draw(rng, n):
    """Heteroscedastic linear data: noise grows with ``|x_0|``."""
    X = rng.normal(size=(n, 2))
    y = X[:, 0] - 0.5 * X[:, 1] + rng.normal(size=n) * (0.3 + np.abs(X[:, 0]))
    return X, y


def _rng(name):
    # zlib.crc32, not hash(): str hashing is salted per process.
    return np.random.default_rng(zlib.crc32(name.encode()))


def _assert_exact_coverage(coverage, n_cal, n_test):
    """Mean coverage over the splits matches ``Beta(k, n+1-k)`` theory.

    ``coverage[r]`` is split ``r``'s test coverage, calibrated on
    ``n_cal[r]`` scores and measured on ``n_test[r]`` points.
    """
    coverage = np.asarray(coverage, dtype=np.float64)
    n_cal = np.broadcast_to(np.asarray(n_cal, dtype=np.float64), coverage.shape)
    n_test = np.broadcast_to(np.asarray(n_test, dtype=np.float64), coverage.shape)
    k = np.array([math.ceil((n + 1) * (1.0 - ALPHA)) for n in n_cal])
    assert np.all(k <= n_cal), "calibration sets too small for a finite rank"
    expected = k / (n_cal + 1)
    beta_var = expected * (1.0 - expected) / (n_cal + 2)
    var = beta_var + (expected * (1.0 - expected) - beta_var) / n_test
    tolerance = SIGMAS * math.sqrt(var.sum()) / coverage.size
    observed = float(coverage.mean())
    assert abs(observed - expected.mean()) <= tolerance, (
        f"mean coverage {observed:.4f} vs theory {expected.mean():.4f} "
        f"(tolerance {tolerance:.4f})"
    )
    ceiling = float(np.mean(1.0 - ALPHA + 1.0 / (n_cal + 1)))
    assert observed <= ceiling + tolerance, (
        f"mean coverage {observed:.4f} above 1 - alpha + 1/(n+1) = {ceiling:.4f}"
    )


def _split_cp(seed, X, y, X_test):
    model = SplitConformalRegressor(
        LinearRegression(), alpha=ALPHA, calibration_fraction=FRACTION, random_state=seed
    )
    return model.fit(X, y).predict_interval(X_test)


def _cqr(seed, X, y, X_test):
    model = ConformalizedQuantileRegressor(
        QuantileLinearRegression(),
        alpha=ALPHA,
        calibration_fraction=FRACTION,
        random_state=seed,
    )
    return model.fit(X, y).predict_interval(X_test)


def _cqr_point_band(seed, X, y, X_test):
    model = ConformalizedQuantileRegressor(
        None,
        alpha=ALPHA,
        calibration_fraction=FRACTION,
        band_template=PointBand(LinearRegression()),
        random_state=seed,
    )
    return model.fit(X, y).predict_interval(X_test)


def _weighted_uniform(seed, X, y, X_test):
    cqr = ConformalizedQuantileRegressor(
        QuantileLinearRegression(),
        alpha=ALPHA,
        calibration_fraction=FRACTION,
        random_state=seed,
    ).fit(X, y)
    scores = cqr.calibration_scores_
    calibrator = WeightedBandCalibrator(
        cqr.band_, scores, np.ones_like(scores), alpha=ALPHA
    )
    return calibrator.predict_interval(X_test)


SPLIT_METHODS = {
    "split_cp": _split_cp,
    "cqr": _cqr,
    "cqr_point_band": _cqr_point_band,
    "weighted_uniform": _weighted_uniform,
}


class TestSplitMethods:
    @pytest.mark.parametrize("name", sorted(SPLIT_METHODS))
    def test_coverage_matches_beta_theory(self, name):
        method = SPLIT_METHODS[name]
        rng = _rng(name)
        coverage = np.empty(REPS)
        for r in range(REPS):
            X, y = _draw(rng, N_FIT + N_TEST)
            seed = int(rng.integers(2**31))
            intervals = method(seed, X[:N_FIT], y[:N_FIT], X[N_FIT:])
            coverage[r] = intervals.coverage(y[N_FIT:])
        _assert_exact_coverage(coverage, N_CAL, N_TEST)


class TestMondrian:
    def test_every_group_matches_its_own_beta_theory(self):
        """Two groups, one at 4x the scale, 19 calibration rows each."""
        rng = _rng("mondrian")
        n_fit = 2 * N_FIT
        coverage = {0: np.empty(REPS), 1: np.empty(REPS)}
        n_cal = {0: np.empty(REPS), 1: np.empty(REPS)}
        n_test = {0: np.empty(REPS), 1: np.empty(REPS)}
        for r in range(REPS):
            seed = int(rng.integers(2**31))
            # Balance the calibration rows across groups (the wrapper's
            # own split, replayed), so no group is too small for alpha;
            # every other row gets a random group.
            _, cal_idx = split_train_calibration(
                n_fit, FRACTION, np.random.default_rng(seed)
            )
            groups = rng.integers(0, 2, size=n_fit + N_TEST).astype(np.float64)
            groups[cal_idx] = np.arange(cal_idx.size) % 2
            X, y = _draw(rng, n_fit + N_TEST)
            y = y * np.where(groups == 1, 4.0, 1.0)
            X = np.column_stack([X, groups])
            model = MondrianConformalRegressor(
                LinearRegression(),
                lambda Z: Z[:, 2],
                alpha=ALPHA,
                calibration_fraction=FRACTION,
                random_state=seed,
            ).fit(X[:n_fit], y[:n_fit])
            covered = model.predict_interval(X[n_fit:]).contains(y[n_fit:])
            for key in (0, 1):
                members = groups[n_fit:] == key
                coverage[key][r] = covered[members].mean()
                n_cal[key][r] = model.group_counts_[float(key)]
                n_test[key][r] = members.sum()
        for key in (0, 1):
            _assert_exact_coverage(coverage[key], n_cal[key], n_test[key])


class TestCrossConformal:
    @pytest.mark.parametrize("name", ["cv_plus", "jackknife_plus"])
    def test_reaches_one_minus_two_alpha(self, name):
        rng = _rng(name)
        coverage = np.empty(REPS)
        for r in range(REPS):
            X, y = _draw(rng, N_CAL + N_TEST)
            seed = int(rng.integers(2**31))
            if name == "cv_plus":
                model = CVPlusRegressor(
                    LinearRegression(), alpha=ALPHA, n_folds=5, random_state=seed
                )
            else:
                model = JackknifePlusRegressor(
                    LinearRegression(), alpha=ALPHA, random_state=seed
                )
            model.fit(X[:N_CAL], y[:N_CAL])
            coverage[r] = model.predict_interval(X[N_CAL:]).coverage(y[N_CAL:])
        floor = 1.0 - 2.0 * ALPHA
        stderr = float(coverage.std(ddof=1)) / math.sqrt(REPS)
        assert coverage.mean() >= floor - SIGMAS * stderr, (
            f"mean coverage {coverage.mean():.4f} below 1 - 2 alpha = {floor}"
        )


class TestAdaptive:
    @pytest.mark.parametrize("seed", range(5))
    def test_long_run_miscoverage_within_gibbs_candes_bound(self, seed):
        gamma, horizon = 0.05, 2000
        rng = np.random.default_rng(seed)
        X, y = _draw(rng, 100 + horizon)
        model = AdaptiveConformalPredictor(
            QuantileLinearRegression(), alpha=ALPHA, gamma=gamma
        ).fit(X[:100], y[:100])
        model.update(X[100:], y[100:])
        miscoverage = model.n_misses_ / model.n_labels_
        bound = (max(ALPHA, 1.0 - ALPHA) + gamma) / (gamma * horizon)
        assert abs(miscoverage - ALPHA) <= bound, (
            f"long-run miscoverage {miscoverage:.4f}, bound {bound:.4f}"
        )
