"""Bit-identity of the one-pass sanitize step against the entry-wise oracle.

``FeatureHealthGuard.assess`` reads each column's max and min first,
builds the missing mask only on the columns with a non-finite extreme
and settles whole columns from their finite extremes;
``TrainStatImputer.transform`` takes the guard's report, derives the
output's column extremes from it and clips only the columns that leave
the clip range.  Both must equal the entry-wise reference bodies in
:mod:`tests.oracles.sanitize` array for array (``np.array_equal``; the
report's extremes against masked min/max reductions), on every fault
the robustness campaigns inject and on the edge cases the shortcuts
have to get right: each kind of non-finite entry alone and mixed,
values exactly on a bound, 0- and 1-row batches, all-missing and
train-constant columns.
"""

import numpy as np
import pytest

from repro.robust.faults import (
    AgingDrift,
    DeadSensors,
    FaultScenario,
    NoiseBurst,
    RowDropout,
    StuckSensors,
    TemperatureOffset,
)
from repro.robust.guard import FeatureHealthGuard
from repro.robust.imputation import TrainStatImputer
from tests.oracles.sanitize import assess_reference, transform_reference

N_FEATURES = 9
CONSTANT = 8  # train-constant column


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(7)
    scales = np.array([1.0, 2.0, 0.5, 3.0, 1.0, 10.0, 0.1, 1.0, 1.0])
    train = rng.normal(size=(200, N_FEATURES)) * scales
    train[:, CONSTANT] = 4.2
    guard = FeatureHealthGuard().fit(train)
    imputer = TrainStatImputer().fit(train)
    batch = rng.normal(size=(40, N_FEATURES)) * scales
    batch[:, CONSTANT] = 4.2
    return guard, imputer, batch


def _assert_parity(guard, imputer, X):
    report = guard.assess(X)
    expected = assess_reference(guard, X)
    for field in ("missing", "out_of_range", "stuck", "unhealthy"):
        assert np.array_equal(getattr(report, field), getattr(expected, field)), field
    for field in ("finite_min", "finite_max"):
        assert np.array_equal(
            getattr(report, field), getattr(expected, field), equal_nan=True
        ), field
    reference = transform_reference(imputer, X, stuck=expected.stuck)
    assert np.array_equal(imputer.transform(X, report), reference)
    if X.shape[0]:
        damage = expected.missing | expected.out_of_range
        assert report.damaged_entry_fraction == float(np.mean(damage))
    return report


INJECTORS = [
    DeadSensors(0.3),
    DeadSensors(1.0, columns=[1, 2, 3]),
    StuckSensors(0.3),
    StuckSensors(1.0, columns=[CONSTANT, 0]),
    AgingDrift(6.0),
    AgingDrift(-6.0, fraction=0.5),
    TemperatureOffset(8.0, row_fraction=0.2),
    NoiseBurst(5.0, row_fraction=0.3),
    RowDropout(0.2),
]


class TestSanitizeParity:
    @pytest.mark.parametrize("injector", INJECTORS, ids=repr)
    @pytest.mark.parametrize("seed", range(3))
    def test_every_fault_injector(self, fitted, injector, seed):
        guard, imputer, batch = fitted
        X = FaultScenario("parity", (injector,), seed=seed).apply(batch)
        _assert_parity(guard, imputer, X)

    def test_composed_faults(self, fitted):
        guard, imputer, batch = fitted
        scenario = FaultScenario(
            "composed",
            (AgingDrift(5.0, fraction=0.5), DeadSensors(0.2), RowDropout(0.1)),
            seed=11,
        )
        report = _assert_parity(guard, imputer, scenario.apply(batch))
        assert report.missing.any() and report.out_of_range.any()

    def test_infinities(self, fitted):
        guard, imputer, batch = fitted
        X = batch.copy()
        X[3, 0] = np.inf  # +inf among finite values
        X[5, 1] = -np.inf  # -inf among finite values
        X[:, 2] = np.inf  # a column of +inf only
        X[::2, 3] = -np.inf  # -inf and NaN, no finite entry
        X[1::2, 3] = np.nan
        X[7, 4] = 1e9  # finite out of range next to an infinity
        X[8, 4] = -np.inf
        report = _assert_parity(guard, imputer, X)
        assert report.out_of_range[7, 4] and not report.out_of_range[8, 4]

    def test_one_kind_of_non_finite_entry_per_column(self, fitted):
        """The extremes-first guard takes the masked path only for
        columns with a non-finite max or min; each kind of damage must
        land there on its own and mixed."""
        guard, imputer, batch = fitted
        X = batch.copy()
        X[4, 0] = np.inf  # the only non-finite entry: +inf
        X[9, 1] = -np.inf  # ... -inf
        X[13, 2] = np.nan  # ... NaN
        X[::2, 3] = np.inf  # all infinite, both signs
        X[1::2, 3] = -np.inf
        X[0, 4], X[1, 4], X[2, 4] = np.nan, np.inf, -np.inf  # mixed, with finite
        X[:, 6] = np.nan  # all NaN
        X[:, 7] = np.nan  # NaN and +inf, no finite entry
        X[5, 7] = np.inf
        report = _assert_parity(guard, imputer, X)
        assert report.missing.sum(axis=0).tolist() == [1, 1, 1, 40, 3, 0, 40, 40, 0]
        assert report.finite_min[3] == np.inf and report.finite_max[3] == -np.inf
        assert report.finite_min[7] == np.inf and report.finite_max[7] == -np.inf
        assert np.isnan(report.finite_min[6]) and np.isnan(report.finite_max[6])
        finite = np.isfinite(X[:, 4])
        assert report.finite_max[4] == X[finite, 4].max()
        # Clean columns keep their plain extremes.
        assert report.finite_min[5] == X[:, 5].min()
        assert report.finite_max[8] == X[:, 8].max()

    def test_values_on_the_bounds(self, fitted):
        guard, imputer, batch = fitted
        X = batch.copy()
        X[0] = guard.lower_bound_
        X[1] = guard.upper_bound_
        X[2] = np.nextafter(guard.lower_bound_, -np.inf)
        X[3] = np.nextafter(guard.upper_bound_, np.inf)
        X[4] = imputer.lower_
        X[5] = imputer.upper_
        X[6] = np.nextafter(imputer.lower_, -np.inf)
        X[7] = np.nextafter(imputer.upper_, np.inf)
        _assert_parity(guard, imputer, X)
        on_bounds = X[:2].copy()
        report = _assert_parity(guard, imputer, on_bounds)
        assert not report.out_of_range.any()

    def test_one_row_batches(self, fitted):
        guard, imputer, batch = fitted
        _assert_parity(guard, imputer, batch[:1])
        row = batch[:1].copy()
        row[0, 0] = np.nan
        row[0, 1] = 1e9
        row[0, 2] = -np.inf
        _assert_parity(guard, imputer, row)

    def test_zero_row_batch(self, fitted):
        guard, imputer, batch = fitted
        report = _assert_parity(guard, imputer, batch[:0])
        assert report.healthy
        assert report.missing.shape == (0, N_FEATURES)
        assert not report.unhealthy.any()
        assert report.damaged_entry_fraction == 0.0

    def test_all_missing_and_constant_columns(self, fitted):
        guard, imputer, batch = fitted
        X = batch.copy()
        X[:, 0] = np.nan
        X[:, 5] = X[0, 5]  # stuck
        X[:, CONSTANT] = 4.2  # constant at train time: not stuck
        report = _assert_parity(guard, imputer, X)
        assert report.unhealthy[0] and report.stuck[5]
        assert not report.stuck[CONSTANT]
        drifted = X.copy()
        drifted[:, CONSTANT] = 4.3  # frozen at a new value: out of range
        report = _assert_parity(guard, imputer, drifted)
        assert report.out_of_range[:, CONSTANT].all()
