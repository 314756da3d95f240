"""The quantile band's one joint kernel call, bit for bit.

A band whose members are both fitted oblivious boosters scores them
through one decision table over both members' trees (``compiled_``).
Each member's prediction must be exactly what that member's own
``predict`` returns: same floats and same sign bits (``-0.0`` is not
``+0.0`` here), over different depths (depth-0 trees included), tree
counts and learning rates, 1- and 130-row batches, float32 input and
both band classes.  Input errors must read as the lower member's, and
the joint table must stay out of the pickle.
"""

import pickle

import numpy as np
import pytest

from repro.models.gbm import GradientBoostingRegressor
from repro.models.linear import QuantileLinearRegression
from repro.models.oblivious import ObliviousBoostingRegressor
from repro.models.quantile import PackageDefaultQuantileBand, QuantileBandRegressor
from repro.models.tables import CompiledObliviousTables
from tests.oracles.trees import predict_loop

N_FEATURES = 12


def _identical(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(210, N_FEATURES))
    y = X[:, 0] - 0.5 * X[:, 1] ** 2 + rng.normal(scale=0.3, size=210)
    return X[:80], y[:80], X[80:]


def _member(X, y, **params):
    params.setdefault("random_state", 0)
    return ObliviousBoostingRegressor(**params).fit(X, y)


def _band(cls, lower, upper):
    """A band of either class over two members fitted elsewhere."""
    band = cls(template=ObliviousBoostingRegressor())
    band._set_members(lower, upper)
    return band


MEMBER_PAIRS = {
    "same recipe": ({"quantile": 0.05}, {"quantile": 0.95}),
    "depths 6 and 2": ({"depth": 6, "quantile": 0.1}, {"depth": 2, "quantile": 0.9}),
    "tree counts 7 and 19": ({"n_estimators": 7}, {"n_estimators": 19}),
    "learning rates": (
        {"learning_rate": 0.05, "quantile": 0.2},
        {"learning_rate": 0.3, "quantile": 0.8},
    ),
    "depth-0 member": ({"constant": True}, {"depth": 4, "n_estimators": 9}),
}


@pytest.fixture(scope="module", params=sorted(MEMBER_PAIRS))
def members(request, data):
    X, y, _ = data
    fitted = []
    for params in MEMBER_PAIRS[request.param]:
        params = dict(params)
        params.setdefault("n_estimators", 12)
        # A constant target admits no split: every tree is depth-0.
        target = np.full_like(y, 1.25) if params.pop("constant", False) else y
        fitted.append(_member(X, target, **params))
    return tuple(fitted)


class TestJointBandParity:
    @pytest.mark.parametrize(
        "band_class", [QuantileBandRegressor, PackageDefaultQuantileBand]
    )
    @pytest.mark.parametrize("n_rows", [1, 130])
    def test_equals_each_members_predict(self, data, members, band_class, n_rows):
        lower, upper = members
        band = _band(band_class, lower, upper)
        assert band.compiled_.members == (len(lower.trees_), len(upper.trees_))
        X = data[2][:n_rows]
        for batch in (X, X.astype(np.float32)):
            raw_lower, raw_upper = band._raw(batch)
            expected = lower.predict(batch), upper.predict(batch)
            assert _identical(raw_lower, expected[0])
            assert _identical(raw_upper, expected[1])
            assert _identical(raw_lower, predict_loop(lower, batch.astype(np.float64)))
            low, high = band.predict_interval(batch)
            assert _identical(low, np.minimum(*expected))
            assert _identical(high, np.maximum(*expected))

    def test_zero_rows(self, data, members):
        lower, upper = members
        band = _band(QuantileBandRegressor, lower, upper)
        empty = data[2][:0]
        raw = band.compiled_.predict(
            empty,
            (lower.base_score_, upper.base_score_),
            (lower.learning_rate, upper.learning_rate),
        )
        assert raw.shape == (2, 0)
        with pytest.raises(ValueError) as member_error:
            lower.predict(empty)
        with pytest.raises(ValueError, match="non-empty") as band_error:
            band.predict_interval(empty)
        assert str(band_error.value) == str(member_error.value)

    def test_no_zero_term_pads_a_shorter_member(self, data):
        """A member predicting ``-0.0`` keeps its sign bit next to a
        longer member: a ``+0.0`` term padded into its sum would flip
        it (``-0.0 + 0.0`` is ``+0.0``)."""
        X, y, Xte = data
        # Zero gradients give -0.0 leaves (-G / (H + lambda)); with a
        # -0.0 base every partial sum stays -0.0.
        short = _member(X, np.zeros_like(y), n_estimators=4)
        short.base_score_ = -0.0
        long = _member(X, y, n_estimators=11)
        band = _band(QuantileBandRegressor, short, long)
        raw_short, raw_long = band._raw(Xte)
        assert np.signbit(short.predict(Xte)).all()
        assert _identical(raw_short, short.predict(Xte))
        assert _identical(raw_long, long.predict(Xte))


class TestFittedBands:
    @pytest.fixture(scope="class", params=["quantile", "package default"])
    def band(self, request, data):
        X, y, _ = data
        template = ObliviousBoostingRegressor(n_estimators=10, random_state=0)
        if request.param == "quantile":
            return QuantileBandRegressor(template, alpha=0.2).fit(X, y)
        return PackageDefaultQuantileBand(template, random_state=3).fit(X, y)

    def test_fit_builds_the_joint_table(self, band, data):
        assert isinstance(band.compiled_, CompiledObliviousTables)
        assert band.compiled_.members == (10, 10)
        X, _, Xte = data
        crossing = np.mean(band.lower_.predict(X) > band.upper_.predict(X))
        assert band.crossing_rate_ == crossing
        low, high = band.predict_interval(Xte)
        expected = band.lower_.predict(Xte), band.upper_.predict(Xte)
        assert _identical(low, np.minimum(*expected))
        assert _identical(high, np.maximum(*expected))

    def test_one_kernel_call_per_band(self, band, data, monkeypatch):
        calls = []
        predict = CompiledObliviousTables.predict

        def counted(table, X, base_score, learning_rate):
            calls.append(table.members)
            return predict(table, X, base_score, learning_rate)

        monkeypatch.setattr(CompiledObliviousTables, "predict", counted)
        band.predict_interval(data[2])
        assert calls == [(10, 10)]

    def test_errors_read_as_the_lower_members(self, band, data):
        Xte = data[2][:5].copy()
        Xte[2, 3] = np.nan
        for bad in (Xte, data[2][:5, :7], data[2][0]):
            with pytest.raises(ValueError) as member_error:
                band.lower_.predict(bad)
            with pytest.raises(ValueError) as band_error:
                band.predict_interval(bad)
            assert str(band_error.value) == str(member_error.value)

    def test_pickle_rebuilds_the_table_and_adds_no_bytes(self, band, data):
        blob = pickle.dumps(band)
        assert "compiled_" not in band.__getstate__()
        table = band.compiled_
        del band.compiled_
        try:
            assert pickle.dumps(band) == blob
        finally:
            band.compiled_ = table
        loaded = pickle.loads(blob)
        assert loaded.compiled_ is not band.compiled_
        assert loaded.compiled_.members == band.compiled_.members
        for field in ("features", "thresholds", "leaf_values"):
            assert np.array_equal(
                getattr(loaded.compiled_, field), getattr(band.compiled_, field)
            )
        for served, expected in zip(
            loaded.predict_interval(data[2]), band.predict_interval(data[2])
        ):
            assert _identical(served, expected)
        # An unpickled band (a served bundle republished after
        # recalibration) still leaves its table out.
        stripped = pickle.loads(blob)
        del stripped.compiled_
        assert pickle.dumps(loaded) == pickle.dumps(stripped)

    def test_member_tables_pickle_without_members(self, band):
        state = band.lower_.compiled_.__getstate__()
        assert sorted(state) == ["features", "leaf_values", "thresholds"]
        table = pickle.loads(pickle.dumps(band.lower_.compiled_))
        assert table.members == ()
        assert sorted(pickle.loads(pickle.dumps(table)).__dict__) == sorted(state)

    def test_joined_table_has_no_stages(self, band, data):
        with pytest.raises(ValueError, match="one ensemble"):
            band.compiled_.staged_predict(data[2], 0.0, 1.0)


class TestOtherMembers:
    @pytest.mark.parametrize(
        "template",
        [
            GradientBoostingRegressor(n_estimators=6),
            QuantileLinearRegression(),
        ],
        ids=["gbm", "linear"],
    )
    def test_members_keep_their_own_predict(self, data, template):
        X, y, Xte = data
        band = QuantileBandRegressor(template, alpha=0.2).fit(X, y)
        assert band.compiled_ is None
        low, high = band.predict_interval(Xte)
        expected = band.lower_.predict(Xte), band.upper_.predict(Xte)
        assert _identical(low, np.minimum(*expected))
        assert _identical(high, np.maximum(*expected))

    def test_members_of_different_widths_keep_their_own_predict(self, data):
        X, y, Xte = data
        lower = _member(X, y, n_estimators=5)
        upper = _member(X[:, :6], y, n_estimators=5)
        band = _band(QuantileBandRegressor, lower, upper)
        assert band.compiled_ is None
