"""Tests for the multi-fab shifted fleet generator."""

import numpy as np
import pytest

from repro.silicon.fleet import (
    CornerDrift,
    FabProfile,
    FleetGenerator,
    ProcessCorner,
    ProductSpec,
)

FAST = dict(read_points=(0,), temperatures=(25.0,))


@pytest.fixture(scope="module")
def fleet() -> FleetGenerator:
    return FleetGenerator(
        products=[ProductSpec("alpha", n_chips=60)],
        fabs=[
            FabProfile(
                "ref",
                ProcessCorner("nominal"),
                drift=CornerDrift(vth_v_per_khour=0.003),
            ),
            FabProfile("new", ProcessCorner("slow", vth_offset_v=0.02)),
        ],
        seed=2024,
    )


def _vmin(lot):
    return lot.dataset.vmin[(25.0, 0)]


class TestValidation:
    def test_requires_products_and_fabs(self):
        with pytest.raises(ValueError, match="product"):
            FleetGenerator(products=[], fabs=[FabProfile("f", ProcessCorner("n"))])
        with pytest.raises(ValueError, match="fab"):
            FleetGenerator(products=[ProductSpec("p")], fabs=[])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            FleetGenerator(
                products=[ProductSpec("p"), ProductSpec("p")],
                fabs=[FabProfile("f", ProcessCorner("n"))],
            )
        with pytest.raises(ValueError, match="duplicate"):
            FleetGenerator(
                products=[ProductSpec("p")],
                fabs=[
                    FabProfile("f", ProcessCorner("n")),
                    FabProfile("f", ProcessCorner("s")),
                ],
            )

    def test_unknown_coordinates_raise(self, fleet):
        with pytest.raises(KeyError, match="unknown product"):
            fleet.lot("nope", "ref", **FAST)
        with pytest.raises(KeyError, match="unknown fab"):
            fleet.lot("alpha", "nope", **FAST)
        with pytest.raises(KeyError, match="unknown product"):
            fleet.design_seed("nope")

    def test_negative_coordinates_raise(self, fleet):
        with pytest.raises(ValueError, match="calendar_hours"):
            fleet.lot("alpha", "ref", calendar_hours=-1, **FAST)
        with pytest.raises(ValueError, match="lot_index"):
            fleet.lot("alpha", "ref", lot_index=-1, **FAST)


class TestDeterminism:
    def test_same_coordinates_reproduce_the_lot(self, fleet):
        a = fleet.lot("alpha", "ref", lot_index=1, **FAST)
        b = fleet.lot("alpha", "ref", lot_index=1, **FAST)
        np.testing.assert_array_equal(_vmin(a), _vmin(b))
        np.testing.assert_array_equal(
            a.dataset.features(0)[0], b.dataset.features(0)[0]
        )

    def test_lot_index_changes_data_not_design(self, fleet):
        a = fleet.lot("alpha", "ref", lot_index=0, **FAST)
        b = fleet.lot("alpha", "ref", lot_index=1, **FAST)
        assert not np.array_equal(_vmin(a), _vmin(b))
        assert a.dataset.features(0)[1] == b.dataset.features(0)[1]

    def test_instrument_design_is_shared_across_fabs(self, fleet):
        """Monitor banks belong to the product: features of a lot from
        either fab are measured by identical instruments, which is the
        premise of every cross-lot covariate comparison."""
        ref = fleet.lot("alpha", "ref", **FAST)
        new = fleet.lot("alpha", "new", **FAST)
        assert ref.dataset.features(0)[1] == new.dataset.features(0)[1]
        assert fleet.design_seed("alpha") == fleet.design_seed("alpha")


class TestShiftPhysics:
    def test_corner_offset_raises_vmin(self, fleet):
        ref = fleet.lot("alpha", "ref", **FAST)
        new = fleet.lot("alpha", "new", **FAST)
        assert _vmin(new).mean() > _vmin(ref).mean() + 0.005

    def test_calendar_drift_raises_vmin_monotonically(self, fleet):
        means = [
            _vmin(fleet.lot("alpha", "ref", calendar_hours=h, **FAST)).mean()
            for h in (0, 3000, 6000)
        ]
        assert means[0] < means[1] < means[2]

    def test_drift_moves_the_corner(self, fleet):
        drifted = fleet.lot("alpha", "ref", calendar_hours=6000, **FAST)
        baseline = fleet.lot("alpha", "ref", calendar_hours=0, **FAST)
        assert drifted.corner.vth_offset_v > baseline.corner.vth_offset_v

    def test_undrifted_fab_ignores_calendar_time(self, fleet):
        early = fleet.lot("alpha", "new", calendar_hours=0, **FAST)
        late = fleet.lot("alpha", "new", calendar_hours=6000, **FAST)
        assert early.corner.vth_offset_v == late.corner.vth_offset_v


class TestLotStructure:
    def test_zones_label_every_chip(self, fleet):
        lot = fleet.lot("alpha", "ref", **FAST)
        zones = lot.zones(3)
        assert zones.shape[0] == _vmin(lot).shape[0]
        assert set(np.unique(zones)) <= {0, 1, 2}

    def test_n_chips_override(self, fleet):
        lot = fleet.lot("alpha", "ref", n_chips=30, **FAST)
        assert _vmin(lot).shape[0] == 30


class TestCornerDrift:
    def test_rejects_non_finite_rates(self):
        with pytest.raises(ValueError, match="finite"):
            CornerDrift(vth_v_per_khour=float("nan"))
        with pytest.raises(ValueError, match="calendar_hours"):
            CornerDrift().applied(ProcessCorner("nominal"), -1.0)

    def test_applied_scales_with_hours(self):
        drift = CornerDrift(vth_v_per_khour=0.002)
        corner = ProcessCorner("nominal")
        assert drift.applied(corner, 0.0).vth_offset_v == pytest.approx(0.0)
        assert drift.applied(corner, 1000.0).vth_offset_v == pytest.approx(
            0.002
        )
