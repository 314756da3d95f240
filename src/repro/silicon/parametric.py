"""Parametric ATE test families (the 1800-column block of Table II).

Production parametric tests -- IDDQ vectors, supply-trip currents,
leakage screens, Vdd trip points -- are measured once at time zero across
the three ATE temperature corners.  We model 600 channels per corner in
five families whose responses are physically motivated views of the
latent process state:

========== ===== ==========================================================
family     count response
========== ===== ==========================================================
iddq        150  log-normal quiescent current: ``I0 * leak * exp(-vth/nVt)``
leakage     150  per-block subthreshold leakage, like iddq with its own
                 vector weighting and a weak defect coupling on a few
                 channels
trip_idd    100  active supply current at a trip condition: linear in
                 Vth / channel length with vector-specific weights
vdd_trip    100  lowest functional Vdd of an analog block, quantised to
                 the 5 mV ATE step
misc        100  process-insensitive channels (continuity, shorts, dead
                 codes): pure measurement noise -- realistic ballast the
                 feature selection must reject
========== ===== ==========================================================

Channel responses are deliberately *noisier* views of the process state
than the on-chip monitors (single-shot analog measurements vs averaged
on-die sensors), which is what gives the paper's Table IV its on-chip
advantage.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.models.base import check_random_state
from repro.silicon.constants import (
    N_PARAMETRIC_TESTS,
    TEMPERATURES_C,
    THERMAL_VOLTAGE_V,
)
from repro.silicon.defects import DefectPopulation
from repro.silicon.process import ProcessSample

__all__ = ["ParametricTestBank"]

_FAMILY_SIZES = {
    "iddq": 150,
    "leakage": 150,
    "trip_idd": 100,
    "vdd_trip": 100,
    "misc": 100,
}
_CHANNELS_PER_CORNER = sum(_FAMILY_SIZES.values())  # 600
if _CHANNELS_PER_CORNER * len(TEMPERATURES_C) != N_PARAMETRIC_TESTS:
    # Import-time consistency check: unlike an assert this survives
    # `python -O`, so a drifted family table can never silently ship
    # measurement blocks that disagree with the Table-II geometry.
    raise ValueError(
        f"parametric family sizes are inconsistent with Table II: "
        f"{_CHANNELS_PER_CORNER} channels x {len(TEMPERATURES_C)} corners "
        f"!= {N_PARAMETRIC_TESTS}"
    )


class ParametricTestBank:
    """Generator of the full 1800-column parametric block.

    Parameters
    ----------
    relative_noise:
        Multiplicative measurement noise on current-type channels.
    vdd_trip_step_v:
        ATE voltage resolution for the vdd_trip family (V).
    random_state:
        Seed for the per-channel response coefficients (the "test program"
        is fixed at construction; per-reading noise uses the rng passed to
        :meth:`measure`).
    """

    def __init__(
        self,
        relative_noise: float = 0.04,
        vdd_trip_step_v: float = 0.005,
        random_state: Optional[int] = None,
    ) -> None:
        if relative_noise < 0:
            raise ValueError(f"relative_noise must be >= 0, got {relative_noise}")
        if vdd_trip_step_v <= 0:
            raise ValueError(f"vdd_trip_step_v must be positive, got {vdd_trip_step_v}")
        self.relative_noise = relative_noise
        self.vdd_trip_step_v = vdd_trip_step_v
        self.random_state = random_state

        rng = check_random_state(random_state)
        # Per-channel response coefficients, shared across corners so a
        # channel is "the same test" at each temperature.
        self._iddq_scale = np.exp(rng.normal(np.log(2e-3), 0.8, _FAMILY_SIZES["iddq"]))
        self._iddq_vth_weight = rng.uniform(0.6, 1.4, _FAMILY_SIZES["iddq"])
        self._leak_scale = np.exp(
            rng.normal(np.log(4e-4), 1.0, _FAMILY_SIZES["leakage"])
        )
        self._leak_vth_weight = rng.uniform(0.5, 1.5, _FAMILY_SIZES["leakage"])
        # A few leakage vectors cover defect-prone blocks.
        self._leak_defect_weight = np.where(
            rng.random(_FAMILY_SIZES["leakage"]) < 0.08,
            rng.uniform(2.0, 6.0, _FAMILY_SIZES["leakage"]),
            0.0,
        )
        self._trip_base = rng.uniform(5e-3, 60e-3, _FAMILY_SIZES["trip_idd"])
        self._trip_vth_weight = rng.normal(0.0, 1.0, _FAMILY_SIZES["trip_idd"])
        self._trip_leff_weight = rng.normal(0.0, 1.0, _FAMILY_SIZES["trip_idd"])
        self._vddtrip_offset = rng.uniform(0.45, 0.65, _FAMILY_SIZES["vdd_trip"])
        self._vddtrip_vth_weight = rng.uniform(0.5, 1.3, _FAMILY_SIZES["vdd_trip"])
        self._misc_scale = np.exp(rng.normal(0.0, 1.0, _FAMILY_SIZES["misc"]))

    # -- metadata --------------------------------------------------------------
    def channel_names(self) -> List[str]:
        """Stable channel names, corner-major then family-major."""
        names: List[str] = []
        for temperature in TEMPERATURES_C:
            tag = f"{int(temperature)}C"
            for family, count in _FAMILY_SIZES.items():
                names.extend(f"par_{family}_{tag}_{i:03d}" for i in range(count))
        return names

    def channel_temperatures(self) -> np.ndarray:
        """ATE corner of every channel, aligned with :meth:`channel_names`."""
        return np.repeat(np.asarray(TEMPERATURES_C), _CHANNELS_PER_CORNER)

    # -- measurement -------------------------------------------------------------
    def measure(
        self, process: ProcessSample, defects: DefectPopulation, rng
    ) -> np.ndarray:
        """Full time-zero parametric test: (n_chips, 1800).

        Current-type families are returned in log10 space, the standard
        transform applied to IDDQ/leakage data before ML modelling (raw
        currents span decades and would drown Pearson correlations).
        """
        rng = check_random_state(rng)
        corners = [
            self._measure_corner(process, defects, temperature, rng)
            for temperature in TEMPERATURES_C
        ]
        return np.hstack(corners)

    def _measure_corner(
        self,
        process: ProcessSample,
        defects: DefectPopulation,
        temperature: float,
        rng,
    ) -> np.ndarray:
        n = process.n_chips
        vt = THERMAL_VOLTAGE_V[temperature]
        vth = process.vth_shift[:, None]
        leff = process.leff_shift[:, None]
        leak = process.leakage_factor[:, None]
        severity = defects.severity[:, None]

        def noisy(values: np.ndarray) -> np.ndarray:
            return values * (
                1.0 + rng.normal(0.0, self.relative_noise, size=values.shape)
            )

        # Subthreshold currents shrink exponentially with Vth; hotter
        # corners have a larger thermal voltage (weaker Vth dependence,
        # larger magnitude).
        hot_boost = np.exp((temperature - 25.0) / 120.0)
        iddq = noisy(
            self._iddq_scale[None, :]
            * leak
            * hot_boost
            * np.exp(-self._iddq_vth_weight[None, :] * vth / (1.5 * vt))
        )
        leakage = noisy(
            self._leak_scale[None, :]
            * leak
            * hot_boost
            * np.exp(-self._leak_vth_weight[None, :] * vth / (1.5 * vt))
            * (1.0 + self._leak_defect_weight[None, :] * severity / 0.02 * 0.3)
        )
        trip = noisy(
            self._trip_base[None, :]
            * (
                1.0
                + self._trip_vth_weight[None, :] * vth / 0.1
                + self._trip_leff_weight[None, :] * leff * 0.03
            )
        )
        # Cold raises every analog block's trip voltage.
        corner_shift = {-45.0: 0.05, 25.0: 0.0, 125.0: 0.02}[temperature]
        vdd_trip_raw = (
            self._vddtrip_offset[None, :]
            + corner_shift
            + self._vddtrip_vth_weight[None, :] * vth
            + rng.normal(0.0, 0.004, size=(n, _FAMILY_SIZES["vdd_trip"]))
        )
        vdd_trip = (
            np.round(vdd_trip_raw / self.vdd_trip_step_v) * self.vdd_trip_step_v
        )
        misc = self._misc_scale[None, :] * (
            1.0 + rng.normal(0.0, 1.0, size=(n, _FAMILY_SIZES["misc"]))
        )

        return np.hstack(
            [np.log10(iddq), np.log10(leakage), trip, vdd_trip, misc]
        )
