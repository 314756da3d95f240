"""Assembly of the full Table-II-shaped dataset.

:class:`SiliconDataset` is what the rest of the library consumes: the
measured feature blocks (parametric at time 0; ROD/CPD at every read
point), the measured SCAN Vmin labels per (temperature, read point), and
-- kept separate, for evaluation only -- the ground-truth Vmin and the
latent population.

``SiliconDataset.generate(seed=...)`` is fully deterministic and is the
single entry point used by examples, tests, and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.silicon.aging import AgingModel
from repro.silicon.chip import ChipPopulation
from repro.silicon.constants import (
    N_CHIPS_DEFAULT,
    READ_POINTS_HOURS,
    TEMPERATURES_C,
    validate_read_point,
    validate_temperature,
)
from repro.silicon.defects import DefectModel
from repro.silicon.monitors import CPDSensorBank, RODSensorBank
from repro.silicon.parametric import ParametricTestBank
from repro.silicon.process import ProcessSample, ProcessVariationModel
from repro.silicon.vmin import ScanVminModel
from repro.silicon.wafer import WaferModel, WaferProvenance

__all__ = ["SiliconDataset"]


@dataclass
class SiliconDataset:
    """Measured data for one generated lot.

    Attributes
    ----------
    parametric:
        (n_chips, 1800) time-zero parametric block.
    parametric_names, parametric_temperatures:
        Channel metadata aligned with ``parametric`` columns.
    rod, cpd:
        Read-point-indexed monitor blocks: ``rod[hours]`` is
        (n_chips, 168), ``cpd[hours]`` is (n_chips, 10).
    vmin:
        Measured SCAN Vmin (V): ``vmin[(temperature, hours)]`` -> (n_chips,).
    true_vmin:
        Noise-free ground truth with the same keys (evaluation only).
    population:
        Latent chip states (evaluation only).
    """

    parametric: np.ndarray
    parametric_names: List[str]
    parametric_temperatures: np.ndarray
    rod: Dict[int, np.ndarray]
    rod_names: List[str]
    cpd: Dict[int, np.ndarray]
    cpd_names: List[str]
    vmin: Dict[Tuple[float, int], np.ndarray]
    true_vmin: Dict[Tuple[float, int], np.ndarray]
    population: ChipPopulation
    read_points: Tuple[int, ...] = READ_POINTS_HOURS
    temperatures: Tuple[float, ...] = TEMPERATURES_C
    wafer: Optional[WaferProvenance] = None
    """Per-chip wafer provenance when generated with a ``wafer_model``
    (wafer id, die coordinates, applied Vth overlay); ``None`` otherwise."""

    # -- generation ------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        n_chips: int = N_CHIPS_DEFAULT,
        seed: int = 0,
        process_model: Optional[ProcessVariationModel] = None,
        wafer_model: Optional[WaferModel] = None,
        read_points: Tuple[int, ...] = READ_POINTS_HOURS,
        temperatures: Tuple[float, ...] = TEMPERATURES_C,
        design_seed: Optional[int] = None,
    ) -> "SiliconDataset":
        """Generate a complete synthetic lot.

        Distinct child seeds drive fabrication, each measurement event,
        and each test insertion, so e.g. regenerating with a different
        ``n_chips`` changes all draws coherently while the same arguments
        reproduce identical data.

        ``design_seed``, when given, pins the monitor-bank and
        parametric-bank *design* draws (sensor placement, nominal
        delays, channel definitions) to a seed independent of the lot
        seed.  Lots sharing a ``design_seed`` are the same product
        measured by the same instruments -- their feature columns are
        directly comparable -- while process, fabrication, and
        measurement draws still vary per lot.  This is what
        :class:`repro.silicon.fleet.FleetGenerator` uses to make
        cross-lot covariate comparisons meaningful; ``None`` preserves
        the historical per-lot design draw bit-for-bit.
        """
        if n_chips < 2:
            raise ValueError(f"n_chips must be >= 2, got {n_chips}")
        read_points = tuple(validate_read_point(h) for h in read_points)
        temperatures = tuple(validate_temperature(t) for t in temperatures)

        root = np.random.default_rng(seed)
        seeds = {
            name: np.random.default_rng(root.integers(0, 2**63 - 1))
            for name in (
                "process",
                "aging",
                "defects",
                "fabrication",
                "parametric",
                "monitors",
                "vmin",
                "wafer",
            )
        }

        process_model = process_model or ProcessVariationModel()
        vmin_model = ScanVminModel()

        process = process_model.sample(n_chips, seeds["process"])
        wafer_provenance = None
        if wafer_model is not None:
            # Wafer hierarchy is an additive overlay on the global Vth
            # shift; every downstream measurement sees it coherently.
            wafer_provenance = wafer_model.sample(n_chips, seeds["wafer"])
            process = ProcessSample(
                vth_shift=process.vth_shift + wafer_provenance.vth_overlay_v,
                leff_shift=process.leff_shift,
                leakage_factor=process.leakage_factor,
                gradient_x=process.gradient_x,
                gradient_y=process.gradient_y,
            )
        aging = AgingModel().sample_amplitudes(process.vth_shift, seeds["aging"])
        defects = DefectModel().sample(n_chips, seeds["defects"])
        population = ChipPopulation(process=process, aging=aging, defects=defects)

        # Monitor banks: design is part of the product.  Without a
        # design_seed the design derives from the lot seed (stable per
        # dataset, historical behaviour); with one, it derives from the
        # design seed alone so every lot of the product shares identical
        # instruments.
        fab_rng = seeds["fabrication"]
        if design_seed is not None:
            design_rng = np.random.default_rng(design_seed)
            rod_state = int(design_rng.integers(0, 2**31 - 1))
            cpd_state = int(design_rng.integers(0, 2**31 - 1))
            parametric_state = int(design_rng.integers(0, 2**31 - 1))
        else:
            rod_state = int(fab_rng.integers(0, 2**31 - 1))
            cpd_state = int(fab_rng.integers(0, 2**31 - 1))
            parametric_state = int(seeds["parametric"].integers(0, 2**31 - 1))
        rod_bank = RODSensorBank(random_state=rod_state)
        cpd_bank = CPDSensorBank(random_state=cpd_state)
        rod_bank.fabricate(process, fab_rng)
        cpd_bank.fabricate(process, defects, fab_rng)

        parametric_bank = ParametricTestBank(random_state=parametric_state)
        parametric = parametric_bank.measure(process, defects, seeds["parametric"])

        rod: Dict[int, np.ndarray] = {}
        cpd: Dict[int, np.ndarray] = {}
        for hours in read_points:
            rod[hours] = rod_bank.read(aging, hours, seeds["monitors"])
            cpd[hours] = cpd_bank.read(aging, hours, seeds["monitors"])

        vmin: Dict[Tuple[float, int], np.ndarray] = {}
        true_vmin: Dict[Tuple[float, int], np.ndarray] = {}
        for hours in read_points:
            for temperature in temperatures:
                key = (temperature, hours)
                vmin[key] = vmin_model.measure(
                    process, aging, defects, temperature, hours, seeds["vmin"]
                )
                true_vmin[key] = vmin_model.true_vmin(
                    process, aging, defects, temperature, hours
                )

        return cls(
            parametric=parametric,
            parametric_names=parametric_bank.channel_names(),
            parametric_temperatures=parametric_bank.channel_temperatures(),
            rod=rod,
            rod_names=rod_bank.sensor_names(),
            cpd=cpd,
            cpd_names=cpd_bank.sensor_names(),
            vmin=vmin,
            true_vmin=true_vmin,
            population=population,
            read_points=read_points,
            temperatures=temperatures,
            wafer=wafer_provenance,
        )

    # -- shape helpers -----------------------------------------------------------
    @property
    def n_chips(self) -> int:
        return int(self.parametric.shape[0])

    def target(self, temperature_c: float, hours: int) -> np.ndarray:
        """Measured SCAN Vmin labels at a corner and read point (V)."""
        key = (validate_temperature(temperature_c), validate_read_point(hours))
        return self.vmin[key]

    def features(
        self,
        hours: int,
        include_parametric: bool = True,
        include_onchip: bool = True,
    ) -> Tuple[np.ndarray, List[str]]:
        """Feature matrix for predicting Vmin at read point ``hours``.

        Implements the paper's Fig. 1 feature-availability rule
        (Section IV-B):

        * at time 0 (production test): parametric data and on-chip data
          collected at time 0;
        * at later read points (simulated in-field): parametric data from
          time 0 plus on-chip monitor data from *all* read points up to
          and including ``hours`` -- parametric retest is impossible once
          parts are deployed.

        Returns the matrix and the aligned column names.
        """
        hours = validate_read_point(hours)
        if not include_parametric and not include_onchip:
            raise ValueError("at least one feature block must be included")
        blocks: List[np.ndarray] = []
        names: List[str] = []
        if include_parametric:
            blocks.append(self.parametric)
            names.extend(self.parametric_names)
        if include_onchip:
            for past in self.read_points:
                if past > hours:
                    break
                blocks.append(self.rod[past])
                names.extend(f"{name}@{past}h" for name in self.rod_names)
                blocks.append(self.cpd[past])
                names.extend(f"{name}@{past}h" for name in self.cpd_names)
        return np.hstack(blocks), names

    def defect_mask(self) -> np.ndarray:
        """Latent defect indicator per chip (evaluation only)."""
        return self.population.defects.mask.copy()

    def summary(self) -> str:
        """Human-readable one-paragraph description of the lot."""
        n_defective = self.population.defects.n_defective
        vmin_room = self.vmin[(25.0, 0)]
        return (
            f"SiliconDataset: {self.n_chips} chips, "
            f"{self.parametric.shape[1]} parametric channels, "
            f"{len(self.rod_names)} ROD + {len(self.cpd_names)} CPD monitors "
            f"at read points {self.read_points} h; "
            f"{n_defective} latent-defective chips; "
            f"SCAN Vmin @25C/0h: median {np.median(vmin_room)*1e3:.1f} mV, "
            f"range [{vmin_room.min()*1e3:.1f}, {vmin_room.max()*1e3:.1f}] mV."
        )
