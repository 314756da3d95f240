"""Synthetic 5 nm automotive silicon substrate.

The paper's experiments run on a proprietary NXP dataset: 156 automotive
chips stressed for 1008 hours of accelerated Dhrystone burn-in, with SCAN
:math:`V_{min}`, ~1800 parametric ATE tests, 168 ring-oscillator-delay
(ROD) monitors, and 10 in-situ critical-path-delay (CPD) monitors
(Table II).  That data cannot be released, so this package generates a
physics-inspired synthetic population with the same shape and the same
statistical structure:

* correlated process variation (global Vth / channel-length shifts,
  within-die systematic gradients, per-sensor local mismatch)
  -- :mod:`repro.silicon.process`,
* power-law BTI/HCI aging with chip-specific activity
  -- :mod:`repro.silicon.aging`,
* a small latent-defect subpopulation producing early-life Vmin outliers
  -- :mod:`repro.silicon.defects`,
* monitor response models for the ROD and CPD banks
  -- :mod:`repro.silicon.monitors`,
* parametric test families (IDDQ, leakage, trip-IDD, Vdd trips, dead
  channels) -- :mod:`repro.silicon.parametric`,
* the ground-truth SCAN Vmin model with temperature-dependent,
  heteroscedastic behaviour -- :mod:`repro.silicon.vmin`,
* the assembled Table-II-shaped dataset -- :mod:`repro.silicon.dataset`,
* a burn-in / ATE flow simulator producing per-read-point measurement
  logs -- :mod:`repro.silicon.ate`,
* multi-product / multi-fab fleet generation with process-corner
  offsets and calendar-time corner drift -- :mod:`repro.silicon.fleet`
  (the shifted-data source for the :mod:`repro.shift` defense layer).

Everything is seeded and deterministic: ``SiliconDataset.generate(seed)``
reproduces bit-identical data.
"""

from repro.silicon.aging import AgingModel
from repro.silicon.ate import BurnInFlowSimulator, MeasurementRecord
from repro.silicon.chip import ChipPopulation
from repro.silicon.constants import (
    CPD_TEMPERATURE_C,
    MIN_SPEC_V,
    N_CHIPS_DEFAULT,
    N_CPD_SENSORS,
    N_PARAMETRIC_TESTS,
    N_ROD_SENSORS,
    READ_POINTS_HOURS,
    ROD_TEMPERATURE_C,
    TEMPERATURES_C,
)
from repro.silicon.dataset import SiliconDataset
from repro.silicon.defects import DefectModel
from repro.silicon.fleet import (
    CornerDrift,
    CorneredProcessModel,
    FabProfile,
    FleetGenerator,
    FleetLot,
    ProcessCorner,
    ProductSpec,
)
from repro.silicon.monitors import CPDSensorBank, RODSensorBank
from repro.silicon.parametric import ParametricTestBank
from repro.silicon.process import ProcessSample, ProcessVariationModel
from repro.silicon.vmin import ScanVminModel
from repro.silicon.wafer import WaferLayout, WaferModel, WaferProvenance

__all__ = [
    "AgingModel",
    "BurnInFlowSimulator",
    "CPD_TEMPERATURE_C",
    "CPDSensorBank",
    "ChipPopulation",
    "CornerDrift",
    "CorneredProcessModel",
    "DefectModel",
    "FabProfile",
    "FleetGenerator",
    "FleetLot",
    "MIN_SPEC_V",
    "MeasurementRecord",
    "N_CHIPS_DEFAULT",
    "N_CPD_SENSORS",
    "N_PARAMETRIC_TESTS",
    "N_ROD_SENSORS",
    "ParametricTestBank",
    "ProcessCorner",
    "ProcessSample",
    "ProcessVariationModel",
    "ProductSpec",
    "READ_POINTS_HOURS",
    "ROD_TEMPERATURE_C",
    "RODSensorBank",
    "ScanVminModel",
    "SiliconDataset",
    "TEMPERATURES_C",
    "WaferLayout",
    "WaferModel",
    "WaferProvenance",
]
