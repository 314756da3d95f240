"""Shared physical constants and Table-II geometry of the dataset.

Values follow the paper's Table II where stated; everything else is a
plausible 5 nm automotive operating point, chosen so that population
statistics (Vmin spread of tens of mV, interval lengths of 15-60 mV)
land in the same regime as the paper's Table III.
"""

from __future__ import annotations

__all__ = [
    "CPD_TEMPERATURE_C",
    "MIN_SPEC_V",
    "N_CHIPS_DEFAULT",
    "N_CPD_SENSORS",
    "N_PARAMETRIC_TESTS",
    "N_ROD_SENSORS",
    "READ_POINTS_HOURS",
    "ROD_TEMPERATURE_C",
    "TEMPERATURES_C",
    "THERMAL_VOLTAGE_V",
    "VMIN_BASE_V",
    "validate_read_point",
    "validate_temperature",
]

# -- Table II geometry -------------------------------------------------------
N_CHIPS_DEFAULT = 156
"""Number of chips in the paper's population."""

N_PARAMETRIC_TESTS = 1800
"""Parametric ATE test channels (measured at time 0, all temperatures)."""

N_ROD_SENSORS = 168
"""Ring-oscillator-delay sensors per chip."""

N_CPD_SENSORS = 10
"""In-situ critical-path-delay sensors per chip."""

READ_POINTS_HOURS = (0, 24, 48, 168, 504, 1008)
"""Burn-in stress read points (hours) at which stress pauses for tests."""

TEMPERATURES_C = (-45.0, 25.0, 125.0)
"""ATE test temperatures for SCAN Vmin and parametric tests."""

ROD_TEMPERATURE_C = 25.0
"""ROD sensors are read on ATE at room temperature only (Table II)."""

CPD_TEMPERATURE_C = 80.0
"""CPD sensors are read in-situ inside the burn-in oven at 80 degC."""

# -- electrical operating point ----------------------------------------------
MIN_SPEC_V = 0.72
"""Product Vmin specification (the min_spec dashed line of Fig. 1); chips
whose true Vmin exceeds this are spec violations."""

VMIN_BASE_V = {
    -45.0: 0.630,
    25.0: 0.560,
    125.0: 0.585,
}
"""Population-median SCAN Vmin per ATE temperature at time 0 (V).  Cold is
worst (Vth rises, gate overdrive shrinks at low voltage), hot is second
worst (leakage-driven IR drop), room is best -- the ordering implied by
the per-temperature spreads of the paper's Table III."""

THERMAL_VOLTAGE_V = {
    -45.0: 0.0197,
    25.0: 0.0257,
    125.0: 0.0343,
}
"""kT/q at each ATE temperature (V), used by the subthreshold-leakage
parametric test families."""


def validate_temperature(temperature_c: float) -> float:
    """Return ``temperature_c`` if it is one of the ATE test temperatures."""
    temperature_c = float(temperature_c)
    if temperature_c not in VMIN_BASE_V:
        raise ValueError(
            f"temperature {temperature_c} degC is not an ATE test corner; "
            f"expected one of {sorted(VMIN_BASE_V)}"
        )
    return temperature_c


def validate_read_point(hours: float) -> int:
    """Return ``hours`` as int if it is one of the stress read points."""
    if hours not in READ_POINTS_HOURS:
        raise ValueError(
            f"read point {hours} h is not in the stress schedule "
            f"{READ_POINTS_HOURS}"
        )
    return int(hours)
