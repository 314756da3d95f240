"""Ground-truth SCAN Vmin model.

The minimum operating voltage of a chip at an ATE corner and stress time
is assembled from physically motivated contributions:

* a per-temperature population base (cold worst: Vth rises and gate
  overdrive shrinks at low voltage; hot second-worst via leakage/IR drop),
* global process speed: high Vth or long channels need more voltage, with
  the sensitivity amplified at cold,
* the worst-case within-die systematic corner (critical paths live at die
  edges, so the chip pays for its worst gradient excursion),
* a leakage / IR-drop term that matters mainly at 125 degC,
* accumulated BTI/HCI aging, again amplified at cold,
* the latent-defect penalty (temperature- and time-dependent, see
  :mod:`repro.silicon.defects`),
* heteroscedastic test noise -- larger at cold and larger for defective
  parts -- plus the ATE voltage-search quantisation step.

The heteroscedastic, heavy-tailed structure is deliberate: it is the
regime in which constant-width conformal intervals over/under-margin and
CQR's adaptive bands earn their keep (paper Sections I and III-C).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.models.base import check_random_state
from repro.silicon.aging import AgedPopulation
from repro.silicon.constants import VMIN_BASE_V, validate_temperature
from repro.silicon.defects import DefectPopulation
from repro.silicon.process import ProcessSample

__all__ = ["ScanVminModel"]

_SPEED_COEF: Dict[float, float] = {-45.0: 1.35, 25.0: 0.95, 125.0: 0.75}
_LEFF_COEF_V: Dict[float, float] = {-45.0: 0.006, 25.0: 0.004, 125.0: 0.003}
_CORNER_COEF: Dict[float, float] = {-45.0: 1.1, 25.0: 0.9, 125.0: 0.8}
_LEAK_COEF_V: Dict[float, float] = {-45.0: 0.001, 25.0: 0.002, 125.0: 0.008}
_AGING_COEF: Dict[float, float] = {-45.0: 1.2, 25.0: 0.9, 125.0: 0.8}
_NOISE_SIGMA_V: Dict[float, float] = {-45.0: 0.0035, 25.0: 0.0020, 125.0: 0.0025}


class ScanVminModel:
    """Evaluate true and measured SCAN Vmin for a chip population.

    Parameters
    ----------
    ate_step_v:
        Voltage resolution of the ATE Vmin search (binary/linear search
        step).  Measured Vmin is the true value rounded *up* to the next
        step -- the tester reports the lowest passing voltage it visited.
    defect_noise_factor:
        Multiplier on test noise for defective chips (marginal parts are
        less repeatable).
    """

    def __init__(
        self,
        ate_step_v: float = 0.0025,
        defect_noise_factor: float = 1.5,
    ) -> None:
        if ate_step_v <= 0:
            raise ValueError(f"ate_step_v must be positive, got {ate_step_v}")
        if defect_noise_factor < 1:
            raise ValueError(
                f"defect_noise_factor must be >= 1, got {defect_noise_factor}"
            )
        self.ate_step_v = ate_step_v
        self.defect_noise_factor = defect_noise_factor

    def true_vmin(
        self,
        process: ProcessSample,
        aging: AgedPopulation,
        defects: DefectPopulation,
        temperature_c: float,
        hours: float,
    ) -> np.ndarray:
        """Noise-free per-chip Vmin (V) at a corner and stress time."""
        temperature_c = validate_temperature(temperature_c)
        if hours < 0:
            raise ValueError(f"hours must be >= 0, got {hours}")

        speed = _SPEED_COEF[temperature_c] * process.vth_shift
        length = _LEFF_COEF_V[temperature_c] * process.leff_shift
        worst_corner = _CORNER_COEF[temperature_c] * (
            np.abs(process.gradient_x) + np.abs(process.gradient_y)
        )
        leakage = _LEAK_COEF_V[temperature_c] * np.log(process.leakage_factor)
        aged = _AGING_COEF[temperature_c] * aging.vth_shift_at(hours)
        defect = defects.vmin_penalty(temperature_c, hours)

        return (
            VMIN_BASE_V[temperature_c]
            + speed
            + length
            + worst_corner
            + leakage
            + aged
            + defect
        )

    def measure(
        self,
        process: ProcessSample,
        aging: AgedPopulation,
        defects: DefectPopulation,
        temperature_c: float,
        hours: float,
        rng,
    ) -> np.ndarray:
        """One ATE Vmin test: true value + heteroscedastic noise, stepped.

        Returns the per-chip measured Vmin (V).  Noise sigma is the
        corner's base sigma, scaled up for defective chips; the result is
        rounded up to the ATE search step.
        """
        temperature_c = validate_temperature(temperature_c)
        rng = check_random_state(rng)
        truth = self.true_vmin(process, aging, defects, temperature_c, hours)
        sigma = _NOISE_SIGMA_V[temperature_c] * np.where(
            defects.mask, self.defect_noise_factor, 1.0
        )
        noisy = truth + rng.normal(0.0, 1.0, size=truth.shape) * sigma
        return np.ceil(noisy / self.ate_step_v) * self.ate_step_v
