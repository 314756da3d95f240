"""BTI/HCI aging model for the accelerated burn-in stress.

The dominant wear-out in thin-oxide 5 nm logic under elevated-voltage
dynamic stress is Bias Temperature Instability, classically modelled as
a power law in stress time

.. math::

    \\Delta V_{th}(t) = A \\cdot (t / t_{ref})^{n},\\qquad n \\approx 0.2,

plus a smaller Hot-Carrier-Injection component that is closer to linear
in time.  ``A`` varies chip to chip (activity patterns, local workload
heating, process) as a log-normal -- that chip-to-chip spread is exactly
what the on-chip monitors observe and what makes them predictive of
future Vmin degradation in the paper's Section IV-D.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import check_random_state

__all__ = ["AgedPopulation", "AgingModel"]


class AgingModel:
    """Per-chip threshold-voltage shift as a function of stress hours.

    Parameters
    ----------
    bti_median_v:
        Median BTI ΔVth at ``t_ref_hours`` of stress (V).
    bti_log_sigma:
        Chip-to-chip log-normal sigma of the BTI amplitude.
    bti_exponent:
        Power-law time exponent ``n``.
    hci_median_v:
        Median HCI ΔVth at ``t_ref_hours`` (V), accumulated linearly.
    hci_log_sigma:
        Chip-to-chip log-normal sigma of the HCI amplitude.
    t_ref_hours:
        Reference stress duration (the full 1008 h burn-in by default).
    vth_coupling:
        Fast silicon (negative Vth shift) stresses harder under fixed
        elevated voltage; the amplitude log-mean shifts by
        ``-coupling * vth_shift / vth_sigma_ref``.
    """

    def __init__(
        self,
        bti_median_v: float = 0.018,
        bti_log_sigma: float = 0.35,
        bti_exponent: float = 0.21,
        hci_median_v: float = 0.004,
        hci_log_sigma: float = 0.4,
        t_ref_hours: float = 1008.0,
        vth_coupling: float = 0.3,
        vth_sigma_ref: float = 0.010,
    ) -> None:
        for name, value in (
            ("bti_median_v", bti_median_v),
            ("bti_log_sigma", bti_log_sigma),
            ("bti_exponent", bti_exponent),
            ("hci_median_v", hci_median_v),
            ("hci_log_sigma", hci_log_sigma),
            ("t_ref_hours", t_ref_hours),
            ("vth_sigma_ref", vth_sigma_ref),
        ):
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if not 0.0 < bti_exponent < 1.0:
            raise ValueError(
                f"bti_exponent must be in (0, 1), got {bti_exponent}"
            )
        self.bti_median_v = bti_median_v
        self.bti_log_sigma = bti_log_sigma
        self.bti_exponent = bti_exponent
        self.hci_median_v = hci_median_v
        self.hci_log_sigma = hci_log_sigma
        self.t_ref_hours = t_ref_hours
        self.vth_coupling = vth_coupling
        self.vth_sigma_ref = vth_sigma_ref

    def sample_amplitudes(
        self, vth_shift: np.ndarray, rng
    ) -> "AgedPopulation":
        """Draw per-chip BTI/HCI amplitudes for a population.

        ``vth_shift`` is the global process shift from
        :class:`~repro.silicon.process.ProcessSample`; it tilts the stress
        severity of fast silicon.
        """
        vth_shift = np.asarray(vth_shift, dtype=np.float64)
        if vth_shift.ndim != 1:
            raise ValueError(f"vth_shift must be 1-D, got shape {vth_shift.shape}")
        rng = check_random_state(rng)
        n = vth_shift.shape[0]
        tilt = -self.vth_coupling * vth_shift / self.vth_sigma_ref * (
            self.bti_log_sigma / 2.0
        )
        bti = self.bti_median_v * np.exp(
            rng.normal(0.0, self.bti_log_sigma, size=n) + tilt
        )
        hci = self.hci_median_v * np.exp(
            rng.normal(0.0, self.hci_log_sigma, size=n) + tilt
        )
        return AgedPopulation(model=self, bti_amplitude=bti, hci_amplitude=hci)


class AgedPopulation:
    """Frozen per-chip aging amplitudes with time evaluation."""

    def __init__(
        self, model: AgingModel, bti_amplitude: np.ndarray, hci_amplitude: np.ndarray
    ) -> None:
        if bti_amplitude.shape != hci_amplitude.shape or bti_amplitude.ndim != 1:
            raise ValueError("amplitude arrays must be 1-D with equal shape")
        self.model = model
        self.bti_amplitude = bti_amplitude
        self.hci_amplitude = hci_amplitude

    @property
    def n_chips(self) -> int:
        return int(self.bti_amplitude.shape[0])

    def vth_shift_at(self, hours: float) -> np.ndarray:
        """ΔVth per chip after ``hours`` of accelerated stress (V).

        Zero at ``hours = 0`` exactly; monotone nondecreasing in time.
        """
        if hours < 0:
            raise ValueError(f"hours must be >= 0, got {hours}")
        if hours == 0:
            return np.zeros(self.n_chips)
        normalized = hours / self.model.t_ref_hours
        bti = self.bti_amplitude * normalized**self.model.bti_exponent
        hci = self.hci_amplitude * normalized
        return bti + hci
