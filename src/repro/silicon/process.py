"""Process-variation model for the synthetic chip population.

Each chip carries a small latent state that every downstream measurement
(Vmin, monitors, parametric tests) is a view of:

* ``vth_shift`` -- chip-global threshold-voltage deviation (V).  The
  dominant speed knob: slow (high-Vth) silicon needs more voltage.
* ``leff_shift`` -- normalised effective-channel-length deviation; acts
  like a second, partially independent speed/leakage knob.
* ``leakage_factor`` -- log-normal multiplier on all leakage currents,
  anti-correlated with ``vth_shift`` (fast silicon leaks more).
* ``gradient_x/gradient_y`` -- within-die systematic variation slopes, so
  monitors at different die locations see coherently different silicon.
* ``mismatch(n_sites)`` -- per-site local random mismatch draws.

Amplitudes default to a plausible 5 nm corner (sigma ~ 10 mV global Vth)
and are constructor-tunable for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.base import check_random_state

__all__ = ["ProcessSample", "ProcessVariationModel"]


@dataclass(frozen=True)
class ProcessSample:
    """Latent process state of a chip population (arrays over chips)."""

    vth_shift: np.ndarray
    """Global threshold-voltage deviation per chip (V)."""

    leff_shift: np.ndarray
    """Normalised channel-length deviation per chip (unitless, ~N(0,1))."""

    leakage_factor: np.ndarray
    """Log-normal leakage multiplier per chip (unitless, median 1)."""

    gradient_x: np.ndarray
    """Within-die systematic Vth slope along x (V per normalised die unit)."""

    gradient_y: np.ndarray
    """Within-die systematic Vth slope along y (V per normalised die unit)."""

    def __post_init__(self) -> None:
        n = self.vth_shift.shape[0]
        for name in ("leff_shift", "leakage_factor", "gradient_x", "gradient_y"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ValueError(
                    f"{name} must have shape ({n},), got {arr.shape}"
                )

    @property
    def n_chips(self) -> int:
        return int(self.vth_shift.shape[0])

    def local_vth(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Systematic Vth at normalised die coordinates, per (chip, site).

        ``x``/``y`` are arrays of shape (n_sites,) in [-1, 1]; the result
        has shape (n_chips, n_sites): global shift plus the chip's planar
        gradient evaluated at each site.
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("x and y must be 1-D arrays of equal length")
        return (
            self.vth_shift[:, None]
            + self.gradient_x[:, None] * x[None, :]
            + self.gradient_y[:, None] * y[None, :]
        )


class ProcessVariationModel:
    """Sampler for :class:`ProcessSample` populations.

    Parameters
    ----------
    vth_sigma_v:
        Standard deviation of the global Vth shift (V).
    leff_sigma:
        Standard deviation of the normalised channel-length shift.
    leakage_log_sigma:
        Sigma of the log-normal leakage factor.
    leakage_vth_coupling:
        Strength of the fast-silicon-leaks-more anti-correlation; the
        leakage log-mean shifts by ``-coupling * vth_shift / vth_sigma``.
    gradient_sigma_v:
        Standard deviation of each within-die slope (V per die unit).
    """

    def __init__(
        self,
        vth_sigma_v: float = 0.010,
        leff_sigma: float = 1.0,
        leakage_log_sigma: float = 0.35,
        leakage_vth_coupling: float = 0.6,
        gradient_sigma_v: float = 0.004,
    ) -> None:
        for name, value in (
            ("vth_sigma_v", vth_sigma_v),
            ("leff_sigma", leff_sigma),
            ("leakage_log_sigma", leakage_log_sigma),
            ("gradient_sigma_v", gradient_sigma_v),
        ):
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if leakage_vth_coupling < 0:
            raise ValueError(
                f"leakage_vth_coupling must be >= 0, got {leakage_vth_coupling}"
            )
        self.vth_sigma_v = vth_sigma_v
        self.leff_sigma = leff_sigma
        self.leakage_log_sigma = leakage_log_sigma
        self.leakage_vth_coupling = leakage_vth_coupling
        self.gradient_sigma_v = gradient_sigma_v

    def sample(self, n_chips: int, rng) -> ProcessSample:
        """Draw a population of ``n_chips`` latent states."""
        if n_chips < 1:
            raise ValueError(f"n_chips must be >= 1, got {n_chips}")
        rng = check_random_state(rng)
        vth = rng.normal(0.0, self.vth_sigma_v, size=n_chips)
        leff = rng.normal(0.0, self.leff_sigma, size=n_chips)
        log_leak = rng.normal(0.0, self.leakage_log_sigma, size=n_chips)
        log_leak -= self.leakage_vth_coupling * vth / self.vth_sigma_v * (
            self.leakage_log_sigma / 2.0
        )
        leakage = np.exp(log_leak)
        gx = rng.normal(0.0, self.gradient_sigma_v, size=n_chips)
        gy = rng.normal(0.0, self.gradient_sigma_v, size=n_chips)
        return ProcessSample(
            vth_shift=vth,
            leff_shift=leff,
            leakage_factor=leakage,
            gradient_x=gx,
            gradient_y=gy,
        )

    def mismatch(self, n_chips: int, n_sites: int, sigma_v: float, rng) -> np.ndarray:
        """Per-(chip, site) local random Vth mismatch (V)."""
        if sigma_v < 0:
            raise ValueError(f"sigma_v must be >= 0, got {sigma_v}")
        rng = check_random_state(rng)
        return rng.normal(0.0, sigma_v, size=(n_chips, n_sites))
