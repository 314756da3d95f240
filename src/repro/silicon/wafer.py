"""Wafer-level structure: die placement and cross-wafer systematics.

The base :class:`~repro.silicon.process.ProcessVariationModel` treats
chips as iid.  Real lots have an extra layer: chips come from a handful
of wafers, each wafer carries its own mean shift (lot/wafer-level
process drift), and within a wafer the classic radial "bullseye"
signature makes edge dies systematically different from centre dies.
This module adds that hierarchy as a *composable* overlay:

* :class:`WaferLayout` -- deterministic die placement on a circular
  wafer (gross dies inside the usable radius, serpentine order, the way
  a stepper fills a wafer),
* :class:`WaferModel` -- samples per-wafer offsets and the radial
  signature, yielding a per-chip Vth overlay plus (wafer id, die x/y)
  provenance.

The overlay feeds two consumers: the dataset generator can add it to
``vth_shift`` for more realistic population structure, and the Mondrian
conformal benchmark uses wafer/zone ids as its grouping taxonomy (the
automotive use case: per-wafer-zone coverage guarantees).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.models.base import check_random_state

__all__ = ["WaferLayout", "WaferModel", "WaferProvenance"]


class WaferLayout:
    """Die placement on a circular wafer.

    Parameters
    ----------
    dies_per_row:
        Grid resolution across the wafer diameter; the usable dies are
        the grid cells whose centre lies inside ``usable_fraction`` of
        the radius.
    usable_fraction:
        Fraction of the wafer radius holding printable dies (edge
        exclusion).
    """

    def __init__(self, dies_per_row: int = 14, usable_fraction: float = 0.95) -> None:
        if dies_per_row < 2:
            raise ValueError(f"dies_per_row must be >= 2, got {dies_per_row}")
        if not 0.0 < usable_fraction <= 1.0:
            raise ValueError(
                f"usable_fraction must be in (0, 1], got {usable_fraction}"
            )
        self.dies_per_row = dies_per_row
        self.usable_fraction = usable_fraction
        self._coordinates = self._build()

    def _build(self) -> np.ndarray:
        # Cell centres in normalised wafer coordinates [-1, 1].
        centres = (np.arange(self.dies_per_row) + 0.5) / self.dies_per_row * 2.0 - 1.0
        dies = []
        for row, y in enumerate(centres):
            row_dies = [
                (x, y)
                for x in centres
                if np.hypot(x, y) <= self.usable_fraction
            ]
            # Serpentine stepper order: alternate rows reverse direction.
            if row % 2 == 1:
                row_dies.reverse()
            dies.extend(row_dies)
        if not dies:
            raise ValueError("layout has no usable dies; increase dies_per_row")
        return np.asarray(dies, dtype=np.float64)

    @property
    def dies_per_wafer(self) -> int:
        return int(self._coordinates.shape[0])

    def coordinates(self) -> np.ndarray:
        """(dies_per_wafer, 2) normalised die-centre coordinates."""
        return self._coordinates.copy()

    def radius(self) -> np.ndarray:
        """Normalised distance of every die from the wafer centre."""
        return np.hypot(self._coordinates[:, 0], self._coordinates[:, 1])

    def zone(self, n_rings: int = 3) -> np.ndarray:
        """Ring-zone index per die: 0 = centre ... n_rings-1 = edge.

        Rings are equal-width in radius up to ``usable_fraction``; the
        natural grouping taxonomy for per-zone conformal guarantees.
        """
        if n_rings < 1:
            raise ValueError(f"n_rings must be >= 1, got {n_rings}")
        edges = np.linspace(0.0, self.usable_fraction, n_rings + 1)[1:-1]
        return np.searchsorted(edges, self.radius(), side="right")


@dataclass(frozen=True)
class WaferProvenance:
    """Per-chip wafer provenance produced by :class:`WaferModel`."""

    wafer_id: np.ndarray
    """Wafer index per chip."""

    die_xy: np.ndarray
    """(n_chips, 2) normalised die-centre coordinates."""

    vth_overlay_v: np.ndarray
    """Wafer + radial systematic Vth contribution per chip (V)."""

    def zone(self, layout: "WaferLayout", n_rings: int = 3) -> np.ndarray:
        """Ring-zone label per chip, matching ``layout.zone`` semantics."""
        if n_rings < 1:
            raise ValueError(f"n_rings must be >= 1, got {n_rings}")
        radius = np.hypot(self.die_xy[:, 0], self.die_xy[:, 1])
        edges = np.linspace(0.0, layout.usable_fraction, n_rings + 1)[1:-1]
        return np.searchsorted(edges, radius, side="right")


class WaferModel:
    """Sampler for wafer-hierarchy Vth overlays.

    Parameters
    ----------
    layout:
        Die placement; default 14x14 grid, ~140 usable dies.
    wafer_sigma_v:
        Std of per-wafer mean Vth offsets (lot-level drift).
    radial_amplitude_v:
        Mean bullseye amplitude: edge dies shift by about this much
        relative to centre dies (sign varies per wafer).
    radial_sigma_v:
        Wafer-to-wafer spread of the bullseye amplitude.
    """

    def __init__(
        self,
        layout: Optional[WaferLayout] = None,
        wafer_sigma_v: float = 0.004,
        radial_amplitude_v: float = 0.005,
        radial_sigma_v: float = 0.002,
    ) -> None:
        if wafer_sigma_v < 0 or radial_sigma_v < 0:
            raise ValueError("sigma parameters must be >= 0")
        self.layout = layout or WaferLayout()
        self.wafer_sigma_v = wafer_sigma_v
        self.radial_amplitude_v = radial_amplitude_v
        self.radial_sigma_v = radial_sigma_v

    def sample(self, n_chips: int, rng) -> WaferProvenance:
        """Assign ``n_chips`` to wafers in stepper order and draw overlays.

        Chips fill wafer 0 die-by-die, then wafer 1, etc., exactly like a
        test floor receives them; the final wafer may be partial.
        """
        if n_chips < 1:
            raise ValueError(f"n_chips must be >= 1, got {n_chips}")
        rng = check_random_state(rng)
        per_wafer = self.layout.dies_per_wafer
        n_wafers = int(np.ceil(n_chips / per_wafer))

        wafer_offsets = rng.normal(0.0, self.wafer_sigma_v, size=n_wafers)
        radial_amplitudes = rng.normal(
            self.radial_amplitude_v, self.radial_sigma_v, size=n_wafers
        ) * rng.choice((-1.0, 1.0), size=n_wafers)

        die_index = np.arange(n_chips) % per_wafer
        wafer_id = np.arange(n_chips) // per_wafer
        coordinates = self.layout.coordinates()[die_index]
        radius = np.hypot(coordinates[:, 0], coordinates[:, 1])
        normalised = radius / max(self.layout.usable_fraction, 1e-12)
        overlay = wafer_offsets[wafer_id] + radial_amplitudes[wafer_id] * normalised**2
        return WaferProvenance(
            wafer_id=wafer_id,
            die_xy=coordinates,
            vth_overlay_v=overlay,
        )
