"""Multi-product, multi-fab fleet generation with process-corner drift.

A single :class:`~repro.silicon.dataset.SiliconDataset` lot is one
product from one fab at one moment -- exactly the exchangeable world
where split CP/CQR guarantees hold.  Real fleets are not that world:
the same design is fabbed at multiple sites with distinct process
corners, corners drift over calendar time as a line ages or re-centres,
and each fab has its own wafer-level signature.  This module makes those
violations *generatable and seeded* so the shift defense layer
(:mod:`repro.shift`, :mod:`repro.serve.shiftguard`,
:func:`repro.eval.stress.run_shift_campaign`) can be exercised against
known ground truth.

The shift mechanism is deliberately physical rather than an abstract
feature perturbation: a :class:`ProcessCorner` offsets the latent
process state (global Vth, channel length, leakage) that *every*
monitor and the Vmin label are views of, so a fab change moves the
joint feature/label distribution coherently -- covariate shift with the
conditional Vmin law essentially preserved, which is precisely the
regime weighted conformal repair targets.

Seeding is hierarchical: one fleet seed plus the (product, fab,
calendar-time, lot) coordinates derive each lot's seed through
``np.random.SeedSequence``, so any lot is reproducible in isolation and
adding lots never reshuffles existing ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.silicon.constants import (
    N_CHIPS_DEFAULT,
    READ_POINTS_HOURS,
    TEMPERATURES_C,
)
from repro.silicon.dataset import SiliconDataset
from repro.silicon.process import ProcessSample, ProcessVariationModel
from repro.silicon.wafer import WaferLayout, WaferModel

__all__ = [
    "CorneredProcessModel",
    "CornerDrift",
    "FabProfile",
    "FleetGenerator",
    "FleetLot",
    "ProcessCorner",
    "ProductSpec",
]


@dataclass(frozen=True)
class ProcessCorner:
    """Systematic offset of a fab's process centre from nominal.

    Offsets add to the latent state of every chip the fab produces:
    ``vth_offset_v`` shifts the global threshold voltage (the dominant
    Vmin knob; the nominal population sigma is ~10 mV, so 0.02 V is a
    two-sigma corner), ``leff_offset`` shifts the normalised channel
    length, and ``leakage_log_offset`` scales leakage by its exponent.
    """

    name: str
    vth_offset_v: float = 0.0
    leff_offset: float = 0.0
    leakage_log_offset: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("corner name must be non-empty")
        for attr in ("vth_offset_v", "leff_offset", "leakage_log_offset"):
            if not np.isfinite(getattr(self, attr)):
                raise ValueError(f"{attr} must be finite")


@dataclass(frozen=True)
class CornerDrift:
    """Linear calendar-time drift of a process corner (per 1000 hours).

    Models a line slowly walking off centre between re-qualifications.
    Rates are per kilo-hour of *calendar* time (fab time, not device
    field time -- a lot fabbed later is shifted further, whatever its
    own age).
    """

    vth_v_per_khour: float = 0.0
    leff_per_khour: float = 0.0
    leakage_log_per_khour: float = 0.0

    def __post_init__(self) -> None:
        for attr in ("vth_v_per_khour", "leff_per_khour", "leakage_log_per_khour"):
            if not np.isfinite(getattr(self, attr)):
                raise ValueError(f"{attr} must be finite")

    def applied(self, corner: ProcessCorner, calendar_hours: float) -> ProcessCorner:
        """The corner as it stands after ``calendar_hours`` of drift."""
        if not (np.isfinite(calendar_hours) and calendar_hours >= 0):
            raise ValueError(
                f"calendar_hours must be finite and >= 0, got {calendar_hours}"
            )
        khours = calendar_hours / 1000.0
        return replace(
            corner,
            vth_offset_v=corner.vth_offset_v + self.vth_v_per_khour * khours,
            leff_offset=corner.leff_offset + self.leff_per_khour * khours,
            leakage_log_offset=(
                corner.leakage_log_offset + self.leakage_log_per_khour * khours
            ),
        )


class CorneredProcessModel(ProcessVariationModel):
    """A :class:`ProcessVariationModel` recentred on a process corner.

    Random variation (sigmas, couplings, gradients) is inherited from
    the base model unchanged; only the population *centre* moves.  The
    corner therefore shifts the marginal feature distribution while
    leaving the physics that maps latent state to monitors and Vmin
    untouched -- covariate shift, not concept drift.

    Parameters
    ----------
    corner:
        The systematic offsets to apply.
    base:
        Variation amplitudes to inherit; a default
        :class:`ProcessVariationModel` when ``None``.
    """

    def __init__(
        self,
        corner: ProcessCorner,
        base: Optional[ProcessVariationModel] = None,
    ) -> None:
        base = base if base is not None else ProcessVariationModel()
        super().__init__(
            vth_sigma_v=base.vth_sigma_v,
            leff_sigma=base.leff_sigma,
            leakage_log_sigma=base.leakage_log_sigma,
            leakage_vth_coupling=base.leakage_vth_coupling,
            gradient_sigma_v=base.gradient_sigma_v,
        )
        self.corner = corner

    def sample(self, n_chips: int, rng) -> ProcessSample:
        """Draw from the base model, then recentre on the corner."""
        nominal = super().sample(n_chips, rng)
        return ProcessSample(
            vth_shift=nominal.vth_shift + self.corner.vth_offset_v,
            leff_shift=nominal.leff_shift + self.corner.leff_offset,
            leakage_factor=(
                nominal.leakage_factor * np.exp(self.corner.leakage_log_offset)
            ),
            gradient_x=nominal.gradient_x,
            gradient_y=nominal.gradient_y,
        )


@dataclass(frozen=True)
class FabProfile:
    """One fabrication site: a process corner, its drift, its wafers."""

    name: str
    corner: ProcessCorner
    drift: CornerDrift = field(default_factory=CornerDrift)
    wafer_model: Optional[WaferModel] = None
    """Site wafer signature; a default :class:`WaferModel` when ``None``."""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("fab name must be non-empty")

    def corner_at(self, calendar_hours: float) -> ProcessCorner:
        """The fab's effective corner after calendar-time drift."""
        return self.drift.applied(self.corner, calendar_hours)


@dataclass(frozen=True)
class ProductSpec:
    """One product line: base process variation and lot size."""

    name: str
    process: Optional[ProcessVariationModel] = None
    """Nominal variation amplitudes; package default when ``None``."""

    n_chips: int = N_CHIPS_DEFAULT

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("product name must be non-empty")
        if self.n_chips < 2:
            raise ValueError(f"n_chips must be >= 2, got {self.n_chips}")


@dataclass(frozen=True)
class FleetLot:
    """One generated lot: the dataset plus its fleet coordinates."""

    product: str
    fab: str
    calendar_hours: int
    lot_index: int
    corner: ProcessCorner
    """The *drifted* corner the lot was actually fabbed at."""

    seed: int
    dataset: SiliconDataset
    wafer_layout: WaferLayout

    def zones(self, n_rings: int = 3) -> np.ndarray:
        """Wafer ring-zone label per chip (the Mondrian taxonomy)."""
        if self.dataset.wafer is None:
            raise RuntimeError("lot was generated without wafer provenance")
        return self.dataset.wafer.zone(self.wafer_layout, n_rings)


class FleetGenerator:
    """Seeded generator of shifted lots across products, fabs, and time.

    Parameters
    ----------
    products:
        Product lines; names must be unique.
    fabs:
        Fabrication sites; names must be unique.  The first fab is
        conventionally the reference site models are trained on.
    seed:
        Fleet master seed.  Lot seeds derive from it and the lot's
        (product, fab, calendar-time, lot-index) coordinates, so every
        lot is individually reproducible.

    Examples
    --------
    >>> fleet = FleetGenerator(
    ...     products=[ProductSpec("alpha")],
    ...     fabs=[
    ...         FabProfile("ref", ProcessCorner("nominal")),
    ...         FabProfile("new", ProcessCorner("slow", vth_offset_v=0.02)),
    ...     ],
    ...     seed=7,
    ... )
    >>> reference = fleet.lot("alpha", "ref")
    >>> shifted = fleet.lot("alpha", "new")  # same physics, moved corner
    """

    def __init__(
        self,
        products: Sequence[ProductSpec],
        fabs: Sequence[FabProfile],
        seed: int = 0,
    ) -> None:
        products = list(products)
        fabs = list(fabs)
        if not products:
            raise ValueError("at least one product is required")
        if not fabs:
            raise ValueError("at least one fab is required")
        product_names = [p.name for p in products]
        fab_names = [f.name for f in fabs]
        if len(set(product_names)) != len(product_names):
            raise ValueError(f"duplicate product names in {product_names}")
        if len(set(fab_names)) != len(fab_names):
            raise ValueError(f"duplicate fab names in {fab_names}")
        self.products: Dict[str, ProductSpec] = {p.name: p for p in products}
        self.fabs: Dict[str, FabProfile] = {f.name: f for f in fabs}
        self._product_index = {name: i for i, name in enumerate(product_names)}
        self._fab_index = {name: i for i, name in enumerate(fab_names)}
        self.seed = int(seed)

    def _lot_seed(
        self, product: str, fab: str, calendar_hours: int, lot_index: int
    ) -> int:
        sequence = np.random.SeedSequence(
            [
                self.seed,
                self._product_index[product],
                self._fab_index[fab],
                int(calendar_hours),
                int(lot_index),
            ]
        )
        return int(sequence.generate_state(1)[0])

    def design_seed(self, product_name: str) -> int:
        """The product's instrument-design seed, shared by all its lots.

        Monitor and parametric bank designs are part of the product, not
        the lot: every lot of ``product_name`` -- whatever its fab,
        calendar time, or index -- is measured by identical instruments,
        so feature columns are comparable across lots (the premise of
        every covariate-shift comparison in :mod:`repro.shift`).
        """
        if product_name not in self.products:
            raise KeyError(
                f"unknown product {product_name!r}; have {sorted(self.products)}"
            )
        sequence = np.random.SeedSequence(
            [self.seed, self._product_index[product_name]]
        )
        return int(sequence.generate_state(1)[0])

    def lot(
        self,
        product_name: str,
        fab_name: str,
        calendar_hours: int = 0,
        lot_index: int = 0,
        n_chips: Optional[int] = None,
        read_points: Tuple[int, ...] = READ_POINTS_HOURS,
        temperatures: Tuple[float, ...] = TEMPERATURES_C,
    ) -> FleetLot:
        """Generate one lot of ``product_name`` fabbed at ``fab_name``.

        ``calendar_hours`` is the fab-calendar time of fabrication (it
        selects the drifted corner and a distinct seed); ``lot_index``
        distinguishes same-coordinate lots, so exchangeable control data
        is one index increment away from the training lot.
        """
        if product_name not in self.products:
            raise KeyError(
                f"unknown product {product_name!r}; have {sorted(self.products)}"
            )
        if fab_name not in self.fabs:
            raise KeyError(f"unknown fab {fab_name!r}; have {sorted(self.fabs)}")
        if calendar_hours < 0:
            raise ValueError(f"calendar_hours must be >= 0, got {calendar_hours}")
        if lot_index < 0:
            raise ValueError(f"lot_index must be >= 0, got {lot_index}")
        product = self.products[product_name]
        fab = self.fabs[fab_name]
        corner = fab.corner_at(calendar_hours)
        process = CorneredProcessModel(corner, base=product.process)
        wafer_model = fab.wafer_model if fab.wafer_model is not None else WaferModel()
        seed = self._lot_seed(product_name, fab_name, calendar_hours, lot_index)
        dataset = SiliconDataset.generate(
            n_chips=n_chips if n_chips is not None else product.n_chips,
            seed=seed,
            process_model=process,
            wafer_model=wafer_model,
            read_points=read_points,
            temperatures=temperatures,
            design_seed=self.design_seed(product_name),
        )
        return FleetLot(
            product=product_name,
            fab=fab_name,
            calendar_hours=int(calendar_hours),
            lot_index=int(lot_index),
            corner=corner,
            seed=seed,
            dataset=dataset,
            wafer_layout=wafer_model.layout,
        )
