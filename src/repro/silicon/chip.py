"""The latent silicon state of one generated lot.

:class:`ChipPopulation` bundles the three latent samplers' outputs
(process, aging, defects) for one generated lot.  It holds no
measurements -- those live in
:class:`~repro.silicon.dataset.SiliconDataset` -- so the latent truth and
the observable data stay cleanly separated (a predictor can never
accidentally peek at ground truth).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.silicon.aging import AgedPopulation
from repro.silicon.defects import DefectPopulation
from repro.silicon.process import ProcessSample

__all__ = ["ChipPopulation"]


@dataclass(frozen=True)
class ChipPopulation:
    """Latent state of a generated lot of chips."""

    process: ProcessSample
    aging: AgedPopulation
    defects: DefectPopulation

    def __post_init__(self) -> None:
        n = self.process.n_chips
        if self.aging.n_chips != n or self.defects.n_chips != n:
            raise ValueError(
                "process/aging/defects describe different population sizes: "
                f"{n}, {self.aging.n_chips}, {self.defects.n_chips}"
            )

    @property
    def n_chips(self) -> int:
        return self.process.n_chips
