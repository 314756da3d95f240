"""Burn-in / ATE flow simulator: the measurement *process* view.

:class:`~repro.silicon.dataset.SiliconDataset` gives the assembled
matrices; this module simulates the flow that produces them
(paper Section IV-A): chips cycle through

1. dynamic Dhrystone stress at elevated voltage in the burn-in oven,
2. a pause at each scheduled read point,
3. SCAN Vmin test on ATE at -45/25/125 degC,
4. ROD readout on ATE at 25 degC and CPD readout in-situ at 80 degC,

emitting a tidy chronological log of :class:`MeasurementRecord` entries
-- the form a test-floor data pipeline actually sees, and what
``python -m repro generate --flow-csv`` writes.  The time-zero
parametric insertion is left out of the log: 1800 channels x n chips
would dominate it without adding flow structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.silicon.constants import CPD_TEMPERATURE_C, ROD_TEMPERATURE_C
from repro.silicon.dataset import SiliconDataset

__all__ = ["BurnInFlowSimulator", "MeasurementRecord"]


@dataclass(frozen=True)
class MeasurementRecord:
    """One measurement event in the burn-in flow log.

    Attributes
    ----------
    read_point_hours:
        Stress time at which the measurement was taken.
    insertion:
        Which step produced it: ``"scan_vmin"``, ``"rod"``, or ``"cpd"``.
    temperature_c:
        Test temperature of the insertion.
    chip_index:
        Chip identifier within the lot.
    channel:
        Test/sensor channel name.
    value:
        Measured value (V for scan_vmin, ps for monitors).
    """

    read_point_hours: int
    insertion: str
    temperature_c: float
    chip_index: int
    channel: str
    value: float


class BurnInFlowSimulator:
    """Replay a :class:`SiliconDataset` as a chronological measurement log.

    Parameters
    ----------
    dataset:
        The generated lot to replay.
    """

    def __init__(self, dataset: SiliconDataset) -> None:
        self.dataset = dataset

    def schedule(self) -> List[Tuple[int, str]]:
        """The ordered (read point, insertion) plan of the flow."""
        return [
            (hours, insertion)
            for hours in self.dataset.read_points
            for insertion in ("scan_vmin", "rod", "cpd")
        ]

    def run(self) -> Iterator[MeasurementRecord]:
        """Yield every measurement record in flow order."""
        data = self.dataset
        for hours, insertion in self.schedule():
            if insertion == "scan_vmin":
                for temperature in data.temperatures:
                    values = data.vmin[(temperature, hours)]
                    for chip, value in enumerate(values):
                        yield MeasurementRecord(
                            read_point_hours=hours,
                            insertion="scan_vmin",
                            temperature_c=temperature,
                            chip_index=chip,
                            channel=f"scan_vmin_{int(temperature)}C",
                            value=float(value),
                        )
            elif insertion == "rod":
                block = data.rod[hours]
                for column, name in enumerate(data.rod_names):
                    for chip in range(data.n_chips):
                        yield MeasurementRecord(
                            read_point_hours=hours,
                            insertion="rod",
                            temperature_c=ROD_TEMPERATURE_C,
                            chip_index=chip,
                            channel=name,
                            value=float(block[chip, column]),
                        )
            elif insertion == "cpd":
                block = data.cpd[hours]
                for column, name in enumerate(data.cpd_names):
                    for chip in range(data.n_chips):
                        yield MeasurementRecord(
                            read_point_hours=hours,
                            insertion="cpd",
                            temperature_c=CPD_TEMPERATURE_C,
                            chip_index=chip,
                            channel=name,
                            value=float(block[chip, column]),
                        )
