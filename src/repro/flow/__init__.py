"""The end-to-end Vmin prediction flow of the paper's Fig. 1.

Which features are available at which read point (production test at
time 0, simulated in-field read points after it) is
:meth:`repro.silicon.dataset.SiliconDataset.features`; this package holds
what a product team deploys on top of it:

* :mod:`repro.flow.pipeline` -- :class:`VminPredictionFlow`, the
  fit -> conformalize -> predict-interval pipeline,
* :mod:`repro.flow.screening` -- interval-based outlier / specification
  screening (the paper's stated production use case, Section V),
* :mod:`repro.flow.binning` -- guard-banded Vmin binning for power saving
  (the use case of the paper's reference [4]).
"""

from repro.flow.binning import BinningOutcome, VminBinningPolicy, optimize_guard_band
from repro.flow.pipeline import VminPredictionFlow
from repro.flow.screening import ScreeningDecision, SpecScreeningPolicy

__all__ = [
    "BinningOutcome",
    "ScreeningDecision",
    "SpecScreeningPolicy",
    "VminBinningPolicy",
    "VminPredictionFlow",
    "optimize_guard_band",
]
