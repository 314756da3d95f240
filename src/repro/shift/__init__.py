"""Distribution-shift defense layer: detect, bound, and repair.

Every conformal guarantee in this repository assumes exchangeability;
the fleet scenarios the roadmap targets (new fab, drifting process
corners, sensor recalibration) break it by construction.  This package
makes the violation an observable event and provides the repair:

- :mod:`repro.shift.sentinel` -- online conformal test martingale
  (exchangeability sentinel with a Ville's-inequality alarm threshold)
  and per-feature PSI/KS covariate-shift detectors.
- :mod:`repro.shift.weights` -- deterministic logistic density-ratio
  estimation and the Kish effective-sample-size degeneracy guard.
- :mod:`repro.shift.weighted` -- likelihood-ratio-weighted margins
  around a fitted CQR band (split CP over a point band) that restore
  approximate coverage under covariate shift, refusing loudly when the
  weights degenerate.

Serving integration lives in :mod:`repro.serve.shiftguard`; shifted
fleet data generation in :mod:`repro.silicon.fleet`; the end-to-end
campaign in :func:`repro.eval.stress.run_shift_campaign`.  See
``docs/SHIFT.md`` for the threat model and guarantee fine print.
"""

from repro.shift.sentinel import (
    ConformalTestMartingale,
    CovariateShiftAlarm,
    CovariateShiftDetector,
    ExchangeabilityAlarm,
)
from repro.shift.weighted import (
    DegenerateWeightsError,
    WeightedBandCalibrator,
    weighted_band_calibrator,
)
from repro.shift.weights import LogisticDensityRatio, effective_sample_size

__all__ = [
    "ConformalTestMartingale",
    "CovariateShiftAlarm",
    "CovariateShiftDetector",
    "DegenerateWeightsError",
    "ExchangeabilityAlarm",
    "LogisticDensityRatio",
    "WeightedBandCalibrator",
    "effective_sample_size",
    "weighted_band_calibrator",
]
