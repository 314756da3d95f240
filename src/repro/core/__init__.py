"""Conformal interval prediction -- the paper's core methodology.

This package implements Section III of the paper:

* :class:`~repro.core.split_cp.SplitConformalRegressor` -- split conformal
  prediction around any point regressor (Eqs. 7-8): constant-width
  intervals with a finite-sample coverage guarantee.
* :class:`~repro.core.cqr.ConformalizedQuantileRegressor` -- CQR
  (Romano et al., 2019; Eqs. 9-10): conformal calibration of a quantile
  band, keeping the band's input-adaptive shape while restoring the
  coverage guarantee that plain QR lacks.  Over a
  :class:`~repro.core.cqr.PointBand` (a point model as the zero-width
  band) it is split CP, which is how Mondrian calibration and the
  weighted shift repair serve point templates.

Extensions beyond the paper (exercised by the ablation benchmarks):

* :mod:`repro.core.cv_plus` -- CV+ and Jackknife+ intervals that avoid
  sacrificing calibration data,
* :mod:`repro.core.mondrian` -- group-conditional (Mondrian) calibration,
  e.g. separate guarantees per temperature corner,
* :mod:`repro.core.adaptive` -- online conformal inference for in-field
  drift (the paper's stated future work).

Shared machinery lives in :mod:`repro.core.calibration` (the one
finite-sample quantile of Eq. 7/9, unweighted or weighted),
:mod:`repro.core.scores` (conformity scores), and
:mod:`repro.core.intervals` (the :class:`PredictionIntervals` result
container and the one rule for bounds a negative margin crossed).
"""

from repro.core.adaptive import AdaptiveConformalPredictor
from repro.core.calibration import (
    conformal_quantile,
    effective_coverage_level,
)
from repro.core.cqr import ConformalizedQuantileRegressor, PointBand
from repro.core.cv_plus import CVPlusRegressor, JackknifePlusRegressor
from repro.core.intervals import PredictionIntervals
from repro.core.mondrian import MondrianConformalRegressor, MondrianFallbackWarning
from repro.core.scores import absolute_residual_score, cqr_score
from repro.core.split_cp import SplitConformalRegressor

__all__ = [
    "AdaptiveConformalPredictor",
    "CVPlusRegressor",
    "ConformalizedQuantileRegressor",
    "JackknifePlusRegressor",
    "MondrianConformalRegressor",
    "MondrianFallbackWarning",
    "PointBand",
    "PredictionIntervals",
    "SplitConformalRegressor",
    "absolute_residual_score",
    "conformal_quantile",
    "cqr_score",
    "effective_coverage_level",
]
