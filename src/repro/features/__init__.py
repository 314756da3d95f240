"""Feature selection and preprocessing (paper Section IV-C).

The paper's dataset has ~2000 input columns for only 156 chips, so the
non-tree models (linear regression, Gaussian process, neural network) are
given a small informative subset chosen by Correlation Feature Selection
(CFS, Hall 1999) with the Pearson correlation, sweeping 1 to 10 selected
features.  Tree-boosting models receive all raw columns and rely on their
intrinsic split-based selection.

Modules
-------
* :mod:`repro.features.cfs` -- the Pearson kernel and the greedy forward
  CFS search,
* :mod:`repro.features.selection` -- :class:`CFSSelectedRegressor`, the
  select -> scale -> fit estimator every CFS model is fitted through,
* :mod:`repro.features.preprocessing` -- :class:`StandardScaler`.
"""

from repro.features.cfs import CFSSelector, feature_target_correlation
from repro.features.preprocessing import StandardScaler
from repro.features.selection import CFSSelectedRegressor

__all__ = [
    "CFSSelectedRegressor",
    "CFSSelector",
    "StandardScaler",
    "feature_target_correlation",
]
