"""repro -- reliable Vmin interval prediction via CQR and on-chip monitors.

A from-scratch reproduction of "Reliable Interval Prediction of Minimum
Operating Voltage Based on On-Chip Monitors via Conformalized Quantile
Regression" (Yin, Wang, Chen, He, Li -- DATE 2024), including every
substrate the paper depends on:

* :mod:`repro.core` -- split conformal prediction, CQR, and extensions
  (CV+/Jackknife+, Mondrian, adaptive conformal),
* :mod:`repro.models` -- the five point/quantile regressors of the paper
  (linear, Gaussian process, XGBoost-style and CatBoost-style boosting,
  MLP) built on numpy/scipy only,
* :mod:`repro.features` -- CFS feature selection and preprocessing,
* :mod:`repro.silicon` -- a synthetic 5 nm automotive dataset generator
  replacing the paper's proprietary 156-chip lot,
* :mod:`repro.flow` -- the Fig.-1 prediction flow and interval-based
  production screening,
* :mod:`repro.eval` -- the 4-fold-CV evaluation protocol and the
  experiment registry behind every reproduced table/figure,
* :mod:`repro.robust` -- fault injection, graceful degradation, and
  coverage-drift monitoring for the deployed serving flow,
* :mod:`repro.runtime` -- the resilient execution runtime: deterministic
  retries, watchdog timeouts, checkpoint/resume journals, and atomic
  artifact writes backing the experiment grids.

Quickstart::

    from repro import SiliconDataset, VminPredictionFlow

    dataset = SiliconDataset.generate(seed=0)
    X, names = dataset.features(hours=0)
    y = dataset.target(temperature_c=25.0, hours=0)

    flow = VminPredictionFlow(alpha=0.1, random_state=0)
    flow.fit(X[:120], y[:120], feature_names=names)
    intervals = flow.predict_interval(X[120:])
    print(intervals.coverage(y[120:]), intervals.mean_width)
"""

from repro.core import (
    AdaptiveConformalPredictor,
    ConformalizedQuantileRegressor,
    CVPlusRegressor,
    JackknifePlusRegressor,
    MondrianConformalRegressor,
    PredictionIntervals,
    SplitConformalRegressor,
)
from repro.eval import FeatureSet, KFold
from repro.flow import SpecScreeningPolicy, VminPredictionFlow
from repro.models import (
    DeepEnsembleRegressor,
    GaussianProcessRegressor,
    GradientBoostingRegressor,
    LinearRegression,
    MLPRegressor,
    ObliviousBoostingRegressor,
    QuantileBandRegressor,
    QuantileLinearRegression,
)
from repro.robust import (
    DegradationStatus,
    DegradedPrediction,
    FaultCampaign,
    RobustVminFlow,
)
from repro.runtime import (
    PermanentFault,
    RetryPolicy,
    RunJournal,
    TaskTimeout,
    TransientFault,
)
from repro.silicon import SiliconDataset

__version__ = "1.0.0"

__all__ = [
    "AdaptiveConformalPredictor",
    "CVPlusRegressor",
    "ConformalizedQuantileRegressor",
    "DeepEnsembleRegressor",
    "DegradationStatus",
    "DegradedPrediction",
    "FaultCampaign",
    "FeatureSet",
    "GaussianProcessRegressor",
    "GradientBoostingRegressor",
    "JackknifePlusRegressor",
    "KFold",
    "LinearRegression",
    "MLPRegressor",
    "MondrianConformalRegressor",
    "ObliviousBoostingRegressor",
    "PermanentFault",
    "PredictionIntervals",
    "QuantileBandRegressor",
    "QuantileLinearRegression",
    "RetryPolicy",
    "RobustVminFlow",
    "RunJournal",
    "SiliconDataset",
    "SpecScreeningPolicy",
    "SplitConformalRegressor",
    "TaskTimeout",
    "TransientFault",
    "VminPredictionFlow",
    "__version__",
]
