"""Robust serving: fault injection, graceful degradation, drift monitoring.

The paper promises *reliable* Vmin intervals; this package is what makes
that promise survive contact with a test floor.  It has four layers,
each usable on its own:

* :mod:`repro.robust.faults` -- seeded, composable fault injectors
  (dead/stuck sensors, aging drift, temperature offset, noise bursts,
  row dropout), the declarative :class:`FaultCampaign` severity
  sweep used by the stress harness and CI, and the *execution*-fault
  injectors (:class:`TaskCrashFault`, :class:`TaskHangFault`) that
  crash or hang grid workers to exercise :mod:`repro.runtime`;
* :mod:`repro.robust.guard` / :mod:`repro.robust.imputation` -- the
  input-sanitization front-end: train-time statistic capture, per-entry
  health masks, bounded median imputation;
* :mod:`repro.robust.fallback` -- graceful degradation semantics:
  the fixed damage thresholds and inflation schedule, and the structured
  :class:`DegradedPrediction` result;
* :mod:`repro.robust.monitoring` -- the rolling empirical-coverage
  monitor whose alarms trigger online recalibration.

:class:`RobustVminFlow` (:mod:`repro.robust.flow`) wires all four
around the paper's :class:`~repro.flow.pipeline.VminPredictionFlow`.
"""

from repro.robust.fallback import (
    DegradationStatus,
    DegradedPrediction,
    inflate_intervals,
)
from repro.robust.faults import (
    AgingDrift,
    DeadSensors,
    ExecutionFault,
    FaultCampaign,
    FaultInjector,
    FaultScenario,
    NoiseBurst,
    RowDropout,
    StuckSensors,
    TaskCrashFault,
    TaskHangFault,
    TemperatureOffset,
    column_scales,
)
from repro.robust.flow import ObservedBatch, RobustVminFlow
from repro.robust.guard import FeatureHealthGuard, HealthReport
from repro.robust.imputation import TrainStatImputer
from repro.robust.monitoring import CoverageAlarm, CoverageMonitor, CoverageTransition

__all__ = [
    "AgingDrift",
    "CoverageAlarm",
    "CoverageMonitor",
    "CoverageTransition",
    "DeadSensors",
    "DegradationStatus",
    "DegradedPrediction",
    "ExecutionFault",
    "FaultCampaign",
    "FaultInjector",
    "FaultScenario",
    "FeatureHealthGuard",
    "HealthReport",
    "NoiseBurst",
    "ObservedBatch",
    "RobustVminFlow",
    "RowDropout",
    "StuckSensors",
    "TaskCrashFault",
    "TaskHangFault",
    "TemperatureOffset",
    "TrainStatImputer",
    "column_scales",
    "inflate_intervals",
]
