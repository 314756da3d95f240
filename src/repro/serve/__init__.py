"""Fault-tolerant batch serving for calibrated Vmin intervals.

The production shell around the paper's pipeline -- what actually runs
against a test floor once :class:`~repro.robust.flow.RobustVminFlow`
has been fitted.  Four layers, each usable on its own:

* :mod:`repro.serve.registry` -- a versioned model registry on the
  artifact runtime: atomic publication with SHA-256 sidecars, verified
  loads (a bundle is never unpickled unverified), quarantine of corrupt
  versions, and an atomically swapped ``LATEST`` pointer for
  zero-downtime hot-swaps;
* :mod:`repro.serve.health` -- the audited readiness state machine
  (``STARTING -> READY <-> DEGRADED -> DRAINING``), the fallback-chain
  vocabulary (:class:`FallbackLevel`), and the closed
  :class:`ReasonCode` set every downgrade must be recorded with;
* :mod:`repro.serve.service` -- :class:`VminServingService`: admission
  control with typed :class:`Overloaded` rejection, per-request
  deadlines and deterministic retries, snapshot-per-request hot-swaps
  that drop zero in-flight work, and the label feedback loop driving
  ``READY <-> DEGRADED``;
* :mod:`repro.serve.recalibration` -- :class:`DriftRecalibrator`,
  which makes the flow's in-memory Gibbs-Candès recalibration durable
  by republishing the adapted flow as a new registry version;
* :mod:`repro.serve.shiftguard` -- :class:`ShiftGuard`: the
  :mod:`repro.shift` sentinels (exchangeability martingale, covariate
  PSI detector, per-wafer-zone Mondrian coverage monitors) re-armed on
  every installed model and driven from the label feedback loop, with
  new alarms audited as ``EXCHANGEABILITY_ALARM`` /
  ``COVARIATE_SHIFT`` downgrades and
  :meth:`VminServingService.repair_shift` as the weighted-conformal
  recovery (or refusal) path;
* :mod:`repro.serve.compiled` -- :func:`compiled_summary` records the
  batch-at-once inference kernels (:mod:`repro.models.tables`) of a
  flow's boosting ensembles in every published manifest; the ensembles
  compile them at ``fit``.

The soak harness (:func:`repro.eval.stress.run_serving_campaign`)
exercises all four under injected artifact corruption, worker crashes,
and covariate drift; ``python -m repro serve`` is the CLI entry point.
"""

from repro.serve.compiled import compiled_summary
from repro.serve.health import (
    FallbackLevel,
    HealthStateMachine,
    IllegalTransition,
    ReasonCode,
    ServiceState,
    StateTransition,
)
from repro.serve.recalibration import DriftRecalibrator, RecalibrationEvent
from repro.serve.registry import (
    MANIFEST_SCHEMA_VERSION,
    ModelRegistry,
    ModelVersion,
    RegistryError,
)
from repro.serve.service import (
    Overloaded,
    RejectedRequest,
    ServingConfig,
    ServingResult,
    VminServingService,
)
from repro.serve.shiftguard import ShiftGuard, ShiftVerdict

__all__ = [
    "DriftRecalibrator",
    "FallbackLevel",
    "HealthStateMachine",
    "IllegalTransition",
    "MANIFEST_SCHEMA_VERSION",
    "ModelRegistry",
    "ModelVersion",
    "Overloaded",
    "ReasonCode",
    "RecalibrationEvent",
    "RegistryError",
    "RejectedRequest",
    "ServiceState",
    "ServingConfig",
    "ServingResult",
    "ShiftGuard",
    "ShiftVerdict",
    "StateTransition",
    "VminServingService",
    "compiled_summary",
]
