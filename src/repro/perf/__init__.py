"""Performance layer: the grid's process pool and benchmarking.

``repro.perf`` makes the training/evaluation hot path fast without
changing a single number:

* :mod:`repro.perf.parallel` -- :func:`parallel_map_outcomes`, the one
  fan-out of the experiment grids: a serial loop or a pool of worker
  processes, one :class:`TaskOutcome` per task (retry policies and
  watchdog timeouts from :mod:`repro.runtime`), yielded as each task
  finishes.  Grid cells are independent experiments (split-conformal
  calibration is independent per cell), so they are the one parallel
  level; folds and band members inside a cell run serially.
* :mod:`repro.perf.shm` -- parent-owned shared-memory transport for
  numpy arrays (the process-pool grid ships each pre-binned code
  matrix to the workers once, zero-copy, instead of pickling it per
  task).
* :mod:`repro.perf.bench` -- a benchmark recorder that times training
  stages and writes machine-readable JSON baselines
  (``BENCH_training.json``) so performance regressions are diffable
  across commits.
* :mod:`repro.perf.gate` -- the CI regression gate:
  ``python -m repro.perf.gate BASELINE CURRENT`` fails when a stage's
  wall time regressed past the threshold.

See ``docs/PERFORMANCE.md`` for the grid's two execution paths and the
determinism guarantees.
"""

from repro.perf.bench import (
    BenchRecorder,
    BenchTiming,
    load_report,
    peak_rss_mb,
    regressions,
    time_call,
)
# repro.perf.gate is deliberately NOT imported here: it is a ``-m``
# entry point, and importing it from the package would make
# ``python -m repro.perf.gate`` warn about the module already being in
# ``sys.modules``.  Import it as ``repro.perf.gate`` directly.
from repro.perf.parallel import TaskOutcome, parallel_map_outcomes
from repro.perf.shm import ArraySpec, SharedArrayBundle, attach_array

__all__ = [
    "ArraySpec",
    "BenchRecorder",
    "BenchTiming",
    "SharedArrayBundle",
    "TaskOutcome",
    "attach_array",
    "load_report",
    "parallel_map_outcomes",
    "peak_rss_mb",
    "regressions",
    "time_call",
]
