"""Training-engine perf benchmark with a machine-readable JSON baseline.

Times the stages the fast-training tentpole optimised and writes
``benchmarks/results/BENCH_training.json`` (see
:mod:`repro.perf.bench` for the schema):

* synthetic dataset generation,
* single-tree fit (``DecisionTreeRegressor``, exact greedy),
* GBM fit, ``tree_method="exact"`` vs ``"hist"``,
* oblivious (CatBoost-style) ensemble fit,
* greedy CFS selection,
* the Table-III grid over the XGBoost-family region methods -- the cells
  whose training cost the histogram finder actually changes -- run four
  ways: the pre-optimisation baseline (serial, ``xgb_tree_method="exact"``,
  every boosting round grown: see :func:`_grow_every_round`), serial
  hist with the shared-binning cache disabled (so that stage keeps its
  pre-cache meaning across commits), serial hist with the
  shared-binning cache on (``table3_grid_hist_shared``), and the
  process-pool engine (``table3_grid_hist_process``: cache +
  shared-memory code transport, :data:`N_JOBS` worker processes).

The grid invariants are recorded as named checks and asserted:

* ``grid_shared_matches_serial`` / ``grid_process_matches_serial`` --
  every variant equals the serial-hist grid *bit for bit* (every
  per-fold coverage/width float),
* ``grid_speedup_ok`` -- on a multi-core runner the process-pool grid
  must be >= 3x faster than the exact serial baseline (recorded,
  asserted only when the host actually has >= 4 CPUs; a 1-core
  container cannot realise pool parallelism),
* ``grid_process_speedup_ok`` -- the shared-binning process engine must
  be >= 10x faster than the exact serial baseline (asserted on every
  profile but ``smoke``: the shared-binning savings are algorithmic --
  redundant quantile sweeps eliminated -- so they do not need spare
  cores to materialise).

Grid stages additionally record the process-tree peak RSS
(``peak_rss_mb``, a cumulative high-water mark sampled after the stage)
so memory regressions are diffable alongside wall time.  Wall times
vary run to run; everything else in the JSON is deterministic.
"""

from __future__ import annotations

import dataclasses
import os
from contextlib import contextmanager
from unittest import mock

import numpy as np

from conftest import BENCH_SEED, RESULTS_DIR, bench_profile_name, publish

from repro.eval.experiments import FeatureSet, _experiment_data, run_region_grid
from repro.features.cfs import CFSSelector
from repro.models import gbm as gbm_module
from repro.models.binning import clear_bin_cache, disable_bin_cache
from repro.models.gbm import GradientBoostingRegressor
from repro.models.oblivious import ObliviousBoostingRegressor
from repro.models.tree import DecisionTreeRegressor
from repro.perf.bench import BenchRecorder, peak_rss_mb, time_call
from repro.silicon.dataset import SiliconDataset

REPORT_PATH = RESULTS_DIR / "BENCH_training.json"

# The region methods whose training cost the split-finder rewrite
# targets; NN/LR/GP cells are untouched by it and would only add noise.
GRID_METHODS = ("QR XGBoost", "CQR XGBoost")

# Worker processes for the process-pool stage.
N_JOBS = 4

# Required multiple on the process-pool grid vs the pre-optimisation
# baseline -- enforced on runners with >= 4 CPUs (the CI perf-smoke
# host), recorded everywhere.
MIN_GRID_SPEEDUP = 3.0

# Required multiple on the shared-binning process engine vs the exact
# serial baseline.  Enforced on every profile but smoke: the win is
# algorithmic (binning each training matrix once instead of per member,
# per fold, per cell), not core-count dependent, so even a 1-CPU
# container must deliver it.
MIN_PROCESS_GRID_SPEEDUP = 10.0


@contextmanager
def _grow_every_round():
    """GBM fits inside grow a tree every boosting round, as before the
    round memo existed.

    The memo reuses a tree whenever a round repeats an earlier round's
    gradient and Hessian bytes, and it applies to
    ``tree_method="exact"`` too.  A digest that never repeats keeps the
    exact baseline at its pre-memo cost, so the speedups measured
    against it keep their meaning across commits.  The fitted trees are
    the same either way (``tests/test_round_memo.py``).
    """
    with mock.patch.object(gbm_module, "_round_digest", lambda *_: object()):
        yield


def _grid_fingerprint(grid) -> tuple:
    """Hashable, exact view of every per-fold metric in a region grid."""
    return tuple(
        (cell, result.coverage_per_fold, result.width_per_fold)
        for cell, result in grid.items()
    )


def _timed_grid(recorder: BenchRecorder, name: str, fn, **meta):
    """Time one grid stage and record it with the peak-RSS high-water mark.

    ``BenchRecorder.timed`` evaluates its metadata before the stage
    runs, which would sample RSS too early -- so time first, then record
    with :func:`peak_rss_mb` observed after the stage.
    """
    result, wall_s = time_call(fn)
    recorder.record(name, wall_s, peak_rss_mb=peak_rss_mb(), **meta)
    return result


def _fit_models(X, y, profile):
    """The micro-stage workloads: single tree, GBM, oblivious ensemble."""

    def tree():
        return DecisionTreeRegressor(max_depth=6).fit(X, y)

    def gbm(tree_method):
        return GradientBoostingRegressor(
            n_estimators=profile.xgb_estimators,
            tree_method=tree_method,
            max_bins=profile.xgb_max_bins,
        ).fit(X, y)

    def oblivious():
        return ObliviousBoostingRegressor(
            n_estimators=profile.catboost_estimators,
            max_bins=profile.catboost_max_bins,
            random_state=BENCH_SEED,
        ).fit(X, y)

    return tree, gbm, oblivious


def _render(recorder: BenchRecorder) -> str:
    report = recorder.as_dict()
    lines = [
        f"benchmark={report['benchmark']} profile={report['profile']} "
        f"n_jobs={report['n_jobs']} git_sha={report['git_sha']}",
        "",
        f"{'stage':<34}{'wall_s':>12}",
    ]
    for name, entry in report["timings"].items():
        lines.append(f"{name:<34}{entry['wall_s']:>12.4f}")
    lines.append("")
    for name, ratio in report["speedups"].items():
        lines.append(f"speedup {name:<26}{ratio:>12.2f}x")
    for name, passed in report["checks"].items():
        lines.append(f"check   {name:<26}{'PASS' if passed else 'FAIL':>12}")
    return "\n".join(lines)


def test_training_engine_perf(dataset, profile, bench_scope):
    temperatures, read_points = bench_scope
    recorder = BenchRecorder(
        benchmark="training", profile=bench_profile_name(), n_jobs=N_JOBS
    )

    recorder.timed(
        "dataset_generate",
        lambda: SiliconDataset.generate(seed=BENCH_SEED),
        meta_seed=BENCH_SEED,
    )

    X, y = _experiment_data(dataset, temperatures[0], read_points[0], FeatureSet.BOTH)
    tree, gbm, oblivious = _fit_models(X, y, profile)

    recorder.timed("tree_fit_exact", tree, repeats=3)

    recorder.timed("gbm_fit_exact", lambda: gbm("exact"))
    recorder.timed("gbm_fit_hist", lambda: gbm("hist"))
    recorder.speedup("gbm_fit", "gbm_fit_exact", "gbm_fit_hist")

    recorder.timed("oblivious_fit", oblivious)
    recorder.timed(
        "cfs_select", lambda: CFSSelector(k_max=10).fit(X, y), repeats=3
    )

    def grid(grid_profile, grid_jobs):
        return run_region_grid(
            dataset,
            GRID_METHODS,
            temperatures,
            read_points,
            profile=grid_profile,
            seed=BENCH_SEED,
            n_jobs=grid_jobs,
        )

    exact_profile = dataclasses.replace(profile, xgb_tree_method="exact")
    meta = dict(methods=list(GRID_METHODS))
    # The first two stages keep their pre-cache meaning across commits:
    # every fit re-bins its own training matrix, exactly as before the
    # shared-binning cache existed.  The exact baseline also grows every
    # boosting round, as before the round memo existed, so the speedup
    # checks divide by the same pre-optimisation work on every commit.
    with disable_bin_cache():
        with _grow_every_round():
            _timed_grid(
                recorder,
                "table3_grid_exact_serial",
                lambda: grid(exact_profile, 1),
                **meta,
            )
        serial = _timed_grid(
            recorder, "table3_grid_hist_serial", lambda: grid(profile, 1), **meta
        )

    # The cached stages each start cold so they measure build-once,
    # reuse-everywhere rather than a warm cache left by a prior stage.
    clear_bin_cache()
    shared = _timed_grid(
        recorder, "table3_grid_hist_shared", lambda: grid(profile, 1), **meta
    )
    clear_bin_cache()
    process = _timed_grid(
        recorder,
        "table3_grid_hist_process",
        lambda: grid(profile, N_JOBS),
        **meta,
    )

    serial_fp = _grid_fingerprint(serial)
    shared_parity = serial_fp == _grid_fingerprint(shared)
    process_parity = serial_fp == _grid_fingerprint(process)
    recorder.check("grid_shared_matches_serial", shared_parity)
    recorder.check("grid_process_matches_serial", process_parity)

    recorder.speedup(
        "table3_grid_serial_only", "table3_grid_exact_serial", "table3_grid_hist_serial"
    )
    recorder.speedup(
        "table3_grid_shared", "table3_grid_exact_serial", "table3_grid_hist_shared"
    )
    process_ratio = recorder.speedup(
        "table3_grid_process", "table3_grid_exact_serial", "table3_grid_hist_process"
    )
    cpus = os.cpu_count() or 1
    speedup_ok = process_ratio >= MIN_GRID_SPEEDUP
    recorder.check("grid_speedup_ok", speedup_ok)
    process_speedup_ok = process_ratio >= MIN_PROCESS_GRID_SPEEDUP
    recorder.check("grid_process_speedup_ok", process_speedup_ok)

    path = recorder.write(REPORT_PATH)
    publish("perf_training", _render(recorder))
    print(f"wrote {path}")

    assert shared_parity, "shared-binning grid diverged from serial grid"
    assert process_parity, "process-pool grid diverged from serial grid"
    if cpus >= N_JOBS:
        assert speedup_ok, (
            f"process-pool grid only {process_ratio:.2f}x faster than the "
            f"exact serial baseline (required {MIN_GRID_SPEEDUP}x)"
        )
    if bench_profile_name() != "smoke":
        assert process_speedup_ok, (
            f"process-pool grid only {process_ratio:.2f}x faster than the "
            f"exact serial baseline (required {MIN_PROCESS_GRID_SPEEDUP}x)"
        )


def test_parallel_grid_determinism(dataset, profile, bench_scope):
    """The serial loop and 4 worker processes give identical grids -- the
    CI parity gate."""
    temperatures, read_points = bench_scope
    kwargs = dict(profile=profile, seed=BENCH_SEED)
    serial = run_region_grid(
        dataset, GRID_METHODS[:1], temperatures, read_points, n_jobs=1, **kwargs
    )
    parallel = run_region_grid(
        dataset, GRID_METHODS[:1], temperatures, read_points, n_jobs=N_JOBS, **kwargs
    )
    assert _grid_fingerprint(serial) == _grid_fingerprint(parallel)
    for result in serial.values():
        assert np.all(np.isfinite(result.width_per_fold))
