"""Shared-binning cache, process-grid engine, shm transport, and perf gate.

The tentpole contract under test: fitting through the content-addressed
binning cache -- one ``FeatureBinner`` fit per distinct training matrix,
shared across the CQR lo/hi pair, the CV folds, and the grid cells --
changes **no number anywhere**, and the process-pool grid that ships
the cached bin codes through shared memory is bit-identical to the
serial loop.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.eval.experiments import (
    ExperimentProfile,
    FeatureSet,
    _grid_bin_subsets,
    run_region_experiment,
    run_region_grid,
)
from repro.models.binning import (
    BinnedDataset,
    FeatureBinner,
    bin_cache_stats,
    clear_bin_cache,
    dataset_digest,
    disable_bin_cache,
    seed_bin_cache,
    shared_binned_dataset,
)
from repro.models.gbm import GradientBoostingRegressor
from repro.models.oblivious import ObliviousBoostingRegressor
from repro.models.quantile import QuantileBandRegressor
from repro.perf import gate
from repro.perf.bench import BenchRecorder, _git_sha_fallback, peak_rss_mb
from repro.perf.shm import SharedArrayBundle, attach_array
from tests.oracles.binning import quantile_bin_edges

SMOKE = ExperimentProfile.smoke()


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Every test starts and ends with an empty binning cache."""
    clear_bin_cache()
    yield
    clear_bin_cache()


def _training_data(rng, n=120, f=8):
    X = rng.normal(size=(n, f))
    X[:, 0] = np.round(X[:, 0], 1)  # heavy ties: midpoint path
    X[:, 1] = 3.25  # constant: no edges
    y = X[:, 2] + 0.1 * rng.normal(size=n)
    return X, y


class TestVectorizedBinnerParity:
    """The vectorised fit is bit-identical to the per-column oracle."""

    @pytest.mark.parametrize("max_bins", [2, 8, 32])
    def test_edges_match_oracle(self, rng, max_bins):
        X, _ = _training_data(rng)
        fitted = FeatureBinner(max_bins).fit(X)
        for j in range(X.shape[1]):
            oracle = quantile_bin_edges(X[:, j], max_bins)
            np.testing.assert_array_equal(fitted.edges_[j], oracle)

    def test_from_edges_roundtrip(self, rng):
        X, _ = _training_data(rng)
        fitted = FeatureBinner(16).fit(X)
        rebuilt = FeatureBinner.from_edges(16, fitted.edges_)
        np.testing.assert_array_equal(rebuilt.transform(X), fitted.transform(X))
        assert rebuilt.n_bins == fitted.n_bins


class TestCacheSemantics:
    def test_equal_content_shares_one_build(self, rng):
        X, _ = _training_data(rng)
        first = shared_binned_dataset(X, 32)
        second = shared_binned_dataset(X.copy(), 32)  # distinct buffer
        assert second is first
        stats = bin_cache_stats()
        assert stats["builds"] == 1
        assert stats["hits"] == 1

    def test_max_bins_is_part_of_the_key(self, rng):
        X, _ = _training_data(rng)
        assert shared_binned_dataset(X, 16) is not shared_binned_dataset(X, 32)
        assert bin_cache_stats()["builds"] == 2
        assert dataset_digest(X, 16) != dataset_digest(X, 32)

    def test_disable_bypasses_entirely(self, rng):
        X, _ = _training_data(rng)
        with disable_bin_cache():
            first = shared_binned_dataset(X, 32)
            second = shared_binned_dataset(X, 32)
        assert first is not second
        stats = bin_cache_stats()
        assert stats == {"hits": 0, "builds": 0, "seeded": 0, "entries": 0}

    def test_seeded_entry_is_returned_verbatim(self, rng):
        X, _ = _training_data(rng)
        built = BinnedDataset.from_matrix(X, 32)
        seed_bin_cache({dataset_digest(X, 32): built})
        assert shared_binned_dataset(X, 32) is built
        stats = bin_cache_stats()
        assert stats["seeded"] == 1
        assert stats["builds"] == 0

    def test_seeding_rejects_foreign_values(self):
        with pytest.raises(TypeError):
            seed_bin_cache({"key": np.zeros((2, 2))})

    def test_lru_evicts_oldest(self, rng):
        matrices = [rng.normal(size=(3, 2)) for _ in range(70)]
        for X in matrices:
            shared_binned_dataset(X, 4)
        stats = bin_cache_stats()
        assert stats["entries"] == 64
        # The first matrix was evicted: asking again rebuilds.
        shared_binned_dataset(matrices[0], 4)
        assert bin_cache_stats()["builds"] == 71

    def test_clear_resets_counters(self, rng):
        X, _ = _training_data(rng)
        shared_binned_dataset(X, 32)
        clear_bin_cache()
        assert bin_cache_stats() == {
            "hits": 0, "builds": 0, "seeded": 0, "entries": 0,
        }


class TestCachedFitsAreBitIdentical:
    """Cache on vs cache off: every prediction float is unchanged."""

    def test_gbm_hist(self, rng):
        X, y = _training_data(rng)
        params = dict(n_estimators=12, tree_method="hist", max_bins=16)
        cached = GradientBoostingRegressor(**params).fit(X, y)
        with disable_bin_cache():
            plain = GradientBoostingRegressor(**params).fit(X, y)
        np.testing.assert_array_equal(cached.predict(X), plain.predict(X))

    def test_oblivious_with_explicit_seam(self, rng):
        X, y = _training_data(rng)
        params = dict(n_estimators=10, max_bins=16, random_state=5)
        dataset = shared_binned_dataset(X, 16)
        seamed = ObliviousBoostingRegressor(**params).fit(X, y, binned=dataset)
        with disable_bin_cache():
            plain = ObliviousBoostingRegressor(**params).fit(X, y)
        np.testing.assert_array_equal(seamed.predict(X), plain.predict(X))

    def test_oblivious_rejects_mismatched_seam(self, rng):
        X, y = _training_data(rng)
        wrong = shared_binned_dataset(X[: len(X) // 2], 16)
        with pytest.raises(ValueError):
            ObliviousBoostingRegressor(max_bins=16).fit(X, y, binned=wrong)

    def test_quantile_pair_shares_one_binning(self, rng):
        X, y = _training_data(rng)

        def template():
            return GradientBoostingRegressor(
                n_estimators=8,
                tree_method="hist",
                max_bins=16,
                quantile=0.5,
            )

        shared_band = QuantileBandRegressor(template(), alpha=0.2).fit(X, y)
        # Both members binned the same matrix: one build, one-plus hits.
        stats = bin_cache_stats()
        assert stats["builds"] == 1
        assert stats["hits"] >= 1
        with disable_bin_cache():
            plain_band = QuantileBandRegressor(template(), alpha=0.2).fit(X, y)
        shared_lo, shared_hi = shared_band.predict_interval(X)
        plain_lo, plain_hi = plain_band.predict_interval(X)
        np.testing.assert_array_equal(shared_lo, plain_lo)
        np.testing.assert_array_equal(shared_hi, plain_hi)

    def test_region_experiment_folds(self, lot):
        kwargs = dict(profile=SMOKE, seed=3)
        cached = run_region_experiment(lot, "CQR XGBoost", 25.0, 0, **kwargs)
        assert bin_cache_stats()["hits"] > 0
        with disable_bin_cache():
            plain = run_region_experiment(lot, "CQR XGBoost", 25.0, 0, **kwargs)
        assert cached.coverage_per_fold == plain.coverage_per_fold
        assert cached.width_per_fold == plain.width_per_fold


def _region_fingerprint(grid):
    return tuple(
        (cell, result.coverage_per_fold, result.width_per_fold)
        for cell, result in grid.items()
    )


GRID_ARGS = dict(profile=SMOKE, seed=3)
GRID_METHODS = ["QR XGBoost", "CQR XGBoost"]


class TestGridBinsOnce:
    def test_builds_equal_distinct_subsets(self, lot):
        serial = run_region_grid(
            lot, GRID_METHODS, [25.0], [0], n_jobs=1, **GRID_ARGS
        )
        stats = bin_cache_stats()
        expected = _grid_bin_subsets(
            lot,
            "region",
            GRID_METHODS,
            [0],
            FeatureSet.BOTH,
            SMOKE,
            3,
            calibration_fraction=0.25,
        )
        # Binning ran exactly once per distinct training matrix; every
        # further fit was a cache hit.
        assert stats["builds"] == len(expected)
        assert stats["hits"] > 0
        # A second identical grid re-uses everything: zero new builds.
        again = run_region_grid(
            lot, GRID_METHODS, [25.0], [0], n_jobs=1, **GRID_ARGS
        )
        assert bin_cache_stats()["builds"] == stats["builds"]
        assert _region_fingerprint(again) == _region_fingerprint(serial)


class TestProcessGrid:
    def test_process_matches_serial_bitwise(self, lot):
        serial = run_region_grid(
            lot, GRID_METHODS, [25.0], [0], n_jobs=1, **GRID_ARGS
        )
        clear_bin_cache()
        process = run_region_grid(
            lot, GRID_METHODS, [25.0], [0], n_jobs=2, **GRID_ARGS
        )
        assert _region_fingerprint(process) == _region_fingerprint(serial)

    def test_process_rejects_task_wrapper(self, lot):
        with pytest.raises(ValueError, match="n_jobs=1"):
            run_region_grid(
                lot,
                GRID_METHODS[:1],
                [25.0],
                [0],
                n_jobs=2,
                task_wrapper=lambda fn: fn,
                **GRID_ARGS,
            )

    def test_no_segments_leak(self, lot):
        run_region_grid(lot, GRID_METHODS[:1], [25.0], [0], n_jobs=2, **GRID_ARGS)
        if os.path.isdir("/dev/shm"):
            assert not [
                name for name in os.listdir("/dev/shm") if name.startswith("psm_")
            ]


def _attach_and_die(spec):
    """Worker body: attach the segment, then die without any cleanup."""
    attach_array(spec)
    os.kill(os.getpid(), signal.SIGKILL)


def _spawn_probe(spec, queue):
    """Spawn-context worker: attach and report the array checksum."""
    view = attach_array(spec)
    queue.put(float(view.sum()))


class TestSharedMemoryTransport:
    def test_roundtrip_and_readonly(self, rng):
        payload = rng.normal(size=(17, 5))
        with SharedArrayBundle() as bundle:
            spec = bundle.share(payload)
            view = attach_array(spec)
            np.testing.assert_array_equal(view, payload)
            with pytest.raises(ValueError):
                view[0, 0] = 1.0
            # Re-attach returns a view onto the same mapping.
            again = attach_array(spec)
            np.testing.assert_array_equal(again, payload)
        # Closing the bundle unlinked the segment: nothing can attach.
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=spec.name)

    def test_close_is_idempotent(self, rng):
        bundle = SharedArrayBundle()
        bundle.share(rng.normal(size=(2, 2)))
        bundle.close()
        bundle.close()

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="POSIX shm filesystem required"
    )
    def test_sigkilled_worker_leaks_nothing(self, rng):
        payload = rng.normal(size=(32, 4))
        context = multiprocessing.get_context("fork")
        with SharedArrayBundle() as bundle:
            spec = bundle.share(payload)
            worker = context.Process(target=_attach_and_die, args=(spec,))
            worker.start()
            worker.join(timeout=30)
            assert worker.exitcode == -signal.SIGKILL
        assert not Path("/dev/shm", spec.name).exists()

    def test_spawn_context_attach(self, rng):
        payload = rng.normal(size=(8, 3))
        context = multiprocessing.get_context("spawn")
        with SharedArrayBundle() as bundle:
            spec = bundle.share(payload)
            queue = context.Queue()
            worker = context.Process(target=_spawn_probe, args=(spec, queue))
            worker.start()
            checksum = queue.get(timeout=60)
            worker.join(timeout=60)
            assert worker.exitcode == 0
        assert checksum == float(payload.sum())


def _report(profile="smoke", n_jobs=4, **walls):
    return {
        "schema_version": 1,
        "benchmark": "training",
        "profile": profile,
        "n_jobs": n_jobs,
        "git_sha": None,
        "timings": {
            name: {"wall_s": wall, "repeats": 1} for name, wall in walls.items()
        },
        "speedups": {},
        "checks": {},
    }


class TestRegressionGate:
    def test_flags_past_threshold(self):
        baseline = _report(table3_grid_hist_process=10.0, fit_gbm=0.001)
        current = _report(table3_grid_hist_process=13.0, fit_gbm=0.002)
        result = gate.compare_reports(
            baseline, current, threshold=1.15, stages=["table3_grid"]
        )
        assert result.skipped is None
        assert list(result.flagged) == ["table3_grid_hist_process"]
        assert result.flagged["table3_grid_hist_process"] == (10.0, 13.0)
        assert result.exit_code == gate.EXIT_REGRESSED
        # The micro-stage doubled but is outside the gated prefix.
        ungated = gate.compare_reports(baseline, current, threshold=1.15)
        assert "fit_gbm" in ungated.flagged

    def test_within_threshold_passes(self):
        baseline = _report(table3_grid_hist_process=10.0)
        current = _report(table3_grid_hist_process=11.0)
        result = gate.compare_reports(baseline, current, threshold=1.15)
        assert result.flagged == {}
        assert result.gated == ("table3_grid_hist_process",)
        assert result.exit_code == gate.EXIT_OK

    @pytest.mark.parametrize(
        "kwargs", [dict(profile="fast"), dict(n_jobs=1)]
    )
    def test_incomparable_reports_skip(self, kwargs):
        baseline = _report(table3_grid_hist_process=10.0)
        current = _report(table3_grid_hist_process=99.0, **kwargs)
        result = gate.compare_reports(baseline, current, threshold=1.15)
        assert result.skipped is not None
        assert result.exit_code == gate.EXIT_OK

    def test_cli_end_to_end(self, tmp_path, capsys):
        base_path = tmp_path / "baseline.json"
        cur_path = tmp_path / "current.json"
        base_path.write_text(json.dumps(_report(table3_grid_hist_process=10.0)))
        cur_path.write_text(json.dumps(_report(table3_grid_hist_process=20.0)))
        argv = [str(base_path), str(cur_path), "--stages", "table3_grid"]
        assert gate.main(argv + ["--threshold", "1.15"]) == gate.EXIT_REGRESSED
        assert gate.main(argv + ["--threshold", "2.5"]) == gate.EXIT_OK
        assert "table3_grid_hist_process" in capsys.readouterr().out

    def test_cli_error_paths(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        present = tmp_path / "ok.json"
        present.write_text(json.dumps(_report(x=1.0)))
        assert gate.main([missing, str(present)]) == gate.EXIT_ERROR
        torn = tmp_path / "torn.json"
        torn.write_text('{"timings": {')
        assert gate.main([str(torn), str(present)]) == gate.EXIT_ERROR
        assert (
            gate.main([str(present), str(present), "--threshold", "0.9"])
            == gate.EXIT_ERROR
        )
        capsys.readouterr()

    def test_cli_no_common_stages(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(_report(alpha_stage=1.0)))
        b.write_text(json.dumps(_report(beta_stage=1.0)))
        assert gate.main([str(a), str(b)]) == gate.EXIT_OK
        assert "nothing gated" in capsys.readouterr().out


class TestBenchProvenance:
    def test_git_sha_fallback_resolves_head(self, monkeypatch):
        monkeypatch.chdir(Path(__file__).resolve().parents[1])
        sha = _git_sha_fallback()
        assert sha is not None
        assert len(sha) == 40
        assert set(sha) <= set("0123456789abcdef")

    def test_recorder_prefers_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "deadbeef")
        recorder = BenchRecorder("training", "smoke")
        assert recorder.git_sha == "deadbeef"

    def test_recorder_falls_back_to_checkout(self, monkeypatch):
        monkeypatch.delenv("REPRO_GIT_SHA", raising=False)
        monkeypatch.chdir(Path(__file__).resolve().parents[1])
        recorder = BenchRecorder("training", "smoke")
        assert recorder.git_sha is not None
        assert len(recorder.git_sha) == 40

    def test_explicit_sha_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "deadbeef")
        assert BenchRecorder("training", "smoke", git_sha="abc").git_sha == "abc"

    def test_peak_rss_is_positive(self):
        rss = peak_rss_mb()
        assert rss is not None
        assert rss > 0
