"""End-to-end resilience of the experiment grids (runtime + eval).

The contracts asserted here are the acceptance criteria of the
resilient execution runtime: an interrupted-and-resumed grid is
bit-identical to an uninterrupted one, injected transient faults plus
retries are bit-identical to a clean run, exhausted failures are
captured as structured records instead of discarding siblings, and a
grid on worker processes journals each cell as soon as it finishes.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.eval import experiments
from repro.eval.crossval import PointCVResult
from repro.eval.experiments import (
    FailureRecord,
    GridResult,
    run_point_grid,
    run_region_grid,
)
from repro.eval.stress import run_execution_campaign
from repro.robust.faults import TaskCrashFault
from repro.runtime.checkpoint import RunJournal
from repro.runtime.retry import PermanentFault, RetryPolicy, TransientFault

MODELS = ("LR",)
TEMPS = (25.0,)
HOURS = (0, 24)

FAST_RETRIES = RetryPolicy(
    max_attempts=3, backoff_base=0.001, backoff_max=0.01, seed=0
)


@pytest.fixture(scope="module")
def clean_grid(small_lot):
    """The uninterrupted reference grid every resilience test diffs against."""
    return run_point_grid(
        small_lot, MODELS, TEMPS, HOURS, profile=_profile(), seed=0
    )


def _profile():
    from repro.eval.experiments import ExperimentProfile

    return ExperimentProfile.smoke()


class _CountingWrapper:
    """task_wrapper that counts executions, optionally failing chosen cells."""

    def __init__(self, fail_cells=(), error=None):
        self.fail_cells = set(fail_cells)
        self.error = error or PermanentFault("injected permanent failure")
        self.executed = []

    def __call__(self, fn):
        def wrapped(cell):
            self.executed.append(cell)
            if cell in self.fail_cells:
                raise self.error
            return fn(cell)

        return wrapped


class TestGridResultType:
    def test_grid_is_a_dict_in_cell_order(self, clean_grid):
        assert isinstance(clean_grid, dict)
        assert list(clean_grid) == [
            (name, temp, hours)
            for name in MODELS
            for temp in TEMPS
            for hours in HOURS
        ]
        assert clean_grid.ok and clean_grid.failures == ()

    def test_values_identical_to_serial_experiment(self, small_lot, clean_grid):
        from repro.eval.experiments import run_point_experiment

        cell = ("LR", 25.0, 0)
        direct = run_point_experiment(
            small_lot, "LR", 25.0, 0, profile=_profile(), seed=0
        )
        assert clean_grid[cell] == direct


class TestCheckpointResume:
    def test_interrupted_grid_resumes_bit_identical(
        self, small_lot, clean_grid, tmp_path
    ):
        journal_path = tmp_path / "grid.jsonl"
        crash_cell = ("LR", 25.0, 24)

        # First run: one cell fails permanently; the other is journaled.
        interrupted = run_point_grid(
            small_lot,
            MODELS,
            TEMPS,
            HOURS,
            profile=_profile(),
            seed=0,
            journal=RunJournal(journal_path),
            task_wrapper=_CountingWrapper(fail_cells={crash_cell}),
            on_error="capture",
        )
        assert crash_cell not in interrupted
        assert len(interrupted) == len(clean_grid) - 1

        # Resume: only the missing cell runs; the result is bit-identical.
        resume_counter = _CountingWrapper()
        resumed = run_point_grid(
            small_lot,
            MODELS,
            TEMPS,
            HOURS,
            profile=_profile(),
            seed=0,
            journal=RunJournal(journal_path),
            task_wrapper=resume_counter,
        )
        assert resume_counter.executed == [crash_cell]
        assert dict(resumed) == dict(clean_grid)
        assert list(resumed) == list(clean_grid)

    def test_journal_not_reused_across_configurations(
        self, small_lot, tmp_path
    ):
        journal_path = tmp_path / "grid.jsonl"
        run_point_grid(
            small_lot,
            MODELS,
            TEMPS,
            (0,),
            profile=_profile(),
            seed=0,
            journal=RunJournal(journal_path),
        )
        # A different seed fingerprints differently: nothing is skipped.
        counter = _CountingWrapper()
        run_point_grid(
            small_lot,
            MODELS,
            TEMPS,
            (0,),
            profile=_profile(),
            seed=1,
            journal=RunJournal(journal_path),
            task_wrapper=counter,
        )
        assert counter.executed == [("LR", 25.0, 0)]

    def test_completed_journal_runs_nothing(self, small_lot, clean_grid, tmp_path):
        journal_path = tmp_path / "grid.jsonl"
        run_point_grid(
            small_lot,
            MODELS,
            TEMPS,
            HOURS,
            profile=_profile(),
            seed=0,
            journal=RunJournal(journal_path),
        )
        counter = _CountingWrapper()
        replayed = run_point_grid(
            small_lot,
            MODELS,
            TEMPS,
            HOURS,
            profile=_profile(),
            seed=0,
            journal=RunJournal(journal_path),
            task_wrapper=counter,
        )
        assert counter.executed == []
        assert dict(replayed) == dict(clean_grid)

    def test_region_grid_resumes_bit_identical(self, small_lot, tmp_path):
        journal_path = tmp_path / "region.jsonl"
        kwargs = dict(profile=_profile(), seed=0, alpha=0.2)
        clean = run_region_grid(small_lot, ("CQR LR",), TEMPS, (0,), **kwargs)
        run_region_grid(
            small_lot,
            ("CQR LR",),
            TEMPS,
            (0,),
            journal=RunJournal(journal_path),
            **kwargs,
        )
        counter = _CountingWrapper()
        resumed = run_region_grid(
            small_lot,
            ("CQR LR",),
            TEMPS,
            (0,),
            journal=RunJournal(journal_path),
            task_wrapper=counter,
            **kwargs,
        )
        assert counter.executed == []
        assert dict(resumed) == dict(clean)


class TestFaultRecovery:
    def test_transient_faults_plus_retries_bit_identical(
        self, small_lot, clean_grid
    ):
        fault = TaskCrashFault(fraction=1.0, n_failures=2, seed=0)
        recovered = run_point_grid(
            small_lot,
            MODELS,
            TEMPS,
            HOURS,
            profile=_profile(),
            seed=0,
            retry_policy=FAST_RETRIES,
            task_wrapper=fault.wrap,
        )
        assert dict(recovered) == dict(clean_grid)
        assert recovered.n_retried == len(clean_grid)
        assert all(count == 3 for count in recovered.attempts.values())

    def test_exhausted_retries_raise_by_default(self, small_lot):
        def always_crash(fn):
            def wrapped(cell):
                raise TransientFault(f"injected crash for {cell!r}")

            return wrapped

        with pytest.raises(TransientFault, match="injected crash"):
            run_point_grid(
                small_lot,
                MODELS,
                TEMPS,
                (0,),
                profile=_profile(),
                seed=0,
                retry_policy=FAST_RETRIES,
                task_wrapper=always_crash,
            )

    def test_capture_mode_returns_structured_failures(
        self, small_lot, clean_grid
    ):
        crash_cell = ("LR", 25.0, 24)
        captured = run_point_grid(
            small_lot,
            MODELS,
            TEMPS,
            HOURS,
            profile=_profile(),
            seed=0,
            retry_policy=FAST_RETRIES,
            task_wrapper=_CountingWrapper(fail_cells={crash_cell}),
            on_error="capture",
        )
        assert not captured.ok
        assert len(captured.failures) == 1
        failure = captured.failures[0]
        assert isinstance(failure, FailureRecord)
        assert failure.key == crash_cell
        assert failure.error_type == "PermanentFault"
        assert failure.attempts == 1  # permanent faults are never retried
        assert not failure.timed_out
        # Completed siblings are kept, bit-identical to the clean run.
        assert captured[("LR", 25.0, 0)] == clean_grid[("LR", 25.0, 0)]

    def test_bad_on_error_rejected(self, small_lot):
        with pytest.raises(ValueError, match="on_error"):
            run_point_grid(
                small_lot, MODELS, TEMPS, (0,), profile=_profile(), on_error="ignore"
            )

    @pytest.mark.parametrize("bad", [0, -1])
    def test_nonpositive_n_jobs_rejected(self, small_lot, bad):
        with pytest.raises(ValueError, match="n_jobs"):
            run_point_grid(
                small_lot, MODELS, TEMPS, (0,), profile=_profile(), n_jobs=bad
            )


class TestProcessGrid:
    """``n_jobs=2``: the cells run in worker processes; the parent journals
    and raises in cell order.  The fake cells below replace
    ``experiments._run_cell`` before the pool forks, so the workers run
    them too."""

    def test_first_cell_journaled_while_later_cells_pending(
        self, small_lot, tmp_path, monkeypatch
    ):
        journal_path = tmp_path / "grid.jsonl"

        def journaled_lines():
            if not journal_path.exists():
                return 0
            return len(journal_path.read_text().splitlines())

        def fake_cell(kind, dataset, cell, kwargs):
            seen = 0.0
            if cell[2] == 24:
                # Still pending: wait (bounded) for the header and the
                # first cell to reach the journal.
                give_up = time.monotonic() + 60.0
                while time.monotonic() < give_up and not seen:
                    seen = float(journaled_lines() >= 2)
                    time.sleep(0.02)
            return PointCVResult(r2_per_fold=(seen,), rmse_per_fold=(os.getpid(),))

        monkeypatch.setattr(experiments, "_run_cell", fake_cell)
        grid = run_point_grid(
            small_lot, MODELS, TEMPS, HOURS, profile=_profile(), seed=0,
            n_jobs=2, journal=RunJournal(journal_path),
        )
        assert os.getpid() not in {r.rmse_per_fold[0] for r in grid.values()}
        assert grid[("LR", 25.0, 24)].r2_per_fold == (1.0,)
        assert journaled_lines() == 3

    def test_first_failure_in_cell_order_raised(self, small_lot, monkeypatch):
        def fake_cell(kind, dataset, cell, kwargs):
            if cell[2] == 0:
                time.sleep(0.5)  # finishes failing after the later cell
                raise KeyError("earlier")
            raise IndexError("later")

        monkeypatch.setattr(experiments, "_run_cell", fake_cell)
        with pytest.raises(KeyError, match="earlier"):
            run_point_grid(
                small_lot, MODELS, TEMPS, HOURS, profile=_profile(), n_jobs=2
            )


class TestExecutionCampaign:
    def test_campaign_recovers_every_scenario(self, small_lot):
        report = run_execution_campaign(
            small_lot,
            model_names=MODELS,
            temperatures=TEMPS,
            read_points=(0,),
            seed=0,
            timeout=2.0,
        )
        assert report.all_recovered(), report.to_table()
        assert report.all_identical(), report.to_table()
        assert {r.scenario for r in report.results} == {
            "worker_crash",
            "worker_crash_repeat",
            "worker_hang",
        }
        crash = next(r for r in report.results if r.scenario == "worker_crash")
        assert crash.n_retried >= 1  # the injected crash really happened

    def test_report_renders_a_table(self, small_lot):
        report = run_execution_campaign(
            small_lot,
            model_names=MODELS,
            temperatures=TEMPS,
            read_points=(0,),
            scenarios=(
                ("crash", TaskCrashFault(fraction=1.0, n_failures=1, seed=3)),
            ),
            seed=0,
            timeout=2.0,
        )
        table = report.to_table()
        assert "Scenario" in table and "crash" in table
