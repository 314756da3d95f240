"""Tests for the grid's fan-out (repro.perf.parallel): a serial loop or
worker processes, one outcome per task."""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.perf import parallel as parallel_mod
from repro.perf.parallel import parallel_map_outcomes
from repro.runtime.retry import PermanentFault, RetryPolicy, TransientFault
from repro.runtime.watchdog import TaskTimeout, check_deadline


def _square(value):
    return value * value


def _by_index(outcomes):
    return sorted(outcomes, key=lambda outcome: outcome.index)


def _values(outcomes):
    return [outcome.value for outcome in _by_index(outcomes)]


def _noisy_sum(seed):
    X = np.random.default_rng(0).normal(size=(40, 3))
    return float(X.sum() + np.random.default_rng(seed).normal())


def _boom_on_two(value):
    if value == 2:
        raise ValueError("bad cell")
    return value


def _explode_on_three(value):
    if value == 3:
        raise ValueError("worker exploded")
    return value


def _pid(_item):
    return os.getpid()


# ---------------------------------------------------------------------------
# the map: order, processes, fallback
# ---------------------------------------------------------------------------

class TestParallelMap:
    def test_ordered_results_serial(self):
        outcomes = list(parallel_map_outcomes(_square, range(10)))
        assert [o.index for o in outcomes] == list(range(10))
        assert [o.value for o in outcomes] == [i * i for i in range(10)]

    def test_ordered_results_processes(self):
        outcomes = parallel_map_outcomes(_square, range(6), processes=2)
        assert _values(outcomes) == [i * i for i in range(6)]

    def test_tasks_run_in_worker_processes(self):
        pids = _values(parallel_map_outcomes(_pid, range(4), processes=2))
        assert os.getpid() not in pids

    def test_identical_to_serial(self):
        seeds = [3, 1, 4, 1, 5, 9, 2, 6]
        serial = _values(parallel_map_outcomes(_noisy_sum, seeds))
        pooled = _values(parallel_map_outcomes(_noisy_sum, seeds, processes=2))
        assert serial == pooled

    def test_single_item_stays_serial(self, monkeypatch):
        def no_pool(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("pool created for a single item")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", no_pool)
        assert _values(parallel_map_outcomes(_square, [7], processes=4)) == [49]

    def test_pool_unavailable_falls_back_to_serial(self, monkeypatch):
        class Unavailable:
            def __init__(self, *args, **kwargs):
                raise OSError("no semaphores in this sandbox")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", Unavailable)
        calls = []

        def record(value):
            calls.append(value)
            return value * value

        outcomes = list(parallel_map_outcomes(record, range(6), processes=4))
        assert [o.value for o in outcomes] == [i * i for i in range(6)]
        assert calls == list(range(6))  # the serial loop, in input order

    @pytest.mark.parametrize("bad", [0, -2])
    def test_nonpositive_processes_raise(self, bad):
        with pytest.raises(ValueError, match="processes"):
            parallel_map_outcomes(_square, range(3), processes=bad)

    def test_empty_items(self):
        assert list(parallel_map_outcomes(_square, [], processes=4)) == []

    def test_exception_propagates_serial(self):
        def boom(value):
            raise RuntimeError(f"bad item {value}")

        (outcome,) = parallel_map_outcomes(boom, [1])
        assert isinstance(outcome.error, RuntimeError)
        assert str(outcome.error) == "bad item 1"

    def test_exception_propagates_parallel(self):
        outcomes = _by_index(
            parallel_map_outcomes(_explode_on_three, range(8), processes=2)
        )
        assert [o.index for o in outcomes if not o.ok] == [3]
        assert isinstance(outcomes[3].error, ValueError)
        assert str(outcomes[3].error) == "worker exploded"

    def test_outcomes_arrive_as_tasks_finish(self):
        finished = []

        def task(value):
            finished.append(value)
            return value

        for outcome in parallel_map_outcomes(task, range(4)):
            # Each outcome is handed over before the next task starts.
            assert finished == list(range(outcome.index + 1))


# ---------------------------------------------------------------------------
# outcomes: capture, retries, timeouts
# ---------------------------------------------------------------------------

class _Flaky:
    """Per-item failure budget, then success."""

    def __init__(self, failing_items, n_failures=1):
        self.failing = set(failing_items)
        self.n_failures = n_failures
        self.counts = {}

    def __call__(self, item):
        used = self.counts.get(item, 0)
        if item in self.failing and used < self.n_failures:
            self.counts[item] = used + 1
            raise TransientFault(f"blip on {item}")
        return item * 10


def _cooperative_hang(item):
    if item == 1:
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            check_deadline()
            time.sleep(0.005)
    return item


def _process_hang(item):  # pragma: no cover - runs in worker processes
    if item == 1:
        time.sleep(60)
    return item * 10


class TestParallelMapOutcomes:
    def test_all_success_matches_serial_loop(self):
        outcomes = _by_index(parallel_map_outcomes(_square, range(6), processes=3))
        assert [o.value for o in outcomes] == [i * i for i in range(6)]
        assert all(o.ok and o.attempts == 1 for o in outcomes)
        assert [o.index for o in outcomes] == list(range(6))

    def test_failures_do_not_discard_siblings(self):
        outcomes = _by_index(
            parallel_map_outcomes(_boom_on_two, range(5), processes=2)
        )
        assert [o.ok for o in outcomes] == [True, True, False, True, True]
        assert isinstance(outcomes[2].error, ValueError)
        assert [o.value for o in outcomes if o.ok] == [0, 1, 3, 4]

    def test_retry_policy_recovers_transient_faults(self):
        fn = _Flaky(failing_items={1, 3}, n_failures=2)
        policy = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)
        outcomes = list(parallel_map_outcomes(fn, range(5), retry_policy=policy))
        assert all(o.ok for o in outcomes)
        assert [o.value for o in outcomes] == [i * 10 for i in range(5)]
        assert [o.attempts for o in outcomes] == [1, 3, 1, 3, 1]

    def test_permanent_fault_not_retried(self):
        def permanent(value):
            raise PermanentFault("unfixable")

        policy = RetryPolicy(max_attempts=5, backoff_base=0.0, jitter=0.0)
        (outcome,) = parallel_map_outcomes(permanent, [0], retry_policy=policy)
        assert not outcome.ok and outcome.attempts == 1

    def test_retried_results_identical_to_clean_run(self):
        clean = _values(parallel_map_outcomes(_square, range(6), processes=2))
        flaky = _Flaky(failing_items={0, 2, 4}, n_failures=1)

        def flaky_square(item):
            flaky(item)  # raises on the first attempt for selected items
            return item * item

        policy = RetryPolicy(max_attempts=2, backoff_base=0.0, jitter=0.0)
        retried = parallel_map_outcomes(flaky_square, range(6), retry_policy=policy)
        assert _values(retried) == clean

    def test_cooperative_timeout_processes(self):
        outcomes = _by_index(
            parallel_map_outcomes(
                _cooperative_hang, range(3), processes=2, timeout=0.5
            )
        )
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok and outcomes[1].timed_out
        assert isinstance(outcomes[1].error, TaskTimeout)

    def test_cooperative_timeout_serial(self):
        outcomes = parallel_map_outcomes(_cooperative_hang, range(3), timeout=0.2)
        assert [o.ok for o in outcomes] == [True, False, True]

    def test_stuck_process_worker_killed_and_requeued(self):
        start = time.monotonic()
        outcomes = _by_index(
            parallel_map_outcomes(_process_hang, range(4), processes=2, timeout=1.0)
        )
        elapsed = time.monotonic() - start
        assert elapsed < 30.0  # the 60 s hang was cut short
        assert not outcomes[1].ok and outcomes[1].timed_out
        good = [o for i, o in enumerate(outcomes) if i != 1]
        assert all(o.ok for o in good)
        assert [o.value for o in good] == [0, 20, 30]

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeout"):
            parallel_map_outcomes(_square, range(3), timeout=0.0)

    def test_empty_items(self):
        assert list(parallel_map_outcomes(_square, [], processes=4)) == []
