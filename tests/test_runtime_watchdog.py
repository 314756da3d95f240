"""Tests for deadlines and the subprocess watchdog (repro.runtime.watchdog)."""

from __future__ import annotations

import os
import time

import pytest

from repro.runtime import watchdog
from repro.runtime.retry import TransientFault
from repro.runtime.watchdog import (
    Deadline,
    TaskTimeout,
    WorkerCrash,
    check_deadline,
    deadline_scope,
    run_in_subprocess,
)


class TestDeadline:
    def test_positive_budget_required(self):
        with pytest.raises(ValueError, match="seconds"):
            Deadline(0.0)

    def test_fresh_deadline_not_expired(self):
        deadline = Deadline(60.0)
        assert not deadline.expired
        assert deadline.remaining() > 0
        deadline.check()  # must not raise

    def test_expired_deadline_raises(self):
        deadline = Deadline(0.001)
        time.sleep(0.01)
        assert deadline.expired
        with pytest.raises(TaskTimeout, match="deadline"):
            deadline.check()

    def test_timeout_is_a_transient_fault(self):
        assert issubclass(TaskTimeout, TransientFault)
        assert issubclass(WorkerCrash, TransientFault)


class TestDeadlineScope:
    def test_no_scope_means_no_deadline(self):
        assert watchdog._stack() == []
        check_deadline()  # free no-op

    def test_none_seconds_is_a_no_op_scope(self):
        with deadline_scope(None) as deadline:
            assert deadline is None
            assert watchdog._stack() == []

    def test_scope_installs_and_removes(self):
        with deadline_scope(30.0) as deadline:
            assert watchdog._stack() == [deadline]
            assert deadline.remaining() <= 30.0
        assert watchdog._stack() == []

    def test_nested_scopes_honour_the_tightest(self):
        with deadline_scope(60.0):
            with deadline_scope(0.001):
                time.sleep(0.01)
                with pytest.raises(TaskTimeout):
                    check_deadline()
            # Inner expiry does not poison the outer scope.
            check_deadline()

    def test_outer_expiry_seen_inside_inner_scope(self):
        with deadline_scope(0.001):
            time.sleep(0.01)
            with deadline_scope(60.0):
                with pytest.raises(TaskTimeout):
                    check_deadline()

    def test_scope_popped_on_exception(self):
        with pytest.raises(RuntimeError):
            with deadline_scope(30.0):
                raise RuntimeError("boom")
        assert watchdog._stack() == []


def _double(value):
    return value * 2


def _raise_value_error(value):
    raise ValueError(f"bad input {value}")


def _hang_forever(_value):  # pragma: no cover - killed by the watchdog
    while True:
        time.sleep(0.05)


def _die_silently(_value):  # pragma: no cover - exits before reporting
    os._exit(17)


def _unpicklable(_value):
    return lambda: None  # lambdas cannot cross the result pipe


class TestRunInSubprocess:
    def test_result_round_trips(self):
        assert run_in_subprocess(_double, 21) == 42

    def test_child_exception_reraised(self):
        with pytest.raises(ValueError, match="bad input 3"):
            run_in_subprocess(_raise_value_error, 3)

    def test_hung_child_is_killed(self):
        start = time.monotonic()
        with pytest.raises(TaskTimeout, match="killed"):
            run_in_subprocess(_hang_forever, None, timeout=0.5)
        assert time.monotonic() - start < 10.0

    def test_silent_death_is_worker_crash(self):
        # Depending on timing the death surfaces as "no result" or as a
        # broken result pipe; both are WorkerCrash carrying the exit code.
        with pytest.raises(WorkerCrash, match="exit code 17"):
            run_in_subprocess(_die_silently, None)

    def test_unpicklable_result_is_worker_crash(self):
        with pytest.raises(WorkerCrash, match="pickle"):
            run_in_subprocess(_unpicklable, None)
