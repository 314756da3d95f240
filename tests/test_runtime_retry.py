"""Tests for deterministic retry policies (repro.runtime.retry)."""

from __future__ import annotations

import pytest

from repro.runtime.retry import (
    Attempt,
    PermanentFault,
    RetryPolicy,
    TransientFault,
    run_attempts,
)


def _no_sleep(_seconds):
    return None


class _FlakyWorker:
    """Fails with ``error`` the first ``n_failures`` calls, then succeeds."""

    def __init__(self, n_failures, error=None, value=42):
        self.n_failures = n_failures
        self.error = error or TransientFault("blip")
        self.value = value
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.n_failures:
            raise self.error
        return self.value


class TestRetryPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_base": -0.1},
            {"backoff_factor": 0.5},
            {"backoff_max": -1.0},
            {"jitter": 1.0},
            {"jitter": -0.1},
        ],
    )
    def test_bad_parameters_raise(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_retry_on_must_hold_exception_types(self):
        with pytest.raises(TypeError, match="exception types"):
            RetryPolicy(retry_on=("not-a-type",))


class TestTaxonomy:
    def test_transient_is_retried_by_default(self):
        policy = RetryPolicy()
        assert policy.should_retry(TransientFault("x"))

    def test_plain_exceptions_are_not_retried_by_default(self):
        policy = RetryPolicy()
        assert not policy.should_retry(ValueError("a real bug"))

    def test_permanent_beats_the_allowlist(self):
        # Even a policy that explicitly allowlists PermanentFault must
        # not retry it: the taxonomy wins over the configuration.
        policy = RetryPolicy(retry_on=(PermanentFault, RuntimeError))
        assert not policy.should_retry(PermanentFault("unfixable"))
        assert policy.should_retry(RuntimeError("other"))

    def test_subclasses_of_transient_match(self):
        class Blip(TransientFault):
            """Test-local transient subtype."""

        assert RetryPolicy().should_retry(Blip("x"))


class TestDelaysDeterminism:
    def test_schedule_is_pure_function_of_seed_and_key(self):
        policy = RetryPolicy(max_attempts=5, seed=7)
        assert policy.delays(task_key=3) == policy.delays(task_key=3)

    def test_different_tasks_get_decorrelated_jitter(self):
        policy = RetryPolicy(max_attempts=5, seed=7, jitter=0.5)
        assert policy.delays(task_key=1) != policy.delays(task_key=2)

    def test_zero_jitter_is_plain_exponential(self):
        policy = RetryPolicy(
            max_attempts=4,
            backoff_base=0.1,
            backoff_factor=2.0,
            backoff_max=10.0,
            jitter=0.0,
        )
        assert policy.delays() == pytest.approx((0.1, 0.2, 0.4))

    def test_backoff_max_caps_each_delay(self):
        policy = RetryPolicy(
            max_attempts=5,
            backoff_base=1.0,
            backoff_factor=10.0,
            backoff_max=2.0,
            jitter=0.0,
        )
        assert max(policy.delays()) <= 2.0

    def test_single_attempt_has_no_delays(self):
        assert RetryPolicy(max_attempts=1).delays() == ()


class TestRunAttempts:
    def test_first_try_success(self):
        result = run_attempts(lambda: "ok", policy=RetryPolicy(), sleep=_no_sleep)
        assert result.ok and result.value == "ok" and result.attempts == 1

    def test_transient_fault_recovers(self):
        worker = _FlakyWorker(n_failures=2)
        result = run_attempts(
            worker, policy=RetryPolicy(max_attempts=3), sleep=_no_sleep
        )
        assert result.ok and result.value == 42
        assert result.attempts == 3 and worker.calls == 3

    def test_exhausted_policy_captures_final_error(self):
        worker = _FlakyWorker(n_failures=10)
        result = run_attempts(
            worker, policy=RetryPolicy(max_attempts=3), sleep=_no_sleep
        )
        assert not result.ok
        assert isinstance(result.error, TransientFault)
        assert result.attempts == 3

    def test_permanent_fault_fails_immediately(self):
        worker = _FlakyWorker(n_failures=5, error=PermanentFault("no"))
        result = run_attempts(
            worker, policy=RetryPolicy(max_attempts=4), sleep=_no_sleep
        )
        assert not result.ok and result.attempts == 1 and worker.calls == 1

    def test_no_policy_means_single_attempt(self):
        worker = _FlakyWorker(n_failures=1)
        result = run_attempts(worker, policy=None, sleep=_no_sleep)
        assert not result.ok and worker.calls == 1

    def test_sleeps_follow_the_declared_schedule(self):
        policy = RetryPolicy(
            max_attempts=3, backoff_base=0.25, jitter=0.2, seed=5
        )
        slept = []
        run_attempts(
            _FlakyWorker(n_failures=2),
            policy=policy,
            task_key=9,
            sleep=slept.append,
        )
        assert tuple(slept) == policy.delays(task_key=9)[:2]

    def test_unwrap_reraises_final_error(self):
        attempt = Attempt(value=None, error=ValueError("boom"), attempts=1)
        with pytest.raises(ValueError, match="boom"):
            attempt.unwrap()
