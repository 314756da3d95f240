"""Deterministic retry policies and the transient/permanent fault taxonomy.

A cross-validation grid of the paper (model x alpha x seed cells) dies
today on the first worker exception, even when the failure is a blip --
an exhausted file descriptor, a killed worker process, a cooperative
timeout.  This module defines the vocabulary the execution runtime uses
to tell those blips apart from real bugs and to re-run them on a
*deterministic* schedule:

* :class:`TransientFault` / :class:`PermanentFault` -- the taxonomy.
  Transient faults (and their subclasses, e.g.
  :class:`~repro.runtime.watchdog.TaskTimeout`) are worth retrying;
  permanent faults are never retried no matter what the policy allows.
  The fault injectors of :mod:`repro.robust.faults` raise exactly these
  types, so stress campaigns exercise the same code path as production
  failures.
* :class:`RetryPolicy` -- max attempts, exponential backoff with
  *seeded* jitter, and an exception allowlist.  The backoff schedule for
  a task is a pure function of ``(policy.seed, task_key)``: two runs of
  the same grid sleep the same amounts, in keeping with the repository's
  reproducibility contract (jitter still decorrelates *different* tasks
  so retries do not stampede).
* :func:`run_attempts` -- the retry loop itself, which
  :func:`repro.perf.parallel.parallel_map_outcomes` runs every grid
  cell through.

Delays only shape *when* work re-runs, never *what* it computes, so a
retried grid is bit-identical to a clean one -- the test suite asserts
this end to end.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Type, TypeVar

import numpy as np

__all__ = [
    "Attempt",
    "PermanentFault",
    "RetryPolicy",
    "TransientFault",
    "run_attempts",
]

R = TypeVar("R")


class TransientFault(RuntimeError):
    """A failure that is expected to succeed on re-execution.

    Raise (or subclass) this for infrastructure-shaped problems: a
    killed worker, a timed-out task, a dropped connection.  The default
    :class:`RetryPolicy` retries exactly this family and nothing else,
    so genuine bugs (``ValueError`` from bad data, shape mismatches)
    still fail fast.
    """


class PermanentFault(RuntimeError):
    """A failure that re-execution cannot fix.

    Never retried, even by a policy whose ``retry_on`` allowlist would
    otherwise match -- the taxonomy beats the configuration.
    """


@dataclass(frozen=True)
class Attempt:
    """Outcome of :func:`run_attempts`: the value or the final error.

    ``attempts`` counts executions actually made (1 = first try
    succeeded).  Exactly one of ``value`` / ``error`` is meaningful,
    discriminated by ``ok``.
    """

    value: Optional[object]
    error: Optional[BaseException]
    attempts: int

    @property
    def ok(self) -> bool:
        """Whether the call eventually succeeded."""
        return self.error is None

    def unwrap(self) -> object:
        """Return the value, or re-raise the final error."""
        if self.error is not None:
            raise self.error
        return self.value


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic exponential-backoff retry schedule.

    Parameters
    ----------
    max_attempts:
        Total executions allowed (1 = no retries).
    backoff_base:
        Delay before the first retry, in seconds.
    backoff_factor:
        Multiplier applied to the delay after every retry.
    backoff_max:
        Ceiling on any single delay, in seconds.
    jitter:
        Fractional jitter: each delay is scaled by a factor drawn
        uniformly from ``[1, 1 + jitter)`` using a generator seeded from
        ``(seed, task_key)`` -- deterministic per task, decorrelated
        across tasks.  ``0`` disables jitter entirely.
    seed:
        Base seed for the jitter stream.
    retry_on:
        Exception types worth retrying.  :class:`PermanentFault` is
        never retried regardless of this allowlist.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.1
    seed: int = 0
    retry_on: Tuple[Type[BaseException], ...] = field(
        default=(TransientFault,)
    )

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0:
            raise ValueError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.backoff_max < 0:
            raise ValueError(
                f"backoff_max must be >= 0, got {self.backoff_max}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        for exc in self.retry_on:
            if not (isinstance(exc, type) and issubclass(exc, BaseException)):
                raise TypeError(
                    f"retry_on entries must be exception types, got {exc!r}"
                )

    def should_retry(self, error: BaseException) -> bool:
        """Whether ``error`` is worth another attempt under this policy."""
        if isinstance(error, PermanentFault):
            return False
        return isinstance(error, tuple(self.retry_on))

    def delays(self, task_key: int = 0) -> Tuple[float, ...]:
        """The full backoff schedule for one task: ``max_attempts - 1`` delays.

        A pure function of ``(self.seed, task_key)`` -- calling it twice
        returns the same tuple, which is what makes retried runs
        reproducible (and testable) down to their sleep pattern.
        """
        n_delays = self.max_attempts - 1
        if n_delays == 0:
            return ()
        if self.jitter > 0.0:
            entropy = (int(self.seed), abs(int(task_key)))
            rng = np.random.default_rng(np.random.SeedSequence(entropy))
            factors = 1.0 + self.jitter * rng.uniform(size=n_delays)
        else:
            factors = np.ones(n_delays)
        delays = []
        delay = float(self.backoff_base)
        for i in range(n_delays):
            delays.append(min(delay, self.backoff_max) * float(factors[i]))
            delay *= self.backoff_factor
        return tuple(delays)


AttemptRunner = Callable[[], object]
SleepFn = Callable[[float], None]


def run_attempts(
    fn: AttemptRunner,
    policy: Optional[RetryPolicy] = None,
    task_key: int = 0,
    sleep: Optional[SleepFn] = None,
) -> Attempt:
    """Run ``fn`` under ``policy``, capturing the outcome instead of raising.

    ``fn`` takes no arguments (close over the work item).  With
    ``policy=None`` the call runs exactly once.  ``sleep`` is injectable
    for tests; it defaults to :func:`time.sleep`.

    Returns an :class:`Attempt` -- the caller decides whether to unwrap
    (raise) or to record the failure and keep going, which is how
    :func:`repro.perf.parallel.parallel_map_outcomes` keeps one bad cell
    from discarding its siblings.
    """
    do_sleep = time.sleep if sleep is None else sleep
    max_attempts = 1 if policy is None else policy.max_attempts
    delays = () if policy is None else policy.delays(task_key)
    attempt = 0
    while True:
        attempt += 1
        try:
            return Attempt(value=fn(), error=None, attempts=attempt)
        except Exception as error:  # noqa: BLE001 - outcome capture by design
            exhausted = attempt >= max_attempts
            if exhausted or policy is None or not policy.should_retry(error):
                return Attempt(value=None, error=error, attempts=attempt)
            delay = delays[attempt - 1]
            if delay > 0.0:
                do_sleep(delay)
