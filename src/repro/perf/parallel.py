"""Run independent tasks to per-task outcomes: a serial loop or worker processes.

The experiment grid of the paper -- methods x temperatures x read
points -- is embarrassingly parallel: split-conformal calibration is
independent per cell (Romano et al., *Conformalized Quantile
Regression*).  :func:`parallel_map_outcomes` is the one primitive the
grids fan out through.  ``processes=1`` runs every task in this process,
in input order; ``processes > 1`` runs them on a pool of worker
processes.  Either way each task runs under an optional
:class:`~repro.runtime.retry.RetryPolicy` and timeout, and the map
yields one :class:`TaskOutcome` per item -- successes *and* failures --
as soon as that task has finished, so the caller can record each result
before the next one arrives.

Timeouts follow :mod:`repro.runtime.watchdog`.  In this process a task
gets a *cooperative* deadline (code that calls ``check_deadline`` is
interrupted; code that never checks is not).  On the pool, a task gets
the same deadline inside its worker, and the parent adds a hard kill:
when no task finishes within ``timeout`` seconds (or a worker dies), the
pool is torn down and every unfinished task re-runs serially, each in
its own kill-able subprocess, so one stuck worker degrades the map to
serial re-execution instead of hanging or aborting it.

Determinism contract: for a pure ``fn``, every item's outcome value is
the same for every ``processes``; only the order in which outcomes
arrive depends on scheduling.  Retries and timeouts only change *when*
work runs, never what it computes.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Generic,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.runtime.retry import RetryPolicy, run_attempts
from repro.runtime.watchdog import TaskTimeout, deadline_scope, run_in_subprocess

__all__ = ["TaskOutcome", "parallel_map_outcomes"]

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class TaskOutcome(Generic[R]):
    """Per-task result of :func:`parallel_map_outcomes`.

    Exactly one of ``value`` / ``error`` is meaningful, discriminated by
    :attr:`ok`.  ``index`` is the item's position in the input;
    ``attempts`` counts executions including retries.
    """

    index: int
    value: Optional[R]
    error: Optional[BaseException]
    attempts: int

    @property
    def ok(self) -> bool:
        """Whether the task eventually produced a value."""
        return self.error is None

    @property
    def timed_out(self) -> bool:
        """Whether the final failure was a deadline overrun."""
        return isinstance(self.error, TaskTimeout)


def _execute_task(
    fn: Callable[[T], R],
    item: T,
    index: int,
    retry_policy: Optional[RetryPolicy],
    timeout: Optional[float],
    isolate: bool = False,
) -> TaskOutcome:
    """Run one task under deadline + retry, capturing the outcome.

    ``isolate=True`` runs every attempt in a dedicated subprocess with a
    hard kill (the requeue path after a pool failure); otherwise the
    attempt runs in-process under a cooperative deadline scope.
    """
    if isolate:
        def attempt() -> R:
            return run_in_subprocess(fn, item, timeout=timeout)
    else:
        def attempt() -> R:
            with deadline_scope(timeout):
                return fn(item)

    result = run_attempts(attempt, policy=retry_policy, task_key=index)
    return TaskOutcome(
        index=index,
        value=result.value,
        error=result.error,
        attempts=result.attempts,
    )


class _ResilientTask:
    """Picklable per-item worker wrapping retry + cooperative deadline."""

    def __init__(
        self,
        fn: Callable[[T], R],
        retry_policy: Optional[RetryPolicy],
        timeout: Optional[float],
    ) -> None:
        self.fn = fn
        self.retry_policy = retry_policy
        self.timeout = timeout

    def __call__(self, indexed: Tuple[int, T]) -> TaskOutcome:
        """Run one (index, item) pair to a :class:`TaskOutcome`."""
        index, item = indexed
        return _execute_task(
            self.fn, item, index, self.retry_policy, self.timeout
        )


def _kill_pool_processes(pool: ProcessPoolExecutor) -> None:
    """Hard-kill every worker of a process pool (stuck-task watchdog)."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except Exception:  # pragma: no cover - already-dead workers
            pass


def _finished_outcome(future: "Future[TaskOutcome]") -> Optional[TaskOutcome]:
    """The outcome of a future that finished cleanly, else ``None``."""
    if future.done() and not future.cancelled():
        try:
            return future.result(timeout=0)
        except Exception:
            return None
    return None


def _submit_all(
    task: _ResilientTask,
    work: Sequence[T],
    processes: int,
    initializer: Optional[Callable[..., None]],
    initargs: Tuple,
) -> Optional[Tuple[ProcessPoolExecutor, List["Future[TaskOutcome]"]]]:
    """Start the pool and submit every item; ``None`` when no pool can run.

    Restricted environments (no semaphores, no fork) keep the results
    identical and just give up the speedup: the caller runs the serial
    loop instead.
    """
    try:
        pool = ProcessPoolExecutor(
            max_workers=min(processes, len(work)),
            initializer=initializer,
            initargs=initargs,
        )
    except (OSError, RuntimeError, PermissionError):
        return None
    try:
        futures = [
            pool.submit(task, (index, item)) for index, item in enumerate(work)
        ]
    except (OSError, RuntimeError, BrokenProcessPool):
        pool.shutdown(wait=False, cancel_futures=True)
        return None
    return pool, futures


def _pool_outcomes(
    pool: ProcessPoolExecutor,
    futures: Sequence["Future[TaskOutcome]"],
    fn: Callable[[T], R],
    work: Sequence[T],
    retry_policy: Optional[RetryPolicy],
    timeout: Optional[float],
) -> Iterator[TaskOutcome]:
    """Yield pool outcomes as they finish; requeue what a failure strands.

    When no task finishes within ``timeout`` seconds a worker is stuck:
    the pool is killed.  When a worker dies (crash, OOM kill) the pool
    is broken.  Either way the finished outcomes are kept and every
    unfinished task is re-executed serially, each in its own subprocess
    with a hard timeout per attempt.
    """
    index_of: Dict["Future[TaskOutcome]", int] = {
        future: index for index, future in enumerate(futures)
    }
    pending = set(futures)
    requeue: List[int] = []
    with pool:
        while pending:
            done, pending = wait(
                pending, timeout=timeout, return_when=FIRST_COMPLETED
            )
            for future in sorted(done, key=index_of.__getitem__):
                try:
                    yield future.result()
                except BrokenProcessPool:
                    requeue.append(index_of[future])
            if done and not requeue:
                continue
            if not done:  # no task finished within its budget: a worker is stuck
                _kill_pool_processes(pool)
            for future in sorted(pending, key=index_of.__getitem__):
                outcome = _finished_outcome(future)
                if outcome is None:
                    future.cancel()
                    requeue.append(index_of[future])
                else:
                    yield outcome
            break
        pool.shutdown(wait=False)
    for index in sorted(requeue):
        yield _execute_task(
            fn, work[index], index, retry_policy, timeout, isolate=True
        )


def _outcomes(
    fn: Callable[[T], R],
    work: Sequence[T],
    processes: int,
    retry_policy: Optional[RetryPolicy],
    timeout: Optional[float],
    initializer: Optional[Callable[..., None]],
    initargs: Tuple,
) -> Iterator[TaskOutcome]:
    started = None
    if processes > 1 and len(work) > 1:
        task = _ResilientTask(fn, retry_policy, timeout)
        started = _submit_all(task, work, processes, initializer, initargs)
    if started is not None:
        yield from _pool_outcomes(*started, fn, work, retry_policy, timeout)
        return
    if initializer is not None:
        initializer(*initargs)
    for index, item in enumerate(work):
        yield _execute_task(fn, item, index, retry_policy, timeout)


def parallel_map_outcomes(
    fn: Callable[[T], R],
    items: Iterable[T],
    processes: int = 1,
    retry_policy: Optional[RetryPolicy] = None,
    timeout: Optional[float] = None,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple = (),
) -> Iterator[TaskOutcome]:
    """Run ``fn`` over ``items``, yielding each :class:`TaskOutcome` as it finishes.

    Parameters
    ----------
    fn:
        The per-item worker.  With ``processes > 1`` it, the items and
        the results must be picklable (a top-level function or an
        instance of a top-level class).
    items:
        The work list; consumed eagerly, and each outcome carries its
        item's ``index`` in it.
    processes:
        ``1`` runs the serial loop in this process, in input order.
        More runs that many worker processes (at most one per item), and
        outcomes arrive in completion order.  A pool that cannot start
        falls back to the serial loop -- same values, no speedup.
    retry_policy:
        Optional :class:`~repro.runtime.retry.RetryPolicy`; transient
        faults are re-executed on a deterministic backoff schedule
        before counting as failures.
    timeout:
        Optional per-task budget in seconds: a cooperative deadline for
        every attempt, plus the pool's hard kill and serial requeue (see
        the module docstring).  Overruns surface as
        :class:`~repro.runtime.watchdog.TaskTimeout`, which the retry
        policy may re-run.
    initializer, initargs:
        ``initializer(*initargs)`` runs once per pool worker before any
        task (the grids attach shared-memory payloads with it); when the
        map runs the serial loop it runs once, in-process, before the
        first task, so worker state is set up no matter how work is
        scheduled.

    Task-level exceptions never propagate; they are the ``error`` of
    their outcome.  Errors in the caller's own arguments (a bad process
    count or timeout) raise here, before any task runs.
    """
    if processes < 1:
        raise ValueError(f"processes must be >= 1, got {processes}")
    if timeout is not None and not timeout > 0.0:
        raise ValueError(f"timeout must be > 0 seconds, got {timeout}")
    return _outcomes(
        fn, list(items), processes, retry_policy, timeout, initializer, initargs
    )
