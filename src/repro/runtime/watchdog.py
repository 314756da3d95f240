"""Task deadlines and a stuck-task watchdog for the execution runtime.

A hung model fit (a pathological LP, a runaway optimiser) must not hang
the whole experiment grid.  Two mechanisms, matched to where a task
runs (see :func:`repro.perf.parallel.parallel_map_outcomes`):

* **Cooperative deadlines** (every task, in the serial loop and inside
  each worker process).  :func:`deadline_scope` installs a per-task
  deadline on a thread-local stack; instrumented code calls
  :func:`check_deadline` at convenient points and gets a
  :class:`TaskTimeout` -- a :class:`~repro.runtime.retry.TransientFault`
  -- once the budget is spent.  A task running in the caller's own
  process cannot be killed, so this is the honest contract there: a
  task that never checks is never interrupted.
* **Hard kill** (worker processes).  :func:`run_in_subprocess` executes
  one task in a dedicated child process with a wall-clock cap: on
  overrun the child is killed and :class:`TaskTimeout` raised; a child
  that dies without reporting (segfault, ``os._exit``) surfaces as
  :class:`WorkerCrash`.  The process pool uses this to requeue tasks
  serially after killing a stuck pool, so a hung worker degrades the
  grid to serial re-execution instead of aborting it.

Both timeout exceptions are transient faults, so a
:class:`~repro.runtime.retry.RetryPolicy` re-runs them by default.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from typing import Any, Callable, Iterator, List, Optional, TypeVar

from contextlib import contextmanager

from repro.runtime.retry import TransientFault

__all__ = [
    "Deadline",
    "TaskTimeout",
    "WorkerCrash",
    "check_deadline",
    "deadline_scope",
    "run_in_subprocess",
]

T = TypeVar("T")
R = TypeVar("R")


class TaskTimeout(TransientFault):
    """A task exceeded its time budget (cooperative or hard-killed).

    Transient by taxonomy: a timeout on a loaded machine often succeeds
    on retry; a deterministic hang exhausts the policy and surfaces as a
    captured failure instead of wedging the grid.
    """


class WorkerCrash(TransientFault):
    """A worker process died without reporting a result.

    Raised when a subprocess exits abnormally (killed, segfault,
    ``os._exit``) -- the infrastructure failed, not necessarily the
    task, so the fault is transient and retryable.
    """


class Deadline:
    """A wall-clock budget measured with :func:`time.monotonic`.

    Immutable once created; :meth:`check` raises :class:`TaskTimeout`
    when the budget is spent.
    """

    __slots__ = ("seconds", "_expires_at")

    def __init__(self, seconds: float) -> None:
        if not seconds > 0.0:
            raise ValueError(f"seconds must be > 0, got {seconds}")
        self.seconds = float(seconds)
        self._expires_at = time.monotonic() + self.seconds

    def remaining(self) -> float:
        """Seconds left before expiry (negative once past it)."""
        return self._expires_at - time.monotonic()

    @property
    def expired(self) -> bool:
        """Whether the budget is already spent."""
        return self.remaining() <= 0.0

    def check(self) -> None:
        """Raise :class:`TaskTimeout` when the deadline has passed."""
        if self.expired:
            raise TaskTimeout(
                f"task exceeded its {self.seconds:g}s deadline"
            )

    def __repr__(self) -> str:
        return f"Deadline(seconds={self.seconds:g}, remaining={self.remaining():.3f})"


_SCOPES = threading.local()


def _stack() -> List[Deadline]:
    stack = getattr(_SCOPES, "stack", None)
    if stack is None:
        stack = []
        _SCOPES.stack = stack
    return stack


@contextmanager
def deadline_scope(seconds: Optional[float]) -> Iterator[Optional[Deadline]]:
    """Install a cooperative deadline for the duration of the block.

    ``seconds=None`` is a no-op scope (no deadline), so call sites can
    pass an optional timeout straight through.  Scopes nest: an inner
    scope does not hide an outer one -- :func:`check_deadline` honours
    every active deadline on the stack.
    """
    if seconds is None:
        yield None
        return
    deadline = Deadline(seconds)
    stack = _stack()
    stack.append(deadline)
    try:
        yield deadline
    finally:
        stack.pop()


def check_deadline() -> None:
    """Raise :class:`TaskTimeout` if any active deadline has passed.

    The single call instrumented code sprinkles into its loops; free
    when no deadline scope is active.
    """
    for deadline in _stack():
        deadline.check()


def _subprocess_entry(connection: Any, fn: Callable[..., Any], item: Any, seconds: Optional[float]) -> None:
    """Child-process body: run one task, ship (ok, payload) back."""
    try:
        with deadline_scope(seconds):
            value = fn(item)
        payload = (True, value)
    except BaseException as error:  # noqa: BLE001 - shipped to the parent
        payload = (False, error)
    try:
        connection.send(payload)
    except Exception:
        # Unpicklable value/exception: report the failure by repr so the
        # parent still gets a structured error instead of a dead pipe.
        connection.send(
            (False, WorkerCrash(f"task result could not be pickled: {payload[1]!r}"))
        )
    finally:
        connection.close()


def run_in_subprocess(
    fn: Callable[[T], R],
    item: T,
    timeout: Optional[float] = None,
) -> R:
    """Run ``fn(item)`` in a dedicated child process with a hard kill.

    The one isolation primitive of the runtime: the child also gets a
    cooperative deadline (belt and braces), but the parent enforces the
    wall-clock cap with ``join(timeout)`` + ``kill()`` -- a hung child
    cannot hang the caller.  ``fn``, ``item`` and the result must be
    picklable.  Raises :class:`TaskTimeout` on overrun,
    :class:`WorkerCrash` when the child dies silently, and re-raises the
    child's own exception otherwise.
    """
    context = multiprocessing.get_context()
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(
        target=_subprocess_entry, args=(sender, fn, item, timeout)
    )
    process.start()
    sender.close()
    try:
        process.join(timeout)
        if process.is_alive():
            process.kill()
            process.join()
            raise TaskTimeout(
                f"subprocess task exceeded its {timeout:g}s deadline and was killed"
            )
        if not receiver.poll():
            raise WorkerCrash(
                f"worker process died without a result (exit code {process.exitcode})"
            )
        try:
            ok, payload = receiver.recv()
        except (EOFError, OSError) as error:
            raise WorkerCrash(
                f"worker result pipe broke (exit code {process.exitcode}): {error}"
            ) from error
    finally:
        receiver.close()
        if process.is_alive():  # pragma: no cover - defensive cleanup
            process.kill()
            process.join()
    if ok:
        return payload
    raise payload
