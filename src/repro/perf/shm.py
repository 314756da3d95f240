"""Zero-copy transport of numpy arrays to worker processes.

The process-pool Table-III grid ships the raw feature matrices and
their pre-binned code matrices to every worker exactly once, through
POSIX shared memory, instead of pickling hundreds of megabytes per task.
The ownership model is deliberately one-sided:

* the **parent** creates every segment through a
  :class:`SharedArrayBundle` and is the only process that ever unlinks
  one -- the bundle is a context manager, so segments are freed even
  when a worker crashes or is SIGKILLed mid-task,
* **workers** attach read-only views via :func:`attach_array` from the
  picklable :class:`ArraySpec` descriptors and never unlink anything;
  their attachments last as long as the worker process.

Workers are always children of the creating session (pool workers,
watchdog requeue subprocesses), so they share the parent's
``multiprocessing`` resource tracker: attach-time registrations
deduplicate against the parent's create-time one instead of scheduling
a premature unlink, and if the whole session dies without running
``close`` the tracker reaps the segments -- the backstop that keeps a
SIGKILL from leaking ``/dev/shm`` entries.

Worker views are marked non-writeable: a grid cell that scribbled on
the shared code matrix would silently corrupt every sibling, so the
attempt raises instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["ArraySpec", "SharedArrayBundle", "attach_array"]


@dataclass(frozen=True)
class ArraySpec:
    """Picklable descriptor of one shared array.

    Carries everything a worker needs to rebuild a zero-copy view:
    the OS-level segment name plus the numpy shape and dtype string.
    """

    name: str
    shape: Tuple[int, ...]
    dtype: str


class SharedArrayBundle:
    """Parent-owned collection of shared-memory array segments.

    ``share`` copies an array into a fresh segment and returns its
    :class:`ArraySpec`, ready to pickle into a pool initializer.
    ``close`` (also run on context exit) closes **and unlinks** every
    segment -- the parent is the sole owner, so segment lifetime is
    exactly the bundle's lifetime regardless of what happens to the
    workers.
    """

    def __init__(self) -> None:
        self._segments: List[shared_memory.SharedMemory] = []

    def share(self, array: np.ndarray) -> ArraySpec:
        """Copy ``array`` into a new segment owned by this bundle."""
        array = np.ascontiguousarray(array)
        segment = shared_memory.SharedMemory(
            create=True, size=max(array.nbytes, 1)
        )
        self._segments.append(segment)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[...] = array
        return ArraySpec(
            name=segment.name, shape=tuple(array.shape), dtype=str(array.dtype)
        )

    def close(self) -> None:
        """Close and unlink every segment (idempotent)."""
        for segment in self._segments:
            try:
                segment.close()
            except (OSError, BufferError):  # pragma: no cover - platform noise
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        self._segments = []

    def __enter__(self) -> "SharedArrayBundle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# Worker-side registry of attached segments.  The SharedMemory handles
# must outlive the array views they back (the buffer would be unmapped
# under the view otherwise), so they are held here for the life of the
# process.
_ATTACHED: Dict[str, shared_memory.SharedMemory] = {}


def attach_array(spec: ArraySpec) -> np.ndarray:
    """Attach a read-only zero-copy view of a parent-shared array.

    Safe to call repeatedly with the same spec (one attach per segment
    per process).  The view is non-writeable by construction; see the
    module docstring for the ownership model.
    """
    segment = _ATTACHED.get(spec.name)
    if segment is None:
        segment = shared_memory.SharedMemory(name=spec.name)
        _ATTACHED[spec.name] = segment
    view = np.ndarray(
        spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf
    )
    view.flags.writeable = False
    return view
