"""Resilient execution runtime: retries, timeouts, checkpoints, atomic I/O.

The conformal guarantees of the paper (Romano et al., CQR) are only as
good as the execution layer that computes them: a coverage table with a
silently missing cell, a half-written artifact, or a grid lost to one
hung worker is not a reproduction.  ``repro.runtime`` is the layer
underneath :mod:`repro.perf.parallel` and the experiment grids that
makes execution itself reliable, in four pieces:

* :mod:`repro.runtime.retry` -- the :class:`TransientFault` /
  :class:`PermanentFault` taxonomy and deterministic
  :class:`RetryPolicy` backoff schedules (seeded jitter; two runs sleep
  identically and compute identically),
* :mod:`repro.runtime.watchdog` -- cooperative deadlines for every
  task, hard-killed subprocess execution for stuck worker processes,
* :mod:`repro.runtime.checkpoint` -- the append-only JSONL
  :class:`RunJournal` keyed by configuration fingerprints, giving
  experiment grids SIGKILL-safe resume with bit-identical results,
* :mod:`repro.runtime.artifacts` -- write-temp-then-rename atomic file
  helpers with SHA-256 checksum sidecars, used by every artifact writer
  in the repository.

See ``docs/RUNTIME.md`` for policies, journal schema, and resume
semantics.
"""

from repro.runtime.artifacts import (
    ArtifactCorruptionError,
    ArtifactError,
    atomic_path,
    atomic_write,
    file_checksum,
    verify_artifact,
    write_checksum,
    write_json_atomic,
    write_text_atomic,
)
from repro.runtime.checkpoint import (
    JOURNAL_SCHEMA_VERSION,
    JournalError,
    RunJournal,
    canonical_json,
    cell_fingerprint,
)
from repro.runtime.retry import (
    Attempt,
    PermanentFault,
    RetryPolicy,
    TransientFault,
    run_attempts,
)
from repro.runtime.watchdog import (
    Deadline,
    TaskTimeout,
    WorkerCrash,
    check_deadline,
    deadline_scope,
    run_in_subprocess,
)

__all__ = [
    "Attempt",
    "ArtifactCorruptionError",
    "ArtifactError",
    "Deadline",
    "JOURNAL_SCHEMA_VERSION",
    "JournalError",
    "PermanentFault",
    "RetryPolicy",
    "RunJournal",
    "TaskTimeout",
    "TransientFault",
    "WorkerCrash",
    "atomic_path",
    "atomic_write",
    "canonical_json",
    "cell_fingerprint",
    "check_deadline",
    "deadline_scope",
    "file_checksum",
    "run_attempts",
    "run_in_subprocess",
    "verify_artifact",
    "write_checksum",
    "write_json_atomic",
    "write_text_atomic",
]
