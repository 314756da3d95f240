"""Crash-safe artifact I/O: write-temp-then-rename plus checksums.

Every artifact this repository persists -- measurement ``.npz`` lots,
flow-log CSVs, benchmark JSON reports, grid result files -- used to be
written in place, so a crash mid-write left a truncated file that a
later reader would half-parse.  These helpers make every write atomic
at the filesystem level: content goes to a temporary file *in the same
directory* (same filesystem, so the final ``os.replace`` is atomic),
is flushed and fsynced, and only then renamed over the destination.
Readers therefore observe either the old complete file or the new
complete file, never a torn one.

Checksum helpers round the story out: :func:`file_checksum` computes a
SHA-256, :func:`write_checksum` drops a ``<name>.sha256`` sidecar, and
:func:`verify_artifact` validates a file against its sidecar (or an
explicit digest) before anything trusts its contents.  Validation
failures are typed: a *missing* sidecar is an :class:`ArtifactError`
(the artifact may be fine, the bookkeeping is not), while a digest
mismatch or an unparsable sidecar is an
:class:`ArtifactCorruptionError` -- the content itself cannot be
trusted, and callers like the model registry quarantine the file.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, IO, Iterator, Optional, Union

from contextlib import contextmanager

__all__ = [
    "ArtifactCorruptionError",
    "ArtifactError",
    "atomic_path",
    "atomic_write",
    "file_checksum",
    "read_verified",
    "verify_artifact",
    "write_checksum",
    "write_json_atomic",
    "write_text_atomic",
]

PathLike = Union[str, Path]

_CHECKSUM_SUFFIX = ".sha256"


class ArtifactError(ValueError):
    """An artifact failed validation (checksum mismatch, missing sidecar).

    Subclasses ``ValueError`` so pre-existing ``except ValueError``
    handlers (and the CLI's exit-2 mapping) keep working -- the
    backward-compatible alias for code written against the PR-4 API.
    """


class ArtifactCorruptionError(ArtifactError):
    """An artifact's content disagrees with its recorded checksum.

    The strongest validation failure: the bytes on disk are not the
    bytes that were published (bit rot, torn copy, tampering, a writer
    bypassing the atomic path).  Readers must not use the content;
    the model registry responds by quarantining the artifact and
    falling back to the last known-good version.
    """


@contextmanager
def atomic_path(path: PathLike, suffix: Optional[str] = None) -> Iterator[Path]:
    """Yield a temporary path that atomically replaces ``path`` on success.

    For writer APIs that insist on opening a path themselves
    (``np.savez_compressed``, ``csv`` pipelines).  The temporary file
    lives next to the destination so the final ``os.replace`` never
    crosses filesystems; ``suffix`` defaults to the destination's own
    suffix (some writers -- numpy -- append an extension when the name
    has none).  On any exception the temporary file is removed and the
    destination left untouched.  The destination's parent directory
    must already exist -- a bad output path fails here, loudly, exactly
    as an in-place ``open`` would.
    """
    path = Path(path)
    descriptor, name = tempfile.mkstemp(
        dir=path.parent,
        prefix=f".{path.name}.",
        suffix=path.suffix if suffix is None else suffix,
    )
    os.close(descriptor)
    tmp = Path(name)
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def atomic_write(
    path: PathLike,
    mode: str = "w",
    newline: Optional[str] = None,
) -> Iterator[IO[Any]]:
    """Open a handle whose content atomically replaces ``path`` on success.

    Text mode writes UTF-8.  The handle is flushed and fsynced before
    the rename, so once the block exits the new content is durable; if
    the block raises, the destination keeps its previous content (or
    stays absent).
    """
    if "r" in mode or "+" in mode or "a" in mode:
        raise ValueError(
            f"atomic_write only supports fresh writes ('w'/'x' modes), got {mode!r}"
        )
    encoding = None if "b" in mode else "utf-8"
    with atomic_path(path) as tmp:
        with open(tmp, mode, encoding=encoding, newline=newline) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())


def write_text_atomic(path: PathLike, text: str) -> Path:
    """Atomically write ``text`` (UTF-8) to ``path``; returns the path."""
    path = Path(path)
    with atomic_write(path, "w") as handle:
        handle.write(text)
    return path


def write_json_atomic(path: PathLike, value: Any) -> Path:
    """Atomically write ``value`` as indented JSON to ``path``; returns the path.

    Keys are sorted so the artifact is byte-stable for identical
    content -- two runs producing the same results produce the same
    file, which is what the CI resilience job diffs.
    """
    path = Path(path)
    text = json.dumps(value, indent=2, sort_keys=True) + "\n"
    return write_text_atomic(path, text)


def file_checksum(path: PathLike) -> str:
    """SHA-256 hex digest of a file's content (streamed)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _sidecar(path: Path) -> Path:
    return path.with_name(path.name + _CHECKSUM_SUFFIX)


def write_checksum(path: PathLike, digest: Optional[str] = None) -> Path:
    """Write the ``<name>.sha256`` sidecar for ``path``; returns the sidecar.

    ``digest`` is the SHA-256 of the content when the writer still holds
    it in memory; ``None`` reads the file back to compute it.  The
    sidecar itself is written atomically, and uses the conventional
    ``<digest>  <filename>`` format ``sha256sum --check`` understands.
    """
    path = Path(path)
    if digest is None:
        digest = file_checksum(path)
    sidecar = _sidecar(path)
    write_text_atomic(sidecar, f"{digest}  {path.name}\n")
    return sidecar


def _sidecar_digest(path: Path) -> str:
    """The digest the ``<name>.sha256`` sidecar of ``path`` records."""
    sidecar = _sidecar(path)
    if not sidecar.exists():
        raise ArtifactError(
            f"{path}: no checksum sidecar {sidecar.name}; "
            "call write_checksum first"
        )
    fields = sidecar.read_text(encoding="utf-8").split()
    if not fields or len(fields[0]) != 64:
        raise ArtifactCorruptionError(f"{sidecar}: unparsable checksum sidecar")
    return fields[0]


def _check_digest(path: Path, expected: str, actual: str) -> str:
    if actual != expected:
        raise ArtifactCorruptionError(
            f"{path}: checksum mismatch (expected {expected[:12]}..., "
            f"got {actual[:12]}...); the artifact is corrupt or was "
            "replaced outside the atomic-write path"
        )
    return actual


def verify_artifact(path: PathLike) -> str:
    """Validate ``path`` against its sidecar; returns the actual digest.

    The expected digest is the one the ``<name>.sha256`` sidecar written
    by :func:`write_checksum` records.  Raises :class:`ArtifactError`
    when the sidecar is missing, and :class:`ArtifactCorruptionError`
    when the sidecar is unparsable or the digests disagree -- readers
    call this before trusting a restored artifact.
    """
    path = Path(path)
    return _check_digest(path, _sidecar_digest(path), file_checksum(path))


def read_verified(path: PathLike) -> bytes:
    """Read ``path`` once and return its bytes, checked against its sidecar.

    The bytes returned are the bytes hashed: a file replaced after the
    check cannot be read in its place, as it could between
    :func:`verify_artifact` and a second read.  Errors are those of
    :func:`verify_artifact`.
    """
    path = Path(path)
    expected = _sidecar_digest(path)
    data = path.read_bytes()
    _check_digest(path, expected, hashlib.sha256(data).hexdigest())
    return data
