"""Versioned, checksum-verified model registry on the artifact runtime.

A serving deployment must never load a model it cannot prove intact:
the conformal guarantee is only as good as the calibration state inside
the bundle, and a torn or bit-rotted pickle fails *silently* -- it may
unpickle into a model that serves plausible-looking but uncalibrated
intervals.  :class:`ModelRegistry` therefore treats every published
model as a checksummed artifact:

* **publish** pickles a fitted flow atomically and durably
  (:func:`~repro.runtime.artifacts.atomic_write`: fsynced before its
  rename), writes a SHA-256 sidecar of the pickled bytes and a JSON
  manifest (also checksummed), and only then swaps the ``LATEST``
  pointer -- itself an atomic rename, so readers observe either the old
  complete version or the new complete version,
* **load** reads the bundle once and checks those bytes against the
  sidecar (:func:`~repro.runtime.artifacts.read_verified`) *before*
  unpickling the same bytes; a digest mismatch raises
  :class:`~repro.runtime.artifacts.ArtifactCorruptionError` and moves
  the whole version directory into ``quarantine/`` so no later reader
  can trust it by accident,
* **last_known_good** walks versions newest-to-oldest and returns the
  first one whose bundle still verifies -- the rollback target of the
  serving fallback chain.

Version names are monotonically numbered (``v0001``, ``v0002``, ...);
publishing never mutates an existing version, so hot-swapping a serving
process is a pointer read away and zero-downtime by construction.

Layout under ``root``::

    versions/v0001/bundle.pkl          the pickled fitted flow
    versions/v0001/bundle.pkl.sha256   its checksum sidecar
    versions/v0001/manifest.json       metadata (reason, parent, ...)
    versions/v0001/manifest.json.sha256
    LATEST                             text file naming the live version
    quarantine/v0001/...               corrupt versions, moved wholesale
"""

from __future__ import annotations

import hashlib
import json
import pickle
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.runtime.artifacts import (
    ArtifactCorruptionError,
    ArtifactError,
    atomic_write,
    read_verified,
    verify_artifact,
    write_checksum,
    write_json_atomic,
    write_text_atomic,
)
from repro.serve.compiled import compiled_summary

__all__ = ["MANIFEST_SCHEMA_VERSION", "ModelRegistry", "ModelVersion", "RegistryError"]

MANIFEST_SCHEMA_VERSION = 1

_BUNDLE_NAME = "bundle.pkl"
_MANIFEST_NAME = "manifest.json"
_LATEST_NAME = "LATEST"
_VERSION_PATTERN = re.compile(r"^v(\d{4,})$")


class RegistryError(ArtifactError):
    """A registry operation failed (no versions, unknown name, bad root).

    Subclasses :class:`~repro.runtime.artifacts.ArtifactError` (and so
    ``ValueError``), keeping the CLI's exit-2 mapping and existing
    ``except`` clauses working.
    """


@dataclass(frozen=True)
class ModelVersion:
    """One published registry version: identity, location, manifest.

    Attributes
    ----------
    name:
        The version name (``v0001`` style), unique within the registry.
    number:
        The monotonic integer behind the name.
    path:
        Directory holding ``bundle.pkl`` / ``manifest.json`` and their
        sidecars.
    manifest:
        The parsed manifest: ``schema_version``, ``version``,
        ``reason``, ``parent`` and free-form ``metadata``.
    """

    name: str
    number: int
    path: Path
    manifest: Dict[str, Any]

    @property
    def reason(self) -> str:
        """Why this version was published (e.g. ``recalibrated``)."""
        return str(self.manifest.get("reason", ""))

    @property
    def parent(self) -> Optional[str]:
        """The version this one was derived from, if recorded."""
        parent = self.manifest.get("parent")
        return str(parent) if parent is not None else None


def _version_name(number: int) -> str:
    return f"v{number:04d}"


class ModelRegistry:
    """Atomic publish / verified load / quarantine for serving bundles.

    Parameters
    ----------
    root:
        Registry root directory; created (with ``versions/`` and
        ``quarantine/``) if absent.  One registry root belongs to one
        model lineage -- publish different products to different roots.

    Notes
    -----
    All operations are protected by an in-process lock, and every
    on-disk mutation is an atomic rename, so a reader in another
    process never observes a torn publish or swap.  Concurrent
    *publishers* in different processes are not arbitrated -- the
    deployment pattern is single-publisher, many-readers.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise RegistryError(f"registry root {self.root} is not a directory")
        self.versions_dir = self.root / "versions"
        self.quarantine_dir = self.root / "quarantine"
        self.versions_dir.mkdir(parents=True, exist_ok=True)
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()

    # -- queries ---------------------------------------------------------------
    def versions(self) -> List[str]:
        """All published (non-quarantined) version names, oldest first."""
        found = []
        for entry in self.versions_dir.iterdir():
            match = _VERSION_PATTERN.match(entry.name)
            if match and entry.is_dir():
                found.append((int(match.group(1)), entry.name))
        return [name for _, name in sorted(found)]

    def latest(self) -> Optional[str]:
        """The version the ``LATEST`` pointer names, or ``None``.

        A pointer naming a missing (e.g. quarantined) version is
        treated as absent -- callers fall back to
        :meth:`last_known_good`.
        """
        pointer = self.root / _LATEST_NAME
        if not pointer.exists():
            return None
        name = pointer.read_text(encoding="utf-8").strip()
        if not name or not (self.versions_dir / name).is_dir():
            return None
        return name

    def describe(self, name: str) -> ModelVersion:
        """The :class:`ModelVersion` record for ``name`` (manifest parsed).

        Raises :class:`RegistryError` for unknown names and
        :class:`~repro.runtime.artifacts.ArtifactCorruptionError` for an
        unreadable manifest.
        """
        path = self.versions_dir / name
        match = _VERSION_PATTERN.match(name)
        if match is None or not path.is_dir():
            raise RegistryError(
                f"unknown registry version {name!r} under {self.root} "
                f"(published: {self.versions() or 'none'})"
            )
        manifest_path = path / _MANIFEST_NAME
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise ArtifactCorruptionError(
                f"{manifest_path}: unreadable manifest ({error})"
            ) from error
        return ModelVersion(
            name=name, number=int(match.group(1)), path=path, manifest=manifest
        )

    # -- publish ---------------------------------------------------------------
    def publish(
        self,
        model: Any,
        reason: str = "published",
        parent: Optional[str] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> ModelVersion:
        """Publish a fitted model as the next version and swap ``LATEST``.

        The bundle and manifest are written atomically with checksum
        sidecars *before* the ``LATEST`` pointer moves, so a crash at
        any instant leaves either the previous version live or the new
        version live -- never a half-published one.  Returns the new
        :class:`ModelVersion`.

        Parameters
        ----------
        model:
            The fitted flow to serialise (anything picklable; in this
            repository a :class:`~repro.robust.flow.RobustVminFlow`).
        reason:
            Audit string recorded in the manifest (``published``,
            ``recalibrated``, ...).
        parent:
            Name of the version this one derives from (recalibration
            lineage); validated against the registry when given.
        metadata:
            Free-form JSON-serialisable extras for the manifest.

        Notes
        -----
        The boosting ensembles inside ``model`` are pickled with the
        decision-table kernels their ``fit`` compiled, so a service that
        loads the bundle scores batch-at-once without recompiling.  The
        manifest's ``compiled`` key records the kernels
        (:func:`~repro.serve.compiled.compiled_summary`: one summary per
        ensemble; empty for models without any), making the scoring path
        auditable without unpickling the bundle.
        """
        with self._lock:
            if parent is not None and not (self.versions_dir / parent).is_dir():
                raise RegistryError(
                    f"parent version {parent!r} is not in the registry"
                )
            existing = self.versions()
            number = (
                int(_VERSION_PATTERN.match(existing[-1]).group(1)) + 1
                if existing
                else 1
            )
            name = _version_name(number)
            path = self.versions_dir / name
            path.mkdir(parents=False, exist_ok=False)

            bundle_path = path / _BUNDLE_NAME
            bundle = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
            with atomic_write(bundle_path, "wb") as handle:
                handle.write(bundle)
            write_checksum(bundle_path, hashlib.sha256(bundle).hexdigest())

            manifest = {
                "schema_version": MANIFEST_SCHEMA_VERSION,
                "version": name,
                "reason": str(reason),
                "parent": parent,
                "published_at": time.time(),
                "metadata": dict(metadata) if metadata else {},
                "compiled": compiled_summary(model),
            }
            manifest_path = write_json_atomic(path / _MANIFEST_NAME, manifest)
            write_checksum(manifest_path)

            write_text_atomic(self.root / _LATEST_NAME, name + "\n")
            return ModelVersion(
                name=name, number=number, path=path, manifest=manifest
            )

    # -- verified load ---------------------------------------------------------
    def load(self, name: Optional[str] = None) -> Tuple[Any, ModelVersion]:
        """Load a version, verifying its checksum before unpickling.

        ``name=None`` loads :meth:`latest`.  The bundle is read once and
        the bytes that match the sidecar are the bytes unpickled.  On
        digest mismatch the version is quarantined (moved wholesale
        under ``quarantine/``) and
        :class:`~repro.runtime.artifacts.ArtifactCorruptionError`
        propagates -- an unverified bundle is never deserialised, let
        alone served.  Returns ``(model, ModelVersion)``.
        """
        with self._lock:
            if name is None:
                name = self.latest()
                if name is None:
                    raise RegistryError(
                        f"registry {self.root} has no live LATEST version"
                    )
            record = self.describe(name)
            bundle_path = record.path / _BUNDLE_NAME
            try:
                bundle = read_verified(bundle_path)
            except ArtifactCorruptionError:
                self.quarantine(name)
                raise
            except ArtifactError as error:
                # Missing bundle or sidecar: the version is unusable but
                # not provably tampered -- quarantine it too, with the
                # original error chained for the audit trail.
                self.quarantine(name)
                raise ArtifactCorruptionError(
                    f"{bundle_path}: unverifiable bundle ({error})"
                ) from error
            try:
                model = pickle.loads(bundle)
            except Exception as error:
                # Checksum passed but unpickling failed: the *published*
                # bytes are bad (publisher bug), quarantine equally.
                self.quarantine(name)
                raise ArtifactCorruptionError(
                    f"{bundle_path}: verified bundle failed to deserialise "
                    f"({error})"
                ) from error
            return model, record

    def last_known_good(
        self, exclude: Tuple[str, ...] = ()
    ) -> Optional[str]:
        """Newest version whose bundle still verifies, or ``None``.

        ``exclude`` names versions to skip (e.g. the one that just
        failed to load).  Verification here is read-only: a corrupt
        version encountered during the walk is *not* quarantined, so
        probing for a rollback target never mutates the registry.
        """
        for name in reversed(self.versions()):
            if name in exclude:
                continue
            try:
                verify_artifact(self.versions_dir / name / _BUNDLE_NAME)
            except ArtifactError:
                continue
            return name
        return None

    # -- quarantine ------------------------------------------------------------
    def quarantine(self, name: str) -> Path:
        """Move a version directory into ``quarantine/`` and fix ``LATEST``.

        If the pointer named the quarantined version it is repointed at
        the newest remaining intact version, or removed when none is
        left -- a registry never advertises a version it just declared
        corrupt.  Returns the quarantine destination.
        """
        with self._lock:
            source = self.versions_dir / name
            if not source.is_dir():
                raise RegistryError(f"cannot quarantine unknown version {name!r}")
            destination = self.quarantine_dir / name
            suffix = 1
            while destination.exists():
                destination = self.quarantine_dir / f"{name}.{suffix}"
                suffix += 1
            source.rename(destination)
            pointer = self.root / _LATEST_NAME
            if pointer.exists():
                live = pointer.read_text(encoding="utf-8").strip()
                if live == name:
                    replacement = self.last_known_good()
                    if replacement is not None:
                        write_text_atomic(pointer, replacement + "\n")
                    else:
                        pointer.unlink()
            return destination

    def quarantined(self) -> List[str]:
        """Names currently sitting in ``quarantine/`` (sorted)."""
        return sorted(
            entry.name for entry in self.quarantine_dir.iterdir() if entry.is_dir()
        )
