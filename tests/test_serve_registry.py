"""Tests for the checksum-verified model registry.

The registry accepts any picklable object, so these tests publish small
plain dictionaries -- the verification, quarantine, and pointer
semantics are model-agnostic.
"""

import hashlib
import os
import pickle
from pathlib import Path

import pytest

from repro.runtime.artifacts import (
    ArtifactCorruptionError,
    ArtifactError,
    write_checksum,
)
from repro.serve import (
    MANIFEST_SCHEMA_VERSION,
    ModelRegistry,
    ModelVersion,
    RegistryError,
)


def _corrupt_bundle(registry, name):
    """Flip bytes in a version's bundle without touching its sidecar."""
    bundle = registry.versions_dir / name / "bundle.pkl"
    bundle.write_bytes(b"\x00" * 64 + bundle.read_bytes()[64:])


class TestPublish:
    def test_first_publish_is_v0001_and_latest(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        record = registry.publish({"w": [1.0, 2.0]})
        assert record.name == "v0001" and record.number == 1
        assert registry.versions() == ["v0001"]
        assert registry.latest() == "v0001"
        assert (record.path / "bundle.pkl").exists()
        assert (record.path / "bundle.pkl.sha256").exists()
        assert (record.path / "manifest.json.sha256").exists()

    def test_versions_are_monotonic_and_latest_moves(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish({"gen": 1})
        registry.publish({"gen": 2})
        assert registry.versions() == ["v0001", "v0002"]
        assert registry.latest() == "v0002"
        # The old version's bytes are untouched by the second publish.
        model, record = registry.load("v0001")
        assert model == {"gen": 1} and record.name == "v0001"

    def test_manifest_records_reason_parent_and_metadata(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish({"gen": 1})
        record = registry.publish(
            {"gen": 2},
            reason="recalibrated",
            parent="v0001",
            metadata={"alpha_t": 0.08},
        )
        described = registry.describe(record.name)
        assert isinstance(described, ModelVersion)
        assert described.manifest["schema_version"] == MANIFEST_SCHEMA_VERSION
        assert described.reason == "recalibrated"
        assert described.parent == "v0001"
        assert described.manifest["metadata"] == {"alpha_t": 0.08}

    def test_unknown_parent_is_rejected(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        with pytest.raises(RegistryError, match="parent"):
            registry.publish({}, parent="v0099")

    def test_root_must_be_a_directory(self, tmp_path):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("occupied")
        with pytest.raises(RegistryError, match="not a directory"):
            ModelRegistry(not_a_dir)


def _tampered(bundle):
    """A different, perfectly valid pickle next to ``bundle``."""
    other = bundle.with_name("tampered.pkl")
    other.write_bytes(pickle.dumps({"gen": "tampered"}))
    return other


class TestDurablePublish:
    def test_bundle_is_fsynced_before_its_rename_and_before_latest(
        self, tmp_path, monkeypatch
    ):
        synced, renamed = set(), []
        fsync, replace = os.fsync, os.replace

        def recording_fsync(descriptor):
            synced.add(os.fstat(descriptor).st_ino)
            fsync(descriptor)

        def recording_replace(source, destination):
            renamed.append((Path(destination).name, os.stat(source).st_ino in synced))
            replace(source, destination)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        registry = ModelRegistry(tmp_path)
        registry.publish({"gen": 1})
        names = [name for name, _ in renamed]
        assert dict(renamed)["bundle.pkl"], "bundle renamed before an fsync"
        assert names.index("bundle.pkl") < names.index("LATEST")

    def test_sidecar_digest_is_the_pickled_bytes(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        record = registry.publish({"gen": 1})
        bundle = record.path / "bundle.pkl"
        digest = (record.path / "bundle.pkl.sha256").read_text().split()[0]
        assert digest == hashlib.sha256(bundle.read_bytes()).hexdigest()
        assert pickle.loads(bundle.read_bytes()) == {"gen": 1}


class TestVerifiedLoad:
    def test_load_roundtrips_the_model(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish({"w": [3.0]})
        model, record = registry.load()
        assert model == {"w": [3.0]}
        assert record.name == "v0001"

    def test_corrupt_bundle_is_quarantined_not_served(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish({"gen": 1})
        registry.publish({"gen": 2})
        _corrupt_bundle(registry, "v0002")
        with pytest.raises(ArtifactCorruptionError, match="mismatch"):
            registry.load("v0002")
        assert registry.quarantined() == ["v0002"]
        assert registry.versions() == ["v0001"]
        # LATEST named the corrupt version: it must repoint to the
        # newest surviving intact one, never dangle.
        assert registry.latest() == "v0001"

    def test_missing_sidecar_is_treated_as_corruption(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        record = registry.publish({"gen": 1})
        (record.path / "bundle.pkl.sha256").unlink()
        with pytest.raises(ArtifactCorruptionError, match="unverifiable"):
            registry.load("v0001")
        assert registry.quarantined() == ["v0001"]
        assert registry.latest() is None

    def test_verified_but_unpicklable_bundle_is_quarantined(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        record = registry.publish({"gen": 1})
        bundle = record.path / "bundle.pkl"
        bundle.write_bytes(b"these bytes are not a pickle stream")
        write_checksum(bundle)  # digest agrees, content is garbage
        with pytest.raises(ArtifactCorruptionError, match="deserialise"):
            registry.load("v0001")
        assert registry.quarantined() == ["v0001"]

    def test_bundle_replaced_before_its_read_is_never_deserialised(
        self, tmp_path, monkeypatch
    ):
        """A bundle swapped for other (valid) pickle bytes after its
        sidecar was checked must not be what load unpickles."""
        registry = ModelRegistry(tmp_path)
        record = registry.publish({"gen": 1})
        bundle = record.path / "bundle.pkl"
        read_bytes = Path.read_bytes

        def replaced_then_read(path):
            if path == bundle:
                os.replace(_tampered(path), path)
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", replaced_then_read)
        with pytest.raises(ArtifactCorruptionError, match="mismatch"):
            registry.load("v0001")
        assert registry.quarantined() == ["v0001"]
        assert registry.latest() is None

    def test_unknown_version_is_registry_error(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        with pytest.raises(RegistryError, match="unknown registry version"):
            registry.load("v0042")

    def test_empty_registry_has_no_latest_to_load(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        assert registry.latest() is None
        with pytest.raises(RegistryError, match="no live LATEST"):
            registry.load()

    def test_corrupt_manifest_is_corruption_error(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        record = registry.publish({"gen": 1})
        (record.path / "manifest.json").write_text("{not json")
        with pytest.raises(ArtifactCorruptionError, match="manifest"):
            registry.describe("v0001")


class TestLastKnownGood:
    def test_prefers_newest_intact_version(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish({"gen": 1})
        registry.publish({"gen": 2})
        registry.publish({"gen": 3})
        _corrupt_bundle(registry, "v0003")
        assert registry.last_known_good() == "v0002"
        # The probe is read-only: the corrupt version stays in place.
        assert registry.versions() == ["v0001", "v0002", "v0003"]
        assert registry.quarantined() == []

    def test_exclude_skips_named_versions(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish({"gen": 1})
        registry.publish({"gen": 2})
        assert registry.last_known_good(exclude=("v0002",)) == "v0001"

    def test_all_corrupt_returns_none(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish({"gen": 1})
        _corrupt_bundle(registry, "v0001")
        assert registry.last_known_good() is None


class TestQuarantine:
    def test_unknown_name_is_error(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        with pytest.raises(RegistryError, match="quarantine unknown"):
            registry.quarantine("v0007")

    def test_name_collisions_get_numeric_suffixes(self, tmp_path):
        # Quarantining the only version empties the registry, so the
        # next publish reuses the name -- quarantining *that* one too
        # must not clobber the first piece of evidence.
        registry = ModelRegistry(tmp_path)
        registry.publish({"gen": 1})
        registry.quarantine("v0001")
        assert registry.publish({"gen": 2}).name == "v0001"
        destination = registry.quarantine("v0001")
        assert destination.name == "v0001.1"
        assert registry.quarantined() == ["v0001", "v0001.1"]

    def test_quarantining_non_latest_leaves_pointer_alone(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish({"gen": 1})
        registry.publish({"gen": 2})
        registry.quarantine("v0001")
        assert registry.latest() == "v0002"


class TestErrorHierarchy:
    def test_registry_error_keeps_cli_exit_mapping(self):
        # The CLI maps ValueError to exit 2; both artifact error types
        # must stay inside that hierarchy.
        assert issubclass(RegistryError, ArtifactError)
        assert issubclass(ArtifactCorruptionError, ArtifactError)
        assert issubclass(ArtifactError, ValueError)

    def test_published_bundle_is_plain_pickle(self, tmp_path):
        # The on-disk format is inspectable: no wrapper framing beyond
        # pickle itself, so ops tooling can examine a quarantined bundle.
        registry = ModelRegistry(tmp_path)
        record = registry.publish({"inspect": True})
        raw = (record.path / "bundle.pkl").read_bytes()
        assert pickle.loads(raw) == {"inspect": True}
