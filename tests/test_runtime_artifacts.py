"""Tests for atomic artifact I/O and checksums (repro.runtime.artifacts)."""

from __future__ import annotations

import json
import os

import pytest

from repro.runtime.artifacts import (
    ArtifactCorruptionError,
    ArtifactError,
    atomic_path,
    atomic_write,
    file_checksum,
    read_verified,
    verify_artifact,
    write_checksum,
    write_json_atomic,
    write_text_atomic,
)


class TestAtomicPath:
    def test_success_renames_into_place(self, tmp_path):
        target = tmp_path / "out.txt"
        with atomic_path(target) as tmp:
            tmp.write_text("content")
            assert tmp.parent == target.parent  # same filesystem
        assert target.read_text() == "content"

    def test_failure_leaves_previous_content(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_path(target) as tmp:
                tmp.write_text("new half-writ")
                raise RuntimeError("crash mid-write")
        assert target.read_text() == "old"

    def test_failure_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "out.txt"
        with pytest.raises(RuntimeError):
            with atomic_path(target):
                raise RuntimeError("crash")
        assert list(tmp_path.iterdir()) == []

    def test_suffix_override(self, tmp_path):
        with atomic_path(tmp_path / "lot", suffix=".npz") as tmp:
            assert tmp.suffix == ".npz"
            tmp.write_bytes(b"x")
        assert (tmp_path / "lot").exists()

    def test_missing_parent_directory_raises(self, tmp_path):
        with pytest.raises(OSError):
            with atomic_path(tmp_path / "no" / "such" / "dir" / "f.txt"):
                pass  # pragma: no cover - mkstemp fails first


class TestAtomicWrite:
    def test_text_write(self, tmp_path):
        target = tmp_path / "report.txt"
        with atomic_write(target) as handle:
            handle.write("hello")
        assert target.read_text() == "hello"

    def test_binary_write(self, tmp_path):
        target = tmp_path / "blob.bin"
        with atomic_write(target, "wb") as handle:
            handle.write(b"\x00\x01")
        assert target.read_bytes() == b"\x00\x01"

    @pytest.mark.parametrize("mode", ["r", "a", "r+", "w+"])
    def test_read_append_modes_rejected(self, tmp_path, mode):
        with pytest.raises(ValueError, match="fresh writes"):
            with atomic_write(tmp_path / "x", mode):
                pass  # pragma: no cover - rejected before opening

    def test_failure_keeps_destination_absent(self, tmp_path):
        target = tmp_path / "out.txt"
        with pytest.raises(RuntimeError):
            with atomic_write(target) as handle:
                handle.write("partial")
                raise RuntimeError("crash")
        assert not target.exists()


class TestTextAndJsonHelpers:
    def test_write_text_atomic(self, tmp_path):
        path = write_text_atomic(tmp_path / "t.txt", "abc\n")
        assert path.read_text() == "abc\n"

    def test_write_json_atomic_is_byte_stable(self, tmp_path):
        a = write_json_atomic(tmp_path / "a.json", {"b": 1, "a": [0.1, 2]})
        b = write_json_atomic(tmp_path / "b.json", {"a": [0.1, 2], "b": 1})
        assert a.read_bytes() == b.read_bytes()  # sorted keys

    def test_json_floats_round_trip(self, tmp_path):
        value = {"x": 0.1 + 0.2}
        path = write_json_atomic(tmp_path / "v.json", value)
        assert json.loads(path.read_text()) == value


class TestChecksums:
    def test_file_checksum_is_content_hash(self, tmp_path):
        one = tmp_path / "one.txt"
        two = tmp_path / "two.txt"
        one.write_text("same")
        two.write_text("same")
        assert file_checksum(one) == file_checksum(two)

    def test_sidecar_format(self, tmp_path):
        target = write_text_atomic(tmp_path / "artifact.json", "{}\n")
        sidecar = write_checksum(target)
        assert sidecar.name == "artifact.json.sha256"
        digest, name = sidecar.read_text().split()
        assert len(digest) == 64 and name == "artifact.json"

    def test_verify_against_sidecar(self, tmp_path):
        target = write_text_atomic(tmp_path / "a.txt", "payload")
        write_checksum(target)
        assert verify_artifact(target) == file_checksum(target)

    def test_verify_detects_tampering(self, tmp_path):
        target = write_text_atomic(tmp_path / "a.txt", "payload")
        write_checksum(target)
        target.write_text("tampered")
        with pytest.raises(ArtifactError, match="mismatch"):
            verify_artifact(target)

    def test_verify_without_sidecar_raises(self, tmp_path):
        target = write_text_atomic(tmp_path / "a.txt", "payload")
        with pytest.raises(ArtifactError, match="sidecar"):
            verify_artifact(target)

    def test_verify_against_explicit_digest(self, tmp_path):
        target = write_text_atomic(tmp_path / "a.txt", "payload")
        digest = file_checksum(target)
        write_checksum(target, digest=digest)
        assert verify_artifact(target) == digest
        write_checksum(target, digest="0" * 64)
        with pytest.raises(ArtifactError, match="mismatch"):
            verify_artifact(target)

    def test_read_verified_returns_the_checked_bytes(self, tmp_path):
        target = write_text_atomic(tmp_path / "a.txt", "payload")
        write_checksum(target)
        assert read_verified(target) == b"payload"
        target.write_text("tampered")
        with pytest.raises(ArtifactCorruptionError, match="mismatch"):
            read_verified(target)
        write_checksum(target).unlink()
        with pytest.raises(ArtifactError, match="sidecar") as excinfo:
            read_verified(target)
        assert not isinstance(excinfo.value, ArtifactCorruptionError)


class TestCorruptionTaxonomy:
    """The split between *unverifiable* and *provably corrupt* artifacts.

    The model registry keys its quarantine decision on this hierarchy,
    and the CLI keys exit code 2 on the ``ValueError`` root.
    """

    def test_corruption_error_is_an_artifact_error(self):
        assert issubclass(ArtifactCorruptionError, ArtifactError)
        assert issubclass(ArtifactError, ValueError)

    def test_tampering_raises_the_corruption_subtype(self, tmp_path):
        target = write_text_atomic(tmp_path / "a.txt", "payload")
        write_checksum(target)
        target.write_text("tampered")
        with pytest.raises(ArtifactCorruptionError, match="mismatch"):
            verify_artifact(target)

    def test_unparsable_sidecar_is_corruption(self, tmp_path):
        target = write_text_atomic(tmp_path / "a.txt", "payload")
        sidecar = write_checksum(target)
        sidecar.write_text("not-a-digest\n")
        with pytest.raises(ArtifactCorruptionError, match="unparsable"):
            verify_artifact(target)

    def test_missing_sidecar_is_not_corruption(self, tmp_path):
        # Absence of evidence is weaker than evidence of tampering:
        # a missing sidecar must stay the plain (retry-worthy) error.
        target = write_text_atomic(tmp_path / "a.txt", "payload")
        with pytest.raises(ArtifactError, match="sidecar") as excinfo:
            verify_artifact(target)
        assert not isinstance(excinfo.value, ArtifactCorruptionError)

    def test_explicit_digest_mismatch_is_corruption(self, tmp_path):
        target = write_text_atomic(tmp_path / "a.txt", "payload")
        write_checksum(target, digest="0" * 64)
        with pytest.raises(ArtifactCorruptionError):
            verify_artifact(target)


class TestDurability:
    def test_fsync_called_before_rename(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
        )
        write_text_atomic(tmp_path / "d.txt", "durable")
        assert synced  # at least one fsync on the temp handle
