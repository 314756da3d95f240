"""Tests for the append-only run journal (repro.runtime.checkpoint)."""

from __future__ import annotations

import json

import pytest

from repro.runtime.checkpoint import (
    JOURNAL_SCHEMA_VERSION,
    JournalError,
    RunJournal,
    canonical_json,
    cell_fingerprint,
)


class TestCanonicalJson:
    def test_key_order_is_irrelevant(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_floats_round_trip_exactly(self):
        value = 0.1 + 0.2  # classic non-representable sum
        assert json.loads(canonical_json({"x": value}))["x"] == value


class TestCellFingerprint:
    def test_stable_across_insertion_order(self):
        a = cell_fingerprint({"model": "LR", "alpha": 0.1, "seed": 0})
        b = cell_fingerprint({"seed": 0, "alpha": 0.1, "model": "LR"})
        assert a == b

    def test_any_field_change_changes_the_fingerprint(self):
        base = {"model": "LR", "alpha": 0.1, "seed": 0, "git_sha": "abc"}
        reference = cell_fingerprint(base)
        for key, value in [
            ("model", "GP"),
            ("alpha", 0.2),
            ("seed", 1),
            ("git_sha", "def"),
        ]:
            assert cell_fingerprint({**base, key: value}) != reference

    def test_empty_fields_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            cell_fingerprint({})


class TestRunJournal:
    def test_missing_file_means_nothing_completed(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        assert journal.completed() == {}
        assert len(journal) == 0

    def test_record_and_read_back(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl", meta={"kind": "point"})
        journal.record("fp1", ["LR", 25.0, 0], {"r2": [0.9, 0.8]})
        journal.record("fp2", ["GP", 25.0, 0], {"r2": [0.7, 0.6]})

        reread = RunJournal(tmp_path / "run.jsonl")
        completed = reread.completed()
        assert set(completed) == {"fp1", "fp2"}
        assert completed["fp1"]["payload"] == {"r2": [0.9, 0.8]}
        assert completed["fp1"]["key"] == ["LR", 25.0, 0]
        header = json.loads((tmp_path / "run.jsonl").read_text().splitlines()[0])
        assert header["meta"] == {"kind": "point"}

    def test_header_written_once(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path, meta={})
        journal.record("fp1", [], {})
        journal.record("fp2", [], {})
        lines = path.read_text().splitlines()
        headers = [line for line in lines if '"header"' in line]
        assert len(headers) == 1 and lines[0] == headers[0]
        assert json.loads(lines[0])["schema_version"] == JOURNAL_SCHEMA_VERSION

    def test_payload_floats_survive_bit_exactly(self, tmp_path):
        values = [0.1 + 0.2, 1e-300, 123456.789e-7]
        journal = RunJournal(tmp_path / "run.jsonl")
        journal.record("fp", ["cell"], {"folds": values})
        loaded = RunJournal(tmp_path / "run.jsonl").completed()
        assert loaded["fp"]["payload"]["folds"] == values  # exact, not approx

    def test_truncated_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.record("fp1", [], {"v": 1})
        journal.record("fp2", [], {"v": 2})
        content = path.read_text()
        path.write_text(content[:-15])  # sever the last line mid-JSON

        completed = RunJournal(path).completed()
        assert set(completed) == {"fp1"}  # the torn cell is simply redone

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.record("fp1", [], {"v": 1})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("%% not json %%\n")
        journal.record("fp2", [], {"v": 2})
        with pytest.raises(JournalError, match="corrupt"):
            RunJournal(path).completed()

    def test_wrong_schema_version_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            json.dumps({"kind": "header", "schema_version": 999, "meta": {}})
            + "\n"
        )
        with pytest.raises(JournalError, match="schema_version"):
            RunJournal(path).completed()

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            json.dumps({"kind": "cell", "fingerprint": "fp", "payload": {}})
            + "\n"
        )
        with pytest.raises(JournalError, match="header"):
            RunJournal(path).completed()

    def test_duplicate_fingerprints_last_wins(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        journal.record("fp", [], {"v": 1})
        journal.record("fp", [], {"v": 2})
        assert journal.completed()["fp"]["payload"] == {"v": 2}

    def test_empty_fingerprint_rejected(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        with pytest.raises(ValueError, match="fingerprint"):
            journal.record("", [], {})
