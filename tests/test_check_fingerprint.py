"""The CI check that holds each benchmark run to its committed fingerprint."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "check_fingerprint.py"


@pytest.fixture(scope="module")
def check():
    spec = importlib.util.spec_from_file_location("check_fingerprint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(check, tmp_path, fingerprint, workload="serve_wafer"):
    output = tmp_path / "run.txt"
    output.write_text(
        f"{workload} seed=1: 3 units in 1.00 s\n"
        f"  fingerprint {json.dumps(fingerprint, sort_keys=True)}\n"
        '{"correct": true}\n'
    )
    return check.main([workload, str(output)])


def test_committed_file_covers_every_workload(check):
    committed = json.loads(check.EXPECTED.read_text())
    assert sorted(committed) == ["serve_feedback", "serve_wafer", "table3_grid"]


def test_the_committed_line_matches(check, tmp_path):
    committed = json.loads(check.EXPECTED.read_text())
    for workload, fingerprint in committed.items():
        assert _run(check, tmp_path, fingerprint, workload) == 0


@pytest.mark.parametrize(
    "move, status",
    [
        (lambda f: {**f, "coverage": f["coverage"] * (1 + 1e-12)}, 0),
        (lambda f: {**f, "coverage": f["coverage"] * (1 + 1e-6)}, 1),
        (lambda f: {**f, "chips": f["chips"] + 1}, 1),
        (lambda f: {**f, "chips": float(f["chips"])}, 1),
        (lambda f: {**f, "extra": 0}, 1),
    ],
    ids=["float-within-1e-9", "float-moved", "int-moved", "int-became-float", "new-key"],
)
def test_tolerance_and_types(check, tmp_path, move, status):
    committed = json.loads(check.EXPECTED.read_text())["serve_wafer"]
    assert _run(check, tmp_path, move(committed)) == status


def test_missing_line_or_workload_is_an_error(check, tmp_path):
    output = tmp_path / "run.txt"
    output.write_text("no fingerprint here\n")
    assert check.main(["serve_wafer", str(output)]) == 2
    committed = json.loads(check.EXPECTED.read_text())["serve_wafer"]
    assert _run(check, tmp_path, committed, workload="no_such_workload") == 2
