"""Compare a benchmark run's ``fingerprint`` line with the committed one.

``perfbench/run.py`` prints one ``fingerprint {...}`` line per run: the
run's served outputs (coverage, width, counts).  At a fixed seed the
line repeats exactly, so a change that moves a served float shows up
here even when every other check of the run passes.  The expected
lines live in ``benchmarks/results/fingerprints.seed1.json``, one object
per workload, written from ``--seed 1 --seconds 1 --trace 0`` runs::

    python3 perfbench/run.py --workload serve_wafer --seed 1 --seconds 1 \\
        --trace 0 | tee serve_wafer.txt
    python3 benchmarks/check_fingerprint.py serve_wafer serve_wafer.txt

Integers (and booleans) must match exactly, floats within a relative
1e-9.  Exit code 0 means the line matches, 1 that it differs (each
differing key is printed), 2 that the output holds no fingerprint line
or the workload has no committed entry.  A change that moves served
outputs on purpose updates the committed file with it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "results" / "fingerprints.seed1.json"
PREFIX = "fingerprint "
REL_TOL = 1e-9


def read_fingerprint(text: str) -> dict:
    """The last ``fingerprint {...}`` object in a run's output."""
    lines = [
        line.strip()[len(PREFIX):]
        for line in text.splitlines()
        if line.strip().startswith(PREFIX)
    ]
    if not lines:
        raise ValueError("no fingerprint line in the run's output")
    return json.loads(lines[-1])


def differences(expected: dict, actual: dict) -> list:
    """One line per key whose value does not match."""
    found = []
    for key in sorted(set(expected) | set(actual)):
        want, got = expected.get(key), actual.get(key)
        if key not in actual or key not in expected:
            found.append(f"{key}: expected {want!r}, got {got!r}")
        elif isinstance(want, float) and isinstance(got, float):
            if not math.isclose(want, got, rel_tol=REL_TOL, abs_tol=0.0):
                found.append(f"{key}: expected {want!r}, got {got!r}")
        elif type(want) is not type(got) or want != got:
            found.append(f"{key}: expected {want!r}, got {got!r}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", help="workload name, e.g. serve_wafer")
    parser.add_argument("output", type=Path, help="file holding the run's stdout")
    args = parser.parse_args(argv)
    try:
        committed = json.loads(EXPECTED.read_text(encoding="utf-8"))
        expected = committed[args.workload]
        actual = read_fingerprint(args.output.read_text(encoding="utf-8"))
    except (OSError, ValueError, KeyError) as error:
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return 2
    found = differences(expected, actual)
    for line in found:
        print(f"{args.workload} fingerprint differs: {line}")
    if found:
        print(f"update {EXPECTED} only if the change moves outputs on purpose")
        return 1
    print(f"{args.workload} fingerprint matches {EXPECTED.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
