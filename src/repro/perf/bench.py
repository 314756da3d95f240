"""Benchmark recording with machine-readable JSON baselines.

The repo's perf trajectory lives in ``BENCH_training.json`` files: each
benchmark run times its stages with :func:`time_call`, records them in a
:class:`BenchRecorder`, and writes one JSON report.  CI uploads the
report as an artifact; future commits compare against a stored baseline
with :func:`regressions` instead of eyeballing wall-clock logs.

Report schema (``schema_version`` 1)::

    {
      "schema_version": 1,
      "benchmark": "training",
      "profile": "fast",            # REPRO_BENCH profile the run used
      "n_jobs": 4,                  # grid worker processes
      "git_sha": "abc123" | null,   # passed in by CI via REPRO_GIT_SHA
      "timings": {name: {"wall_s": float, "repeats": int, ...meta}},
      "speedups": {name: float},    # named baseline/candidate ratios
      "checks": {name: bool}        # e.g. serial-vs-parallel parity
    }

Wall times are measured with ``time.perf_counter``; everything else in
the report is deterministic, so two runs of the same commit differ only
in the ``wall_s`` values.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, TypeVar

from repro.runtime.artifacts import write_text_atomic

__all__ = [
    "BenchRecorder",
    "BenchTiming",
    "load_report",
    "peak_rss_mb",
    "regressions",
    "time_call",
]

R = TypeVar("R")

SCHEMA_VERSION = 1


def time_call(fn: Callable[[], R], repeats: int = 1) -> Tuple[R, float]:
    """Run ``fn`` ``repeats`` times; return (last result, best wall time).

    Best-of-N is the standard defence against scheduler noise: the
    minimum is the least-contended observation of the same deterministic
    work.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    best = float("inf")
    result: R
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return result, best


def _git_sha_fallback() -> Optional[str]:
    """Current commit from ``git rev-parse HEAD``; ``None`` off a checkout.

    The fallback behind ``REPRO_GIT_SHA``: a locally regenerated BENCH
    report should still say which commit produced it instead of
    committing ``"git_sha": null``.  Every failure mode (no git binary,
    not a repository, timeout) degrades to ``None``.
    """
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10.0,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    sha = completed.stdout.strip()
    return sha or None


def peak_rss_mb() -> Optional[float]:
    """Peak resident-set size of this process tree so far, in MiB.

    Reads ``getrusage`` high-water marks for the process itself and its
    waited-for children (the grid's worker processes) and returns
    the larger -- the honest answer to "how much memory did this stage
    need".  ``None`` where the :mod:`resource` module is unavailable
    (non-POSIX platforms); benchmarks record it as metadata only.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak = max(own, children)
    # ru_maxrss is kilobytes on Linux but bytes on macOS.
    divisor = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return round(peak / divisor, 2)


class BenchTiming:
    """One named timing entry plus free-form metadata."""

    def __init__(self, name: str, wall_s: float, repeats: int = 1, **meta: Any) -> None:
        if wall_s < 0:
            raise ValueError(f"wall_s must be >= 0, got {wall_s}")
        self.name = name
        self.wall_s = float(wall_s)
        self.repeats = int(repeats)
        self.meta = dict(meta)

    def as_dict(self) -> Dict[str, Any]:
        entry: Dict[str, Any] = {"wall_s": self.wall_s, "repeats": self.repeats}
        entry.update(self.meta)
        return entry


class BenchRecorder:
    """Accumulate timings/speedups/checks and serialise one JSON report.

    Parameters
    ----------
    benchmark:
        Report family name (``"training"`` for the training-engine
        suite); becomes part of the file schema, not the file name.
    profile:
        The ``REPRO_BENCH`` profile the run used (smoke/fast/full).
    n_jobs:
        The resolved worker count the parallel sections ran with.
    git_sha:
        Commit identifier; ``None`` reads the ``REPRO_GIT_SHA``
        environment variable (set by CI) and, when that is unset too,
        falls back to ``git rev-parse HEAD`` -- so locally regenerated
        reports are attributable to a commit.  Stays ``None`` only off
        a git checkout.
    """

    def __init__(
        self,
        benchmark: str,
        profile: str,
        n_jobs: int = 1,
        git_sha: Optional[str] = None,
    ) -> None:
        self.benchmark = benchmark
        self.profile = profile
        self.n_jobs = int(n_jobs)
        if git_sha is None:
            git_sha = os.environ.get("REPRO_GIT_SHA") or _git_sha_fallback()
        self.git_sha = git_sha
        self._timings: Dict[str, BenchTiming] = {}
        self._speedups: Dict[str, float] = {}
        self._checks: Dict[str, bool] = {}

    def record(self, name: str, wall_s: float, repeats: int = 1, **meta: Any) -> None:
        """Store one timing entry (overwrites an earlier same-name entry)."""
        self._timings[name] = BenchTiming(name, wall_s, repeats=repeats, **meta)

    def timed(self, name: str, fn: Callable[[], R], repeats: int = 1, **meta: Any) -> R:
        """Time ``fn`` with :func:`time_call` and record it under ``name``."""
        result, wall_s = time_call(fn, repeats=repeats)
        self.record(name, wall_s, repeats=repeats, **meta)
        return result

    def wall_s(self, name: str) -> float:
        """Recorded wall time for ``name`` (KeyError when missing)."""
        return self._timings[name].wall_s

    def speedup(self, name: str, baseline: str, candidate: str) -> float:
        """Record and return ``wall(baseline) / wall(candidate)``.

        A zero-duration candidate (clock resolution) reports ``inf`` --
        honest, and impossible for the real workloads this times.
        """
        base = self.wall_s(baseline)
        cand = self.wall_s(candidate)
        ratio = float("inf") if cand == 0 else base / cand
        self._speedups[name] = ratio
        return ratio

    def check(self, name: str, passed: bool) -> None:
        """Record a named boolean invariant (e.g. parallel == serial)."""
        self._checks[name] = bool(passed)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "benchmark": self.benchmark,
            "profile": self.profile,
            "n_jobs": self.n_jobs,
            "git_sha": self.git_sha,
            "timings": {
                name: timing.as_dict() for name, timing in sorted(self._timings.items())
            },
            "speedups": dict(sorted(self._speedups.items())),
            "checks": dict(sorted(self._checks.items())),
        }

    def write(self, path: "str | Path") -> Path:
        """Serialise the report to ``path`` (parent dirs created).

        The write is atomic (temp file + rename via
        :mod:`repro.runtime.artifacts`): CI artifact uploads never race
        against a half-written report.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        return write_text_atomic(
            path, json.dumps(self.as_dict(), indent=2, sort_keys=False) + "\n"
        )


def load_report(path: "str | Path") -> Dict[str, Any]:
    """Load and validate a benchmark JSON report.

    Corrupt or truncated files raise a ``ValueError`` naming the path
    -- the reader never surfaces a raw ``JSONDecodeError`` from a
    torn artifact.
    """
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise ValueError(
            f"{path} is truncated or corrupt ({error}); benchmark reports "
            "are written atomically, so this file came from another writer"
        ) from error
    if not isinstance(data, dict) or "timings" not in data:
        raise ValueError(f"{path} is not a benchmark report (no 'timings' key)")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path} has schema_version {version!r}; this reader supports "
            f"{SCHEMA_VERSION}"
        )
    return data


def regressions(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    threshold: float = 1.5,
) -> Dict[str, Tuple[float, float]]:
    """Timings that got slower than ``threshold`` x the baseline.

    Returns ``{name: (baseline_wall_s, current_wall_s)}`` for every stage
    present in both reports whose current wall time exceeds
    ``threshold * baseline``.  Stages unique to either side are ignored
    -- adding a benchmark must not fail the comparison.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    flagged: Dict[str, Tuple[float, float]] = {}
    base_timings = baseline.get("timings", {})
    for name, entry in current.get("timings", {}).items():
        if name not in base_timings:
            continue
        base_wall = float(base_timings[name]["wall_s"])
        cur_wall = float(entry["wall_s"])
        if cur_wall > threshold * base_wall:
            flagged[name] = (base_wall, cur_wall)
    return flagged
