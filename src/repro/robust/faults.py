"""Seeded, composable fault injectors for on-chip monitor data.

On a real test floor the feature matrix handed to the Vmin predictor is
not the clean block of Table II: ring-oscillator sensors die and read
NaN, ADC channels stick at their last code, aging drifts every monitor
past the distribution the calibration split saw, a mis-soldered thermal
head shifts whole chips, telemetry packets drop.  This module models
those failure mechanisms as small, seeded transforms on a feature
matrix so the serving stack (:mod:`repro.robust.flow`) and the stress
harness (:mod:`repro.eval.stress`) can be exercised against each one at
controlled severity.

Every injector is pure with respect to its input: ``inject`` copies the
matrix, applies the fault, and returns the copy.  Faults compose -- the
output of one injector is a legal input to the next -- and a
:class:`FaultScenario` bundles an ordered list of injectors with a seed
so the same corrupted matrix is reproduced run over run.
:class:`FaultCampaign` declares a severity sweep over the whole fault
taxonomy.

Alongside the *data* faults, this module carries the *execution* faults
targeting the :mod:`repro.runtime` taxonomy: :class:`TaskCrashFault`
(workers raising :class:`~repro.runtime.retry.TransientFault`) and
:class:`TaskHangFault` (workers spinning until the cooperative
watchdog deadline fires).  They wrap the per-cell callable of an
experiment grid, which is how
:func:`repro.eval.stress.run_execution_campaign` proves that crashed
and hung grid cells are recovered via retry/requeue.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.models.base import check_random_state
from repro.runtime.retry import TransientFault
from repro.runtime.watchdog import TaskTimeout, check_deadline

__all__ = [
    "AgingDrift",
    "DeadSensors",
    "ExecutionFault",
    "FaultCampaign",
    "FaultInjector",
    "FaultScenario",
    "NoiseBurst",
    "RowDropout",
    "StuckSensors",
    "TaskCrashFault",
    "TaskHangFault",
    "TemperatureOffset",
    "column_scales",
]


def column_scales(X: np.ndarray) -> np.ndarray:
    """Per-column standard deviation over the *finite* entries of ``X``.

    Columns with fewer than two finite entries get scale 0 -- an injector
    scaling its perturbation by the column spread then leaves them
    untouched instead of producing NaN arithmetic.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    finite = np.isfinite(X)
    count = finite.sum(axis=0)
    safe = np.where(finite, X, 0.0)
    total = safe.sum(axis=0)
    mean = np.where(count > 0, total / np.maximum(count, 1), 0.0)
    sq = np.where(finite, (X - mean) ** 2, 0.0).sum(axis=0)
    variance = np.where(count > 1, sq / np.maximum(count - 1, 1), 0.0)
    return np.sqrt(variance)


def _validate_fraction(value: float, name: str) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return float(value)


def _pick(n: int, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Sample ``ceil(fraction * n)`` distinct indices (at least one when
    ``fraction > 0``)."""
    if fraction <= 0.0:
        return np.empty(0, dtype=np.int64)
    k = min(n, max(1, int(np.ceil(fraction * n))))
    return np.sort(rng.choice(n, size=k, replace=False))


class FaultInjector:
    """Base class for seeded faults on a feature matrix.

    Subclasses implement :meth:`inject`, which must copy its input and
    may draw from the supplied generator; they never mutate the caller's
    array or hold hidden state, so injectors are freely reusable across
    scenarios and severities.
    """

    def inject(
        self, X: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:  # pragma: no cover - abstract
        """Return a corrupted copy of ``X``."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human-readable description of the fault."""
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(vars(self).items()))
        return f"{type(self).__name__}({params})"

    def __repr__(self) -> str:
        return self.describe()

    def _columns(
        self,
        X: np.ndarray,
        fraction: float,
        columns: Optional[Sequence[int]],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Resolve the affected column set: explicit list or seeded draw."""
        if columns is not None:
            cols = np.asarray(list(columns), dtype=np.int64)
            if cols.size and (cols.min() < 0 or cols.max() >= X.shape[1]):
                raise ValueError(
                    f"column indices must be in [0, {X.shape[1]}), got {cols}"
                )
            if fraction >= 1.0:
                return cols
            return cols[_pick(cols.size, fraction, rng)]
        return _pick(X.shape[1], fraction, rng)


class DeadSensors(FaultInjector):
    """A fraction of sensors stops reporting: their columns become NaN.

    This is the canonical dead-ROD failure -- the scan chain returns no
    count, the acquisition layer records NaN for every chip.
    """

    def __init__(self, fraction: float, columns: Optional[Sequence[int]] = None) -> None:
        self.fraction = _validate_fraction(fraction, "fraction")
        self.columns = tuple(columns) if columns is not None else None

    def inject(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """NaN out the affected columns."""
        out = np.array(X, dtype=np.float64, copy=True)
        cols = self._columns(out, self.fraction, self.columns, rng)
        out[:, cols] = np.nan
        return out


class StuckSensors(FaultInjector):
    """A fraction of sensors freezes at one value for every chip.

    The stuck value is a plausible last-good reading: the column value of
    one seeded chip.  Unlike :class:`DeadSensors` the column stays finite,
    so only a batch-level variance check can catch it -- exactly the gap
    :class:`repro.robust.FeatureHealthGuard` exists to close.
    """

    def __init__(self, fraction: float, columns: Optional[Sequence[int]] = None) -> None:
        self.fraction = _validate_fraction(fraction, "fraction")
        self.columns = tuple(columns) if columns is not None else None

    def inject(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Freeze the affected columns at one seeded row's reading."""
        out = np.array(X, dtype=np.float64, copy=True)
        cols = self._columns(out, self.fraction, self.columns, rng)
        if cols.size:
            row = int(rng.integers(0, out.shape[0]))
            out[:, cols] = out[row, cols]
        return out


class AgingDrift(FaultInjector):
    """Additive per-column drift scaled by the column's own spread.

    Models BTI/HCI-style aging moving the whole monitor population:
    every affected column shifts by ``shift_scale`` column standard
    deviations.  ``shift_scale`` may be negative (frequency-style
    monitors age downward).
    """

    def __init__(
        self,
        shift_scale: float,
        fraction: float = 1.0,
        columns: Optional[Sequence[int]] = None,
    ) -> None:
        if not np.isfinite(shift_scale):
            raise ValueError(f"shift_scale must be finite, got {shift_scale}")
        self.shift_scale = float(shift_scale)
        self.fraction = _validate_fraction(fraction, "fraction")
        self.columns = tuple(columns) if columns is not None else None

    def inject(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Shift the affected columns by ``shift_scale`` column stds."""
        out = np.array(X, dtype=np.float64, copy=True)
        cols = self._columns(out, self.fraction, self.columns, rng)
        if cols.size:
            scales = column_scales(out)[cols]
            out[:, cols] = out[:, cols] + self.shift_scale * scales
        return out


class TemperatureOffset(FaultInjector):
    """A common-mode shift on a subset of *chips* (rows).

    Models an environmental fault -- a thermal head off-target, a batch
    measured at the wrong soak temperature: every monitor of an affected
    chip reads offset by ``offset_scale`` column standard deviations.
    """

    def __init__(self, offset_scale: float, row_fraction: float = 1.0) -> None:
        if not np.isfinite(offset_scale):
            raise ValueError(f"offset_scale must be finite, got {offset_scale}")
        self.offset_scale = float(offset_scale)
        self.row_fraction = _validate_fraction(row_fraction, "row_fraction")

    def inject(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Offset every column of the affected rows."""
        out = np.array(X, dtype=np.float64, copy=True)
        rows = _pick(out.shape[0], self.row_fraction, rng)
        if rows.size:
            out[rows, :] = out[rows, :] + self.offset_scale * column_scales(out)
        return out


class NoiseBurst(FaultInjector):
    """Gaussian read noise on a subset of chips.

    Models a noisy measurement window (supply glitch during monitor
    readout): affected rows get zero-mean noise with standard deviation
    ``noise_scale`` times the column spread.
    """

    def __init__(self, noise_scale: float, row_fraction: float = 0.1) -> None:
        if not np.isfinite(noise_scale) or noise_scale < 0:
            raise ValueError(f"noise_scale must be >= 0, got {noise_scale}")
        self.noise_scale = float(noise_scale)
        self.row_fraction = _validate_fraction(row_fraction, "row_fraction")

    def inject(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Add seeded Gaussian noise to the affected rows."""
        out = np.array(X, dtype=np.float64, copy=True)
        rows = _pick(out.shape[0], self.row_fraction, rng)
        if rows.size and self.noise_scale > 0:
            scales = column_scales(out)
            noise = rng.normal(size=(rows.size, out.shape[1])) * scales
            out[rows, :] = out[rows, :] + self.noise_scale * noise
        return out


class RowDropout(FaultInjector):
    """Whole telemetry records lost: affected rows become all-NaN.

    Models dropped in-field telemetry packets; the serving stack must
    still return *an* interval for those chips (imputed, heavily
    inflated) rather than crash the batch.
    """

    def __init__(self, fraction: float) -> None:
        self.fraction = _validate_fraction(fraction, "fraction")

    def inject(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """NaN out the affected rows."""
        out = np.array(X, dtype=np.float64, copy=True)
        rows = _pick(out.shape[0], self.fraction, rng)
        out[rows, :] = np.nan
        return out


@dataclass(frozen=True)
class FaultScenario:
    """A named, seeded, ordered composition of fault injectors.

    ``severity`` is free-form metadata (the knob the campaign swept);
    the injectors themselves carry the actual parameters.
    """

    name: str
    injectors: Tuple[FaultInjector, ...]
    severity: float = 0.0
    seed: int = 0

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Run every injector in order on a copy of ``X``.

        A fresh generator is derived from ``seed`` each call, so the same
        scenario corrupts the same matrix identically every time.
        """
        rng = check_random_state(self.seed)
        out = np.array(X, dtype=np.float64, copy=True)
        if out.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {out.shape}")
        for injector in self.injectors:
            out = injector.inject(out, rng)
        return out

    def describe(self) -> str:
        """Human-readable scenario summary."""
        chain = " -> ".join(i.describe() for i in self.injectors)
        return f"{self.name} (severity {self.severity:g}): {chain}"


@dataclass(frozen=True)
class FaultCampaign:
    """A declarative severity sweep across the fault taxonomy.

    A campaign is just an ordered tuple of :class:`FaultScenario`; the
    :meth:`standard` constructor builds the default grid -- one scenario
    per (fault kind, severity) cell with deterministic per-scenario
    seeds -- which is what the stress harness, the CI smoke job, and the
    robustness benchmark all run.
    """

    scenarios: Tuple[FaultScenario, ...] = field(default_factory=tuple)

    def __iter__(self) -> Iterator[FaultScenario]:
        return iter(self.scenarios)

    def __len__(self) -> int:
        return len(self.scenarios)

    @classmethod
    def standard(
        cls,
        severities: Sequence[float] = (0.05, 0.1, 0.2),
        columns: Optional[Sequence[int]] = None,
        seed: int = 0,
    ) -> "FaultCampaign":
        """The default sweep: every fault kind at every severity.

        Parameters
        ----------
        severities:
            Interpreted per kind: affected-column/row fraction for
            dead/stuck/dropout faults, perturbation scale (in column
            stds) for drift/offset/noise faults.
        columns:
            Restrict column-targeting faults (dead, stuck, drift) to
            these indices -- e.g. the on-chip monitor block only.
        seed:
            Base seed; scenario ``i`` uses ``seed + i`` so adding a
            severity does not reshuffle earlier scenarios.
        """
        scenarios = []
        for severity in severities:
            severity = float(severity)
            if not 0.0 <= severity:
                raise ValueError(f"severities must be >= 0, got {severity}")
            kinds = (
                ("dead_sensors", (DeadSensors(min(severity, 1.0), columns=columns),)),
                ("stuck_sensors", (StuckSensors(min(severity, 1.0), columns=columns),)),
                (
                    "aging_drift",
                    (AgingDrift(2.0 * severity, fraction=1.0, columns=columns),),
                ),
                (
                    "temperature_offset",
                    (TemperatureOffset(2.0 * severity, row_fraction=0.5),),
                ),
                ("noise_burst", (NoiseBurst(2.0 * severity, row_fraction=0.25),)),
                ("row_dropout", (RowDropout(min(severity, 0.5)),)),
            )
            scenarios.extend(
                FaultScenario(
                    name=name,
                    injectors=injectors,
                    severity=severity,
                    seed=seed + len(scenarios),
                )
                for name, injectors in kinds
            )
        return cls(scenarios=tuple(scenarios))


# ---------------------------------------------------------------------------
# execution faults (worker crashes and hangs)
# ---------------------------------------------------------------------------


def _item_draw(item: object, seed: int) -> float:
    """Stable uniform [0, 1) draw for one work item.

    Derived from the SHA-256 of ``(seed, repr(item))`` rather than from
    call order, so the *same* tasks are selected regardless of the order
    they run in -- the selection is reproducible across runs and
    retries.
    """
    digest = hashlib.sha256(f"{seed}:{item!r}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


class ExecutionFault:
    """Base class for faults injected into task *execution*, not data.

    Where :class:`FaultInjector` corrupts a feature matrix, an
    execution fault corrupts the act of running a task: :meth:`wrap`
    takes the per-item callable of a grid's serial loop (or any
    :func:`~repro.perf.parallel.parallel_map_outcomes` task run in this
    process) and returns a
    wrapped callable that misbehaves -- raising transient faults,
    hanging against the watchdog -- for a deterministic, seeded subset
    of items, a limited number of times each.  The runtime's retry and
    timeout machinery is expected to recover; the stress harness
    asserts that it does, bit for bit.
    """

    def wrap(
        self, fn: Callable[[object], object]
    ) -> Callable[[object], object]:  # pragma: no cover - abstract
        """Return a misbehaving version of the per-item callable."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human-readable description of the fault."""
        params = ", ".join(
            f"{k}={v!r}"
            for k, v in sorted(vars(self).items())
            if not k.startswith("_")
        )
        return f"{type(self).__name__}({params})"

    def __repr__(self) -> str:
        return self.describe()


class _StrikeCounter:
    """Thread-safe per-item strike budget shared by one wrapped callable."""

    def __init__(self, limit: int) -> None:
        self._limit = limit
        self._counts: Dict[str, int] = {}
        self._lock = threading.Lock()

    def strike(self, item: object) -> bool:
        """Consume one strike for ``item``; False once the budget is spent."""
        key = repr(item)
        with self._lock:
            used = self._counts.get(key, 0)
            if used >= self._limit:
                return False
            self._counts[key] = used + 1
            return True


class TaskCrashFault(ExecutionFault):
    """Selected tasks raise a transient fault on their first attempts.

    Models a killed/OOM-ed worker or a dropped connection: the task
    fails with :class:`~repro.runtime.retry.TransientFault` for its
    first ``n_failures`` attempts and succeeds afterwards, so a
    :class:`~repro.runtime.retry.RetryPolicy` with enough attempts
    recovers every cell.  Selection is a seeded, item-stable draw
    (``fraction`` of tasks, at least the selection threshold applies
    per item, independent of scheduling order).

    Attempt counting is in-process (a shared thread-safe counter), so
    this injector is meant for the serial loop the stress harness uses.
    """

    def __init__(
        self, fraction: float = 0.5, n_failures: int = 1, seed: int = 0
    ) -> None:
        self.fraction = _validate_fraction(fraction, "fraction")
        if n_failures < 1:
            raise ValueError(f"n_failures must be >= 1, got {n_failures}")
        self.n_failures = int(n_failures)
        self.seed = int(seed)

    def wrap(self, fn: Callable[[object], object]) -> Callable[[object], object]:
        """Wrap ``fn`` so selected items crash transiently, then recover."""
        counter = _StrikeCounter(self.n_failures)

        def crashing(item: object) -> object:
            if _item_draw(item, self.seed) < self.fraction and counter.strike(item):
                raise TransientFault(
                    f"injected worker crash for task {item!r}"
                )
            return fn(item)

        return crashing


class TaskHangFault(ExecutionFault):
    """Selected tasks hang on their first attempts until the watchdog fires.

    Models a wedged fit: the task spins (cooperatively checking the
    active deadline) instead of doing its work, so a ``timeout`` on the
    map converts the hang into a retryable
    :class:`~repro.runtime.watchdog.TaskTimeout`.  ``max_hang_s``
    bounds the spin even when no deadline scope is active -- a
    mis-configured stress run raises instead of deadlocking the suite.
    """

    def __init__(
        self,
        fraction: float = 0.5,
        n_hangs: int = 1,
        seed: int = 0,
        max_hang_s: float = 5.0,
    ) -> None:
        self.fraction = _validate_fraction(fraction, "fraction")
        if n_hangs < 1:
            raise ValueError(f"n_hangs must be >= 1, got {n_hangs}")
        if not max_hang_s > 0:
            raise ValueError(f"max_hang_s must be > 0, got {max_hang_s}")
        self.n_hangs = int(n_hangs)
        self.seed = int(seed)
        self.max_hang_s = float(max_hang_s)

    def wrap(self, fn: Callable[[object], object]) -> Callable[[object], object]:
        """Wrap ``fn`` so selected items stall until a deadline fires."""
        counter = _StrikeCounter(self.n_hangs)

        def hanging(item: object) -> object:
            if _item_draw(item, self.seed) < self.fraction and counter.strike(item):
                give_up_at = time.monotonic() + self.max_hang_s
                while time.monotonic() < give_up_at:
                    check_deadline()  # raises TaskTimeout under a deadline scope
                    time.sleep(0.005)
                raise TaskTimeout(
                    f"injected hang for task {item!r} exceeded max_hang_s="
                    f"{self.max_hang_s:g} with no watchdog deadline active"
                )
            return fn(item)

        return hanging
