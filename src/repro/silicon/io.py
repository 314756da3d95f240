"""Persistence for synthetic lots: share a dataset without sharing code.

``SiliconDataset.generate`` is deterministic, but downstream users (and
CI) often want a frozen artefact: the same matrices regardless of library
version, loadable without re-running the generator.  This module
round-trips the *measured* data (features + labels + minimal metadata)
through a single compressed ``.npz`` file, and exports the burn-in flow
log as CSV for spreadsheet/database ingestion.

The latent ground truth (process state, defect severities) is
intentionally **not** serialised: a persisted lot behaves like real
silicon data — you get measurements, not the hidden truth.  The defect
mask and true Vmin stay available only on freshly generated datasets.

Both writers are crash-safe: content goes to a temporary file and is
atomically renamed into place (:mod:`repro.runtime.artifacts`), so an
interrupted ``save_measurements`` can never leave a truncated archive
where a reader expects a lot.  On the read side, a truncated, corrupt,
or field-incomplete archive raises :class:`DatasetSchemaError` naming
the offending field instead of a raw ``KeyError``/``EOFError`` from
deep inside numpy.
"""

from __future__ import annotations

import csv
import zipfile
from pathlib import Path
from typing import Union

import numpy as np

from repro.runtime.artifacts import atomic_path, atomic_write
from repro.silicon.ate import BurnInFlowSimulator
from repro.silicon.dataset import SiliconDataset

__all__ = [
    "DatasetSchemaError",
    "export_flow_csv",
    "load_measurements",
    "save_measurements",
]

_FORMAT_VERSION = 1


class DatasetSchemaError(ValueError):
    """A lot archive is unreadable or missing a required field.

    Raised by :func:`load_measurements` with the archive path and, when
    applicable, the name of the offending field -- the actionable
    message a test-floor engineer needs instead of a bare ``KeyError``
    out of ``numpy.lib.npyio``.
    """


def save_measurements(dataset: SiliconDataset, path: Union[str, Path]) -> Path:
    """Write the measured blocks of ``dataset`` to a compressed ``.npz``.

    Saved content: parametric matrix + channel metadata, every ROD/CPD
    block, every measured Vmin vector, and the read-point/temperature
    axes.  The archive is written atomically (temp file + rename), so a
    crash mid-save leaves either the previous lot or nothing -- never a
    torn file.  Returns the resolved path.
    """
    path = Path(path)
    arrays = {
        "format_version": np.array([_FORMAT_VERSION]),
        "read_points": np.asarray(dataset.read_points, dtype=np.int64),
        "temperatures": np.asarray(dataset.temperatures, dtype=np.float64),
        "parametric": dataset.parametric,
        "parametric_names": np.asarray(dataset.parametric_names),
        "parametric_temperatures": dataset.parametric_temperatures,
        "rod_names": np.asarray(dataset.rod_names),
        "cpd_names": np.asarray(dataset.cpd_names),
    }
    for hours in dataset.read_points:
        arrays[f"rod_{hours}"] = dataset.rod[hours]
        arrays[f"cpd_{hours}"] = dataset.cpd[hours]
        for temperature in dataset.temperatures:
            arrays[f"vmin_{temperature:g}_{hours}"] = dataset.vmin[
                (temperature, hours)
            ]
    # numpy appends ".npz" when the target has no extension; pin the
    # temp suffix so the atomic rename lands on the exact name written.
    with atomic_path(path, suffix=".npz") as tmp:
        np.savez_compressed(tmp, **arrays)
    return path.resolve()


class _MeasurementOnlyPopulation:
    """Sentinel standing in for the latent population of a loaded lot.

    Any attribute access raises with a clear message: persisted datasets
    carry measurements only (like real silicon data).
    """

    def __getattr__(self, name: str):
        raise AttributeError(
            "this SiliconDataset was loaded from disk and carries "
            "measurements only; the latent population (ground truth, "
            f"defect states) is not persisted (requested: {name!r})"
        )


def _read_field(archive, path: Path, name: str) -> np.ndarray:
    """Read one archive member, translating low-level failures.

    A missing member becomes a :class:`DatasetSchemaError` naming the
    field; a member whose compressed payload is truncated (the classic
    crash-mid-write signature of the pre-atomic writer) surfaces the
    same way instead of as ``EOFError``/``zlib.error`` from inside
    numpy.
    """
    try:
        return archive[name]
    except KeyError:
        raise DatasetSchemaError(
            f"{path}: lot archive is missing required field {name!r} "
            f"(format version {_FORMAT_VERSION}); was it written by "
            "save_measurements?"
        ) from None
    except (EOFError, OSError, zipfile.BadZipFile) as error:
        raise DatasetSchemaError(
            f"{path}: field {name!r} is truncated or corrupt ({error}); "
            "the archive was not written atomically or the disk is bad"
        ) from error


def load_measurements(path: Union[str, Path]) -> SiliconDataset:
    """Load a lot previously written by :func:`save_measurements`.

    The returned dataset supports every measurement accessor
    (``features``, ``target``, the raw blocks) but has no latent
    population: ``true_vmin`` is empty and ``population`` raises on
    access.  A file that is not a lot archive -- truncated, corrupt, or
    simply some other ``.npz`` -- raises :class:`DatasetSchemaError`
    naming the problem (and the missing field, when that is the
    problem); a missing file still raises ``FileNotFoundError``.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such lot archive: {path}")
    try:
        archive_cm = np.load(path, allow_pickle=False)
    except (zipfile.BadZipFile, ValueError, EOFError, OSError) as error:
        raise DatasetSchemaError(
            f"{path}: not a readable lot archive ({error}); the file is "
            "truncated, corrupt, or not an .npz written by save_measurements"
        ) from error
    with archive_cm as archive:
        version = int(_read_field(archive, path, "format_version")[0])
        if version != _FORMAT_VERSION:
            raise DatasetSchemaError(
                f"{path}: unsupported dataset format version {version}; "
                f"this library reads version {_FORMAT_VERSION}"
            )
        read_points = tuple(
            int(h) for h in _read_field(archive, path, "read_points")
        )
        temperatures = tuple(
            float(t) for t in _read_field(archive, path, "temperatures")
        )
        rod = {
            hours: _read_field(archive, path, f"rod_{hours}")
            for hours in read_points
        }
        cpd = {
            hours: _read_field(archive, path, f"cpd_{hours}")
            for hours in read_points
        }
        vmin = {
            (temperature, hours): _read_field(
                archive, path, f"vmin_{temperature:g}_{hours}"
            )
            for hours in read_points
            for temperature in temperatures
        }
        dataset = SiliconDataset(
            parametric=_read_field(archive, path, "parametric"),
            parametric_names=[
                str(n) for n in _read_field(archive, path, "parametric_names")
            ],
            parametric_temperatures=_read_field(
                archive, path, "parametric_temperatures"
            ),
            rod=rod,
            rod_names=[str(n) for n in _read_field(archive, path, "rod_names")],
            cpd=cpd,
            cpd_names=[str(n) for n in _read_field(archive, path, "cpd_names")],
            vmin=vmin,
            true_vmin={},
            population=_MeasurementOnlyPopulation(),  # type: ignore[arg-type]
            read_points=read_points,
            temperatures=temperatures,
        )
    return dataset


def export_flow_csv(dataset: SiliconDataset, path: Union[str, Path]) -> int:
    """Export the burn-in measurement log as CSV; returns the row count.

    One row per measurement event (see
    :class:`~repro.silicon.ate.MeasurementRecord`); the log carries no
    parametric insertion.  The CSV is written atomically: an interrupted
    export leaves no partial log behind.
    """
    path = Path(path)
    simulator = BurnInFlowSimulator(dataset)
    count = 0
    with atomic_write(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "read_point_hours",
                "insertion",
                "temperature_c",
                "chip_index",
                "channel",
                "value",
            ]
        )
        for record in simulator.run():
            writer.writerow(
                [
                    record.read_point_hours,
                    record.insertion,
                    record.temperature_c,
                    record.chip_index,
                    record.channel,
                    repr(record.value),
                ]
            )
            count += 1
    return count
