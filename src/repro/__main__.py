"""Command-line interface: ``python -m repro <command>``.

Four commands cover the non-programmatic workflows:

* ``generate`` -- create a synthetic lot and save its measurements to a
  ``.npz`` (optionally also the burn-in flow log as CSV),
* ``predict`` -- fit the recommended CQR pipeline on a saved (or fresh)
  lot and print calibrated intervals for held-out chips,
* ``info`` -- describe a saved lot (shapes, read points, corners),
* ``grid`` -- run a point/region experiment grid with the resilient
  runtime: journaled checkpoint/``--resume``, deterministic
  ``--max-retries``, per-cell ``--task-timeout``, and atomic
  ``--output`` JSON with a checksum sidecar,
* ``serve`` -- score a lot through the fault-tolerant serving layer
  (:mod:`repro.serve`): verified model registry, fallback chain,
  coverage-monitored scoring; ``--bootstrap`` fits and publishes a
  first version.  Exits 0 when the service ends ``READY``, 1 when it
  ends degraded, 2 on error,
* ``analyze`` -- reprolint static analysis (per-module contracts,
  concurrency/determinism races, conformal calibration hygiene);
  delegated to :mod:`repro.devtools.cli` with its own options.

The CLI exists so a test-floor engineer can produce and inspect data
without writing Python; everything it does is a thin shim over the
public API.
"""

from __future__ import annotations

import argparse
import os
import sys
import zipfile
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro import SiliconDataset, VminPredictionFlow
from repro.eval.experiments import (
    POINT_MODEL_NAMES,
    REGION_METHOD_NAMES,
    ExperimentProfile,
    GridResult,
    run_point_grid,
    run_region_grid,
)
from repro.models import ObliviousBoostingRegressor
from repro.runtime.artifacts import verify_artifact, write_checksum, write_json_atomic
from repro.runtime.checkpoint import RunJournal
from repro.runtime.retry import RetryPolicy
from repro.silicon.io import export_flow_csv, load_measurements, save_measurements

__all__ = ["build_parser", "main"]


def _chip_count(text: str) -> int:
    """argparse type for ``--chips``: an integer >= 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}")
    if value < 2:
        raise argparse.ArgumentTypeError(
            f"--chips must be >= 2 (a lot needs at least two chips), got {value}"
        )
    return value


def _seed_value(text: str) -> int:
    """argparse type for ``--seed``: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"--seed must be a non-negative integer, got {value}"
        )
    return value


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = SiliconDataset.generate(n_chips=args.chips, seed=args.seed)
    path = save_measurements(dataset, args.output)
    sidecar = write_checksum(path)
    print(dataset.summary())
    print(f"measurements written to {path} (checksum {sidecar.name})")
    if args.flow_csv:
        rows = export_flow_csv(dataset, args.flow_csv)
        print(f"flow log ({rows} records) written to {args.flow_csv}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    dataset = load_measurements(args.dataset)
    print(f"chips        : {dataset.n_chips}")
    print(f"parametric   : {dataset.parametric.shape[1]} channels")
    print(f"ROD monitors : {len(dataset.rod_names)}")
    print(f"CPD monitors : {len(dataset.cpd_names)}")
    print(f"read points  : {list(dataset.read_points)} h")
    print(f"temperatures : {[f'{t:g}C' for t in dataset.temperatures]}")
    for hours in dataset.read_points:
        for temperature in dataset.temperatures:
            vmin = dataset.vmin[(temperature, hours)]
            print(
                f"  Vmin @ {temperature:>6g}C, {hours:>5d}h: "
                f"median {np.median(vmin)*1e3:6.1f} mV, "
                f"max {vmin.max()*1e3:6.1f} mV"
            )
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    if args.dataset:
        dataset = load_measurements(args.dataset)
    else:
        dataset = SiliconDataset.generate(seed=args.seed)
    if args.hours not in dataset.read_points:
        print(
            f"error: read point {args.hours} h not in {list(dataset.read_points)}",
            file=sys.stderr,
        )
        return 2
    X, names = dataset.features(args.hours)
    try:
        y = dataset.target(args.temperature, args.hours)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    n_train = int(round(dataset.n_chips * (1.0 - args.holdout)))
    if not 2 <= n_train < dataset.n_chips:
        print("error: holdout leaves no usable train/test split", file=sys.stderr)
        return 2

    base = ObliviousBoostingRegressor(
        n_estimators=args.trees, quantile=0.5, random_state=args.seed
    )
    flow = VminPredictionFlow(base_model=base, alpha=args.alpha, random_state=args.seed)
    flow.fit(X[:n_train], y[:n_train], feature_names=names)
    try:
        intervals = flow.predict_interval(X[n_train:])
    except RuntimeError as error:
        # Typically: too few calibration chips for the requested alpha.
        print(f"error: {error}", file=sys.stderr)
        return 2

    print(
        f"CQR intervals @ {args.temperature:g}C, {args.hours}h "
        f"(alpha={args.alpha:g}, guarantee >= {flow.guaranteed_coverage_:.1%})"
    )
    print(
        f"held-out coverage {intervals.coverage(y[n_train:]):.1%}, "
        f"mean width {intervals.mean_width*1e3:.1f} mV"
    )
    for i in range(len(intervals)):
        print(
            f"chip {n_train + i:4d}: "
            f"[{intervals.lower[i]*1e3:7.1f}, {intervals.upper[i]*1e3:7.1f}] mV"
        )
    return 0


def _split_list(text: str) -> List[str]:
    """Split a comma-separated CLI list, dropping empty entries."""
    return [item.strip() for item in text.split(",") if item.strip()]


def _verify_dataset_artifact(path: str) -> None:
    """Checksum-verify a lot archive when its ``.sha256`` sidecar exists.

    Lots written by ``repro generate`` carry a sidecar; a corrupt
    archive then raises :class:`ArtifactCorruptionError` (exit 2 via
    the CLI's ``ValueError`` mapping) before half-parsed data reaches a
    grid or serving run.  Sidecar-less archives load unverified, so
    hand-built lots keep working.
    """
    if Path(str(path) + ".sha256").exists():
        verify_artifact(path)


def _grid_cell_rows(kind: str, result: GridResult) -> List[Dict[str, Any]]:
    """Flatten a grid into JSON-ready per-cell rows (cell order)."""
    rows: List[Dict[str, Any]] = []
    for (name, temperature, hours), cell in result.items():
        row: Dict[str, Any] = {
            "name": name,
            "temperature_c": temperature,
            "hours": hours,
        }
        if kind == "point":
            row.update(
                r2=cell.r2,
                rmse=cell.rmse,
                r2_per_fold=list(cell.r2_per_fold),
                rmse_per_fold=list(cell.rmse_per_fold),
            )
        else:
            row.update(
                coverage=cell.coverage,
                width=cell.width,
                coverage_per_fold=list(cell.coverage_per_fold),
                width_per_fold=list(cell.width_per_fold),
            )
        rows.append(row)
    return rows


def _cmd_grid(args: argparse.Namespace) -> int:
    known = POINT_MODEL_NAMES if args.kind == "point" else REGION_METHOD_NAMES
    names = _split_list(args.names) if args.names else [known[0]]
    unknown = [name for name in names if name not in known]
    if unknown:
        print(
            f"error: unknown {args.kind} names {unknown}; expected a subset "
            f"of {list(known)}",
            file=sys.stderr,
        )
        return 2
    temperatures = [float(t) for t in _split_list(args.temperatures)]
    read_points = [int(h) for h in _split_list(args.hours)]
    if not temperatures or not read_points:
        print("error: --temperatures and --hours must be non-empty", file=sys.stderr)
        return 2
    if args.max_retries < 0:
        print("error: --max-retries must be >= 0", file=sys.stderr)
        return 2

    if args.resume and not args.journal:
        print("error: --resume requires --journal", file=sys.stderr)
        return 2
    journal: Optional[RunJournal] = None
    if args.journal:
        journal = RunJournal(
            args.journal,
            meta={"kind": args.kind, "profile": args.profile, "seed": args.seed},
        )
        if journal.path.exists() and journal.path.stat().st_size > 0:
            if not args.resume:
                print(
                    f"error: journal {journal.path} already exists; pass "
                    "--resume to continue it or remove the file to start over",
                    file=sys.stderr,
                )
                return 2
            print(f"resuming from {journal.path} ({len(journal)} cells recorded)")

    if args.dataset:
        _verify_dataset_artifact(args.dataset)
        dataset = load_measurements(args.dataset)
    else:
        dataset = SiliconDataset.generate(seed=args.seed)
    profile = ExperimentProfile.from_name(args.profile)
    retry_policy = (
        RetryPolicy(max_attempts=args.max_retries + 1, seed=args.seed)
        if args.max_retries > 0
        else None
    )

    common: Dict[str, Any] = dict(
        profile=profile,
        seed=args.seed,
        n_jobs=args.n_jobs,
        journal=journal,
        retry_policy=retry_policy,
        timeout=args.task_timeout,
        on_error="capture",
    )
    if args.kind == "point":
        result = run_point_grid(dataset, names, temperatures, read_points, **common)
    else:
        result = run_region_grid(
            dataset, names, temperatures, read_points, alpha=args.alpha, **common
        )

    for (name, temperature, hours), cell in result.items():
        if args.kind == "point":
            metrics = f"R2 {cell.r2:6.3f}, RMSE {cell.rmse:6.2f} mV"
        else:
            metrics = f"coverage {cell.coverage:.1%}, width {cell.width:6.2f} mV"
        print(f"  {name:>12s} @ {temperature:>6g}C, {hours:>5d}h: {metrics}")
    for failure in result.failures:
        name, temperature, hours = failure.key
        print(
            f"  {name:>12s} @ {temperature:>6g}C, {hours:>5d}h: FAILED "
            f"after {failure.attempts} attempt(s) "
            f"[{failure.error_type}] {failure.message}",
            file=sys.stderr,
        )
    print(
        f"grid: {len(result)}/{len(result) + len(result.failures)} cells ok, "
        f"{result.n_retried} retried"
    )

    if args.output:
        report = {
            "schema_version": 1,
            "kind": args.kind,
            "profile": args.profile,
            "seed": args.seed,
            "cells": _grid_cell_rows(args.kind, result),
            "failures": [
                {
                    "name": f.key[0],
                    "temperature_c": f.key[1],
                    "hours": f.key[2],
                    "error_type": f.error_type,
                    "attempts": f.attempts,
                    "timed_out": f.timed_out,
                }
                for f in result.failures
            ],
        }
        path = write_json_atomic(args.output, report)
        sidecar = write_checksum(path)
        print(f"results written to {path} (checksum {sidecar.name})")
    return 0 if result.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily: the serving stack is only needed for this command.
    from repro.robust import RobustVminFlow
    from repro.serve import (
        ModelRegistry,
        RejectedRequest,
        ServiceState,
        VminServingService,
    )
    from repro.serve.compiled import kernel_label

    if args.dataset:
        _verify_dataset_artifact(args.dataset)
        dataset = load_measurements(args.dataset)
    else:
        dataset = SiliconDataset.generate(seed=args.seed)
    if args.hours not in dataset.read_points:
        print(
            f"error: read point {args.hours} h not in {list(dataset.read_points)}",
            file=sys.stderr,
        )
        return 2
    X, names = dataset.features(args.hours)
    try:
        y = dataset.target(args.temperature, args.hours)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    n_train = int(round(dataset.n_chips * (1.0 - args.holdout)))
    if not 2 <= n_train < dataset.n_chips:
        print("error: holdout leaves no usable train/test split", file=sys.stderr)
        return 2

    registry = ModelRegistry(args.registry)
    if args.bootstrap:
        parametric = [i for i, n in enumerate(names) if n.startswith("par_")]
        monitors = [i for i, n in enumerate(names) if not n.startswith("par_")]
        base = ObliviousBoostingRegressor(
            n_estimators=args.trees, quantile=0.5, random_state=args.seed
        )
        flow = RobustVminFlow(
            base_model=base, alpha=args.alpha, random_state=args.seed
        )
        flow.fit(
            X[:n_train],
            y[:n_train],
            feature_names=names,
            fallback_columns=parametric or None,
            monitor_columns=monitors or None,
        )
        record = registry.publish(
            flow,
            reason="published",
            metadata={"alpha": args.alpha, "seed": args.seed},
        )
        print(f"bootstrapped registry: published {record.name}")

    service = VminServingService(registry)
    service.start()
    if service.served_model is None:
        print(
            f"error: registry {args.registry} has no servable version "
            "(pass --bootstrap to fit and publish one)",
            file=sys.stderr,
        )
        return 2

    try:
        result = service.score(X[n_train:])
    except RejectedRequest as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    service.observe(X[n_train:], y[n_train:])
    prediction = result.prediction
    print(
        f"served {len(prediction)} chips from {result.model_version} "
        f"(fallback level {result.fallback_level.name}, "
        f"status {prediction.status.value})"
    )
    # The manifest records which compiled decision-table kernels the
    # served bundle carries; surface them so "this registry serves
    # through the fast path" is visible from the command line.
    if result.model_version is not None:
        for entry in registry.describe(result.model_version).manifest.get(
            "compiled", []
        ):
            print(f"  compiled kernel: {kernel_label(entry)}")
    print(
        f"held-out coverage {prediction.coverage(y[n_train:]):.1%}, "
        f"mean width {prediction.mean_width*1e3:.1f} mV"
    )
    for note in prediction.notes:
        print(f"  note: {note}")
    for transition in service.health.downgrades():
        print(f"  downgrade: {transition.describe()}")
    print(f"service state: {service.state.value}")
    return 0 if service.state is ServiceState.READY else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    # Imported lazily: the analysis stack is only needed for this command.
    from repro.devtools.cli import main as analyze_main

    return analyze_main(list(args.rest))


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI parser (generate/info/predict/grid/serve/analyze)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Vmin interval prediction toolkit (DATE 2024 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a synthetic lot and save its measurements"
    )
    generate.add_argument("output", help="output .npz path")
    generate.add_argument("--chips", type=_chip_count, default=156)
    generate.add_argument("--seed", type=_seed_value, default=0)
    generate.add_argument(
        "--flow-csv", default=None, help="also export the burn-in flow log CSV"
    )
    generate.set_defaults(handler=_cmd_generate)

    info = commands.add_parser("info", help="describe a saved lot")
    info.add_argument("dataset", help=".npz from 'generate'")
    info.set_defaults(handler=_cmd_info)

    predict = commands.add_parser(
        "predict", help="fit the CQR pipeline and print intervals"
    )
    predict.add_argument(
        "--dataset", default=None, help=".npz lot (default: generate fresh)"
    )
    predict.add_argument("--temperature", type=float, default=25.0)
    predict.add_argument("--hours", type=int, default=0)
    predict.add_argument("--alpha", type=float, default=0.1)
    predict.add_argument("--holdout", type=float, default=0.25)
    predict.add_argument("--trees", type=int, default=100)
    predict.add_argument("--seed", type=_seed_value, default=0)
    predict.set_defaults(handler=_cmd_predict)

    grid = commands.add_parser(
        "grid",
        help="run an experiment grid with checkpoint/resume and retries",
    )
    grid.add_argument(
        "--kind", choices=("point", "region"), default="point",
        help="point (Fig. 2) or region (Table III) grid",
    )
    grid.add_argument(
        "--dataset", default=None, help=".npz lot (default: generate fresh)"
    )
    grid.add_argument(
        "--names", default=None,
        help="comma-separated model/method names (default: first known name)",
    )
    grid.add_argument(
        "--temperatures", default="25",
        help="comma-separated corner temperatures in C (default: 25)",
    )
    grid.add_argument(
        "--hours", default="0",
        help="comma-separated read points in hours (default: 0)",
    )
    grid.add_argument(
        "--profile", choices=("smoke", "fast", "full"), default="smoke"
    )
    grid.add_argument("--alpha", type=float, default=0.1)
    grid.add_argument("--seed", type=_seed_value, default=0)
    grid.add_argument(
        "--journal", default=None,
        help="JSONL run journal; completed cells survive a crash",
    )
    grid.add_argument(
        "--resume", action="store_true",
        help="continue an existing journal instead of refusing it",
    )
    grid.add_argument(
        "--max-retries", type=int, default=0,
        help="extra attempts per cell on transient faults (default: 0)",
    )
    grid.add_argument(
        "--task-timeout", type=float, default=None,
        help="per-cell watchdog deadline in seconds (default: none)",
    )
    grid.add_argument(
        "--n-jobs", type=int, default=1,
        help="worker processes for the grid's cells (default: 1, a serial loop)",
    )
    grid.add_argument(
        "--output", default=None,
        help="write grid results JSON atomically, with a .sha256 sidecar",
    )
    grid.set_defaults(handler=_cmd_grid)

    serve = commands.add_parser(
        "serve",
        help="score a lot through the verified-registry serving layer",
    )
    serve.add_argument(
        "registry", help="model registry root directory (created if absent)"
    )
    serve.add_argument(
        "--dataset", default=None, help=".npz lot (default: generate fresh)"
    )
    serve.add_argument(
        "--bootstrap", action="store_true",
        help="fit a RobustVminFlow on the train split and publish it first",
    )
    serve.add_argument("--temperature", type=float, default=25.0)
    serve.add_argument("--hours", type=int, default=0)
    serve.add_argument("--alpha", type=float, default=0.1)
    serve.add_argument("--holdout", type=float, default=0.25)
    serve.add_argument("--trees", type=int, default=100)
    serve.add_argument("--seed", type=_seed_value, default=0)
    serve.set_defaults(handler=_cmd_serve)

    # ``analyze`` is delegated wholesale to the analysis CLI (it owns a
    # richer option set); this stub keeps it visible in --help.
    analyze = commands.add_parser(
        "analyze",
        help="reprolint static analysis (REP1xx-REP3xx rules)",
        add_help=False,
    )
    analyze.add_argument("rest", nargs=argparse.REMAINDER)
    analyze.set_defaults(handler=_cmd_analyze)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run the CLI; returns the process exit code.

    0 means success, 1 means a grid completed with captured cell
    failures (partial results were still written), 2 means a user
    error (bad arguments, unreadable inputs).

    Argument errors (argparse's exit code 2) and predictable runtime
    failures -- a dataset path that does not exist, a file that is not a
    lot archive, an invalid parameter that slipped past argparse -- are
    reported as one ``error:`` line on stderr, never a traceback.
    """
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "analyze":
        # Delegated before argparse: the analysis CLI owns its options
        # (argparse.REMAINDER would swallow leading flags otherwise).
        return _cmd_analyze(
            argparse.Namespace(rest=arguments[1:])
        )
    try:
        args = build_parser().parse_args(arguments)
    except SystemExit as exit_request:  # argparse already printed the message
        code = exit_request.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except BrokenPipeError:
        # The consumer closed stdout early (``... | head``); silence the
        # exit-time flush and use the conventional 128 + SIGPIPE code.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError, zipfile.BadZipFile) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
