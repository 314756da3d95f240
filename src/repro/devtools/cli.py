"""``python -m repro analyze`` -- the reprolint command line.

Usage::

    python -m repro analyze src tests                  # both packs, text report
    python -m repro analyze --format json src          # machine-readable
    python -m repro analyze --format sarif src         # SARIF 2.1.0 to stdout
    python -m repro analyze --sarif-output out.sarif src tests   # report + artifact
    python -m repro analyze --write-baseline src tests # accept current findings
    python -m repro analyze --list-rules               # every rule and why
    python -m repro analyze --disable REP108 src       # ad-hoc rule filter

Exit codes are stable for CI wiring:

* ``0`` -- no unbaselined findings and no engine errors,
* ``1`` -- at least one new (unbaselined, unsuppressed) finding,
* ``2`` -- engine error: usage or I/O error (unknown rule, missing
  path, unwritable report), malformed config or baseline, or a file
  the engine could not read or parse (``REP000``).  A pass that could
  not see the whole program refuses to certify it clean;
* ``141`` -- the reader closed stdout early (``... | head``).

Configuration is read from the nearest ``pyproject.toml``'s
``[tool.reprolint]`` table unless ``--no-config`` is given; command
line ``--enable``/``--disable`` are applied on top of it.
``--baseline`` overrides the configured baseline path,
``--no-baseline`` ignores it.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from repro.devtools.baseline import Baseline, load_baseline, write_baseline
from repro.devtools.config import LintConfig, load_config
from repro.devtools.diagnostics import PARSE_ERROR_ID
from repro.devtools.engine import analyze_paths
from repro.devtools.reporters import render_json, render_sarif, render_text
from repro.devtools.rules import ALL_RULES, get_rule

__all__ = ["build_parser", "main"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for tests and docs tooling)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro analyze",
        description=(
            "reprolint: reproducibility rules for scientific / conformal "
            "code -- per-module contracts (REP1xx), concurrency "
            "determinism (REP2xx) and conformal calibration hygiene (REP3xx)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to check (e.g. 'src tests')",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--sarif-output",
        metavar="FILE",
        help="additionally write a SARIF 2.1.0 report to FILE",
    )
    parser.add_argument(
        "--enable",
        action="append",
        default=[],
        metavar="RULE",
        help="run only these rules (id or name; repeatable)",
    )
    parser.add_argument(
        "--disable",
        action="append",
        default=[],
        metavar="RULE",
        help="switch these rules off (id or name; repeatable)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="baseline file of accepted findings (overrides config)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any configured baseline",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule with its rationale and exit",
    )
    parser.add_argument(
        "--no-config",
        action="store_true",
        help="ignore [tool.reprolint] in pyproject.toml",
    )
    return parser


def _list_rules() -> str:
    lines: List[str] = []
    for rule in ALL_RULES:
        scopes = "+".join(sorted(rule.scopes))
        lines.append(f"{rule.rule_id}  {rule.name}  ({scopes})")
        lines.append(f"    {rule.summary}")
        lines.append(f"    why: {rule.rationale}")
    return "\n".join(lines)


def _resolve_config(args: argparse.Namespace) -> LintConfig:
    if args.no_config:
        config = LintConfig()
    else:
        anchor = args.paths[0] if args.paths else None
        config = load_config(anchor)
    # CLI filters compose with (and, for --enable, override) file config.
    for identifier in (*args.enable, *args.disable):
        get_rule(identifier)  # raises KeyError for unknown rules
    if args.enable:
        config = replace(config, enable=frozenset(args.enable), disable=frozenset())
    if args.disable:
        config = replace(config, disable=config.disable | frozenset(args.disable))
    if args.baseline:
        config = replace(config, baseline=args.baseline)
    if args.no_baseline:
        config = replace(config, baseline=None)
    return config


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    try:
        return _main(argv)
    except BrokenPipeError:
        # The consumer closed stdout early (``... | head``); that is not
        # an engine failure and must not traceback.  Point stdout at
        # /dev/null so the interpreter's exit-time flush stays quiet,
        # and exit with the conventional 128 + SIGPIPE code.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def _main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return EXIT_CLEAN
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given (try 'src tests')", file=sys.stderr)
        return EXIT_ERROR

    try:
        config = _resolve_config(args)
        result = analyze_paths(args.paths, config=config)
        errors = result.errors
        findings = [d for d in result.diagnostics if d.rule_id != PARSE_ERROR_ID]
        if args.write_baseline:
            if config.baseline is None:
                raise ValueError(
                    "--write-baseline needs --baseline FILE or a configured "
                    "[tool.reprolint] baseline"
                )
            write_baseline(config.baseline, findings)
            print(f"wrote {len(findings)} finding(s) to {config.baseline}")
            return EXIT_ERROR if errors else EXIT_CLEAN
        if config.baseline is not None and Path(config.baseline).is_file():
            baseline = load_baseline(config.baseline)
        else:
            baseline = Baseline()
        new, baselined = baseline.filter(findings)
        reported = sorted(errors + new)
        if args.sarif_output:
            Path(args.sarif_output).write_text(
                render_sarif(reported, rules=ALL_RULES) + "\n", encoding="utf-8"
            )
    except (KeyError, ValueError, OSError) as error:
        # KeyError's str() quotes its message; the others read as-is.
        message = error.args[0] if isinstance(error, KeyError) else str(error)
        print(f"error: {message}", file=sys.stderr)
        return EXIT_ERROR

    for note in config.notes:
        print(f"note: {note}", file=sys.stderr)
    for path, rule_id, _ in baseline.unused_entries(findings):
        print(
            f"note: stale baseline entry {rule_id} for {path} "
            "(finding no longer present)",
            file=sys.stderr,
        )
    if baselined:
        print(
            f"note: {len(baselined)} baselined finding(s) suppressed",
            file=sys.stderr,
        )

    if args.format == "sarif":
        print(render_sarif(reported, rules=ALL_RULES))
    elif args.format == "json":
        print(render_json(reported, checked_files=result.checked_files))
    else:
        print(render_text(reported, checked_files=result.checked_files))
    if errors:
        return EXIT_ERROR
    return EXIT_FINDINGS if new else EXIT_CLEAN
