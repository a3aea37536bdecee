"""Command-line entry point for the IPD invariant lint.

Usage::

    python -m repro.devtools.lint src/repro                # human output
    python -m repro.devtools.lint src/repro --format json  # machine output
    python -m repro.devtools.lint --list-rules             # what's enforced
    python -m repro.devtools.lint --record-codec-pin       # after a codec bump

Exit codes: ``0`` clean, ``1`` findings, ``2`` usage / unreadable input.
Suppress a single finding with a trailing
``# ipd-lint: disable=<rule>`` comment on the flagged line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .codecguard import DEFAULT_PIN_PATH, record_pin
from .framework import LintReport, build_rules, lint_paths

__all__ = ["main", "run_lint"]


def _default_codec_modules() -> list[Path]:
    """The in-tree codec modules, resolved relative to this package."""
    core = Path(__file__).resolve().parents[1] / "core"
    return [core / "statecodec.py", core / "admission.py"]


def run_lint(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    codec_pins: "Path | str | None" = None,
) -> LintReport:
    """Programmatic form of the CLI (used by the test suite)."""
    config = {} if codec_pins is None else {"codec_pins": codec_pins}
    return lint_paths(paths, select=select, **config)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description="AST lint enforcing the repro's implementation invariants",
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories to lint (e.g. src/repro)"
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--codec-pins",
        metavar="PATH",
        default=None,
        help=f"codec fingerprint pin file (default: {DEFAULT_PIN_PATH})",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and the invariant each enforces",
    )
    parser.add_argument(
        "--record-codec-pin",
        metavar="CODEC_MODULE",
        nargs="?",
        const="",
        default=None,
        help="record the current codec fingerprint(s) for their "
        "CODEC_VERSION (default: the in-tree statecodec.py and "
        "admission.py; optionally pass one explicit codec module path) "
        "and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in build_rules():
            print(f"{rule.code} {rule.name}")
            print(f"    {rule.invariant}")
        return 0

    if args.record_codec_pin is not None:
        sources = (
            [Path(args.record_codec_pin)]
            if args.record_codec_pin
            else _default_codec_modules()
        )
        pin_path = Path(args.codec_pins) if args.codec_pins else DEFAULT_PIN_PATH
        for source in sources:
            try:
                version, fingerprint = record_pin(source, pin_path)
            except (OSError, ValueError, SyntaxError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            print(
                f"recorded {source.stem} codec version {version} -> "
                f"{fingerprint}"
            )
        return 0

    if not args.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths to lint", file=sys.stderr)
        return 2

    select = (
        [code.strip() for code in args.select.split(",") if code.strip()]
        if args.select
        else None
    )
    try:
        report = run_lint(args.paths, select=select, codec_pins=args.codec_pins)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            print(finding.format())
        summary = (
            f"{len(report.findings)} finding(s) in {report.files_scanned} "
            f"file(s); {report.suppressed} suppressed"
        )
        print(("FAIL: " if report.findings else "OK: ") + summary)
    return 0 if report.clean else 1


if __name__ == "__main__":
    raise SystemExit(main())
