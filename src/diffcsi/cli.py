"""Command-line front end.

Exit codes: 0 success, 2 usage error, 3 numerical/solver failure or a
pool worker that died (BrokenProcessPool, e.g. killed for memory).
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures.process import BrokenProcessPool

from .harness import (
    SCENARIOS,
    ExperimentConfig,
    parse_config_item,
    run_scenario,
)
from .ratedist import SolverError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="set any config key (repeatable; a later one wins)",
    )
    parser.add_argument("--out", default=None, help="output CSV path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffcsi",
        description="Differential CSI feedback analysis and simulation for "
                    "time-correlated MIMO Rayleigh block-fading channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SCENARIOS:
        _add_common(sub.add_parser(name, help=f"run the '{name}' scenario"))
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    values = dict(parse_config_item(item) for item in args.set)
    if values.setdefault("scenario", args.command) != args.command:
        raise ValueError(f"scenario={values['scenario']} contradicts the "
                         f"subcommand {args.command}")
    return ExperimentConfig(**values)


def _check_writable(path) -> None:
    """Raise OSError unless path can be opened for writing; a file this
    check creates is removed again, and an existing one keeps its bytes."""
    existed = os.path.exists(path)
    os.close(os.open(path, os.O_WRONLY | os.O_CREAT))
    if not existed:
        os.remove(path)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        # checked before any work, so a path that cannot be written costs no run
        if args.out:
            _check_writable(args.out)
    except (KeyError, ValueError, TypeError, OSError) as exc:
        # str() of a KeyError is the quoted repr of its message
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        csv_text = run_scenario(cfg)
    except (SolverError, FloatingPointError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except BrokenProcessPool as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    # written only once the run succeeded, so a failed run leaves --out untouched
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
