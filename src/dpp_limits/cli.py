"""Command-line entry point.

Usage::

    dpp-limits <coreset|sphere|usvt|checks> --config <path> [--seed N] [--out <path>]

Exit status: 0 on success, 1 when a self-check fails, 2 on configuration
errors or an unwritable output path, which is checked before the experiment
runs, 3 when the run raises ValueError or ArithmeticError (no CSV is
written).  Results go to ``--out`` (or the config's ``out`` path, or stdout)
as CSV; phase timings and stream ids go to stderr.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .experiments import RUNNERS, ConfigError, checks_failed, load_config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpp-limits",
        description="Build, sample, and benchmark discrete repulsive point processes.",
    )
    parser.add_argument("experiment", choices=sorted(RUNNERS))
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress logging")
    return parser


def _write(path: str, text: str, mode: str = "w") -> bool:
    """Write ``text`` to ``path``; on failure print why and return False."""
    try:
        with open(path, mode, encoding="ascii", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _writable(path: str) -> bool:
    """Check ``path`` by an empty append; remove the file if that created it."""
    created = not os.path.lexists(path)
    ok = _write(path, "", "a")
    if ok and created:
        os.remove(path)
    return ok


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = load_config(args.config, args.experiment, seed_override=args.seed)
        out = args.out if args.out is not None else (cfg.out or None)
        # an unwritable output fails before the run rather than after it
        if out and not _writable(out):
            return 2
        table = RUNNERS[args.experiment](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"{args.experiment} run failed: {exc}", file=sys.stderr)
        return 3
    csv_text = table.to_csv()
    if not out:
        sys.stdout.write(csv_text)
    elif not _write(out, csv_text):
        return 2
    if args.experiment == "checks" and checks_failed(table):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
