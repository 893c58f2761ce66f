"""Command-line entry point.

Usage::

    dpp-limits <coreset|sphere|usvt|checks> --config <path> [--seed N] [--out <path>]

Exit status: 0 on success, 1 when a self-check fails, 2 on configuration
errors or an unwritable output path.  Results go to ``--out`` (or the
config's ``out`` path, or stdout) as CSV; phase timings and stream ids go
to stderr.
"""

from __future__ import annotations

import argparse
import logging
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = load_config(args.config, args.experiment, seed_override=args.seed)
        table = RUNNERS[args.experiment](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    csv_text = table.to_csv()
    out = args.out if args.out is not None else (cfg.out or None)
    if out:
        try:
            with open(out, "w", encoding="ascii", newline="") as fh:
                fh.write(csv_text)
        except OSError as exc:
            print(f"cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(csv_text)
    if args.experiment == "checks" and checks_failed(table):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
