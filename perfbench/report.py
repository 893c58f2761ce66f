#!/usr/bin/env python3
"""Run every workload once and print every end-to-end metric.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs ``run.py`` untraced for each workload in turn, one process at a time,
then prints each metric with its unit, the samples behind it and the
failure fraction, from the records those runs wrote.  Exits non-zero if a
run fails or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import compare

BENCH = Path(__file__).resolve().parent
RECORDS = BENCH.parent / ".bench_build" / "perfbench" / "records"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    args = p.parse_args(argv)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    started = time.time()
    ok = True
    for w in spec["workloads"]:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w["name"], "--seed", str(args.seed), "--trace", "0"]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        out = subprocess.run(cmd, cwd=BENCH.parent, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            print(f"report: {w['name']} failed (exit {out.returncode})", file=sys.stderr)
            ok = False
    records = {
        name: [r for r in recs if r["started_unix"] >= started]
        for name, recs in compare.load(RECORDS).items()
    }
    table = compare.collect(spec, {k: v for k, v in records.items() if v}, {})
    print("\n".join(compare.summary_lines(table)))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
