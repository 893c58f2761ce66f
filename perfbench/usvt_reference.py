#!/usr/bin/env python3
"""Record the reference the USVT runner's output check compares against.

    python3 perfbench/usvt_reference.py

Runs the benchmark's USVT runner config for seeds ``0 .. SEEDS-1`` (one BLAS thread,
as in the benchmark) and writes ``perfbench/usvt_reference.json``: every
CSV value per seed, and per row the median over those seeds and a relative
band twice as wide as the widest recorded deviation from it.  Run it only
when the USVT streams change on purpose.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from dpp_limits.experiments import load_config, run_usvt  # noqa: E402

SEEDS = 100  # seeds recorded; the band widens with their number
RTOL = 1e-9  # a recorded seed must reproduce its values to this
BAND_WIDENING = 2.0  # band = this times the widest recorded relative deviation


def main() -> int:
    path = HERE.parent / ".bench_build" / "perfbench" / "work" / "usvt-reference.cfg"
    path.parent.mkdir(parents=True, exist_ok=True)
    seeds: dict[str, dict[str, float]] = {}
    for seed in range(SEEDS):
        path.write_text("[usvt]\n" + workloads.RUNNER_CONFIGS["usvt"].config.format(seed=seed), encoding="ascii")
        rows = workloads.parse_csv(run_usvt(load_config(str(path), "usvt")).to_csv())
        seeds[str(seed)] = {f"{r[1]}:{r[4]}": float(r[5]) for r in rows}
    (HERE / "usvt_reference.json").write_text(json.dumps(reference(seeds), indent=1) + "\n")
    return 0


def reference(seeds: dict[str, dict[str, float]]) -> dict:
    """Per-row median and relative band over the recorded seeds, plus the seeds."""
    keys = list(next(iter(seeds.values())))
    median = {k: statistics.median(v[k] for v in seeds.values()) for k in keys}
    band = {
        k: max(BAND_WIDENING * max(abs(v[k] - median[k]) / median[k] for v in seeds.values()), RTOL)
        for k in keys
    }
    return {
        "config": workloads.RUNNER_CONFIGS["usvt"].config,
        "rtol": RTOL,
        "median": median,
        "band_rtol": band,
        "seeds": seeds,
    }


if __name__ == "__main__":
    raise SystemExit(main())
