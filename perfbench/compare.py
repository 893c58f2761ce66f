#!/usr/bin/env python3
"""Summarize or compare benchmark run records.

    python3 perfbench/compare.py RECORDS_DIR [--json]
    python3 perfbench/compare.py PARENT_RECORDS_DIR CHANGE_RECORDS_DIR

Records are the JSON files ``run.py`` writes under
``.bench_build/perfbench/records/``.  With one directory it prints every
end-to-end metric per workload (median over untraced runs with quartiles,
the median of the samples behind it, the same in seconds for a metric in
reference units, run count, samples behind one run, failure fraction) and
the per-layer medians of the traced runs; ``--json`` prints the same as JSON, which is
how ``baseline.json`` is made.  With two directories it pairs the untraced
runs of each workload in start order and gives every (metric, workload) a
verdict by the rule in ``stats.judge``: improved, unchanged, worse or
unresolved, with each ratio stated with its base.

Collect the pairs by running parent and change alternately, at least ten
times each, with the same ``--seconds``; the first run of each pair must
alternate between the two sides.  Records whose environment fingerprints
or run lengths differ are refused.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from stats import judge, quartiles

ROOT = Path(__file__).resolve().parent.parent
# end-to-end metric -> (run-record samples it is taken from, the same timings in s or 1/s)
SAMPLES = {
    "setup_s": ("setup_s", "setup_s"),
    "wall_ref": ("wall_ref", "wall_s"),
    "first_draw_ref": ("first_draw_ref", "first_draw_s"),
    "draw_p50_ref": ("draw_ref", "draw_s"),
    "draws_per_ref": ("draws_per_ref", "draws_per_s"),
}


def load(directory: Path, trace: int = 0) -> dict[str, list[dict]]:
    """Records per workload with the given trace flag, in start order."""
    by_workload: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("trace") == trace:
            by_workload.setdefault(rec["workload"], []).append(rec)
    for recs in by_workload.values():
        recs.sort(key=lambda r: r["started_unix"])
    return by_workload


def refuse_mixed(*sets: dict[str, list[dict]]) -> str | None:
    """Why these records cannot be compared, or None."""
    seen = {
        json.dumps([r["fingerprint"], r["seconds"]], sort_keys=True)
        for s in sets for recs in s.values() for r in recs
    }
    if len(seen) > 1:
        return "records differ in environment fingerprint or run length:\n  " + "\n  ".join(sorted(seen))
    return None


def collect(spec: dict, untraced: dict[str, list[dict]], traced: dict[str, list[dict]]) -> dict:
    """Per workload: end-to-end quartiles over runs, failures, per-layer medians."""
    out = {}
    for workload in sorted(set(untraced) | set(traced)):
        entry: dict = {}
        recs = untraced.get(workload, [])
        if recs:
            entry["end_to_end"] = {}
            for m in spec["end_to_end"]:
                q1, med, q3 = quartiles([r["metrics"][m["name"]]["value"] for r in recs])
                key, seconds = SAMPLES.get(m["name"], (None, None))
                per_run = recs[-1]["samples"].get(key, {"samples": 1})

                def median_of_medians(k):  # median over runs of each run's median sample
                    return quartiles([r["samples"][k]["median"] for r in recs])[1] if k else None

                entry["end_to_end"][m["name"]] = {
                    "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                    "sample_median": median_of_medians(key),
                    "seconds_median": median_of_medians(seconds),
                    "runs": len(recs), "samples_per_run": per_run["samples"],
                    "tail_pct": per_run.get("tail_pct"),
                }
            failed = sum(r["failed"] for r in recs)
            attempted = sum(r["attempted"] for r in recs)
            entry["fail_frac"] = {"value": failed / attempted, "failed": failed, "attempted": attempted}
        recs = traced.get(workload, [])
        if recs:
            entry["per_layer"] = {
                m["name"]: {"unit": m["unit"], "median": quartiles([r["metrics"][m["name"]]["value"] for r in recs])[1]}
                for m in spec["per_layer"]
            }
            entry["per_layer_runs"] = len(recs)
        out[workload] = entry
    return out


def fmt(q1: float, med: float, q3: float) -> str:
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def summary_lines(table: dict) -> list[str]:
    lines = [
        f"{'workload':16s} {'metric':40s} {'unit':8s} {'median [q1, q3] over runs':36s} "
        f"{'sample median':14s} {'in s or 1/s':12s} runs  samples/run (highest percentile with >= 10 beyond)"
    ]
    for workload, entry in table.items():
        for name, v in entry.get("end_to_end", {}).items():
            tail = f" (p{v['tail_pct']:g})" if v.get("tail_pct") else ""
            sample_median, in_seconds = (
                "-" if v.get(k) is None else f"{v[k]:.5g}" for k in ("sample_median", "seconds_median")
            )
            lines.append(
                f"{workload:16s} {name:40s} {v['unit']:8s} {fmt(v['q1'], v['median'], v['q3']):36s} "
                f"{sample_median:14s} {in_seconds:12s} {v['runs']:4d}  {v['samples_per_run']}{tail}"
            )
        if "fail_frac" in entry:
            f = entry["fail_frac"]
            lines.append(f"{workload:16s} {'fail_frac':40s} {'ratio':8s} {f['value']:.5g} ({f['failed']} of {f['attempted']} operations)")
        for name, v in entry.get("per_layer", {}).items():
            if v["median"]:
                lines.append(f"{workload:16s} {name:40s} {v['unit']:8s} {v['median']:.5g} (traced, {entry['per_layer_runs']} runs)")
    return lines


def compare_lines(spec: dict, parent: dict[str, list[dict]], change: dict[str, list[dict]]) -> list[str]:
    lines = [
        f"{'workload':16s} {'metric':24s} {'unit':6s} {'parent median [q1, q3]':34s} "
        f"{'change median [q1, q3]':34s} {'change/parent':36s} wins   verdict"
    ]
    for workload in sorted(set(parent) | set(change)):
        p_recs, c_recs = parent.get(workload, []), change.get(workload, [])
        if not p_recs or not c_recs:
            lines.append(f"{workload:16s} missing on one side: unresolved")
            continue
        pairs = list(zip(p_recs, c_recs))
        firsts = [p["started_unix"] < c["started_unix"] for p, c in pairs]
        alternating = all(a != b for a, b in zip(firsts, firsts[1:]))
        more_failures = sum(r["failed"] for r in c_recs) > sum(r["failed"] for r in p_recs)
        for m in spec["end_to_end"]:
            name = m["name"]
            p_vals = [p["metrics"][name]["value"] for p, _ in pairs]
            c_vals = [c["metrics"][name]["value"] for _, c in pairs]
            j = judge(p_vals, c_vals, m["better"], m["bound"])
            verdict = j["verdict"]
            if not alternating:
                verdict = "unresolved (pairs not alternated)"
            elif verdict == "improved" and more_failures:
                verdict = "unresolved (more operations failed)"
            ratio = f"{j['ratio']:.4f} = {j['change'][1]:.5g} / {j['parent'][1]:.5g}"
            lines.append(
                f"{workload:16s} {name:24s} {m['unit']:6s} {fmt(*j['parent']):34s} {fmt(*j['change']):34s} "
                f"{ratio:36s} {j['wins']:2d}/{j['pairs']:<3d} {verdict}"
            )
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("dirs", nargs="+", type=Path, metavar="RECORDS_DIR")
    p.add_argument("--json", action="store_true", help="print the one-directory summary as JSON")
    args = p.parse_args(argv)
    if len(args.dirs) > 2:
        p.error("give one records directory to summarize, or two to compare")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    untraced = [load(d, 0) for d in args.dirs]
    traced = [load(d, 1) for d in args.dirs]
    if not any(untraced) and not any(traced):
        print("compare: no run records found", file=sys.stderr)
        return 2
    why = refuse_mixed(*untraced, *traced)
    if why:
        print(f"compare: refusing to pair: {why}", file=sys.stderr)
        return 2
    if len(args.dirs) == 2:
        print("\n".join(compare_lines(spec, *untraced)))
        return 0
    table = collect(spec, untraced[0], traced[0])
    if args.json:
        fingerprint = next(r for s in (untraced[0], traced[0]) for recs in s.values() for r in recs)["fingerprint"]
        print(json.dumps({"fingerprint": fingerprint, "workloads": table}, indent=1))
    else:
        print("\n".join(summary_lines(table)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
