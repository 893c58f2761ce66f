#!/usr/bin/env python3
"""One benchmark run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src/``.
One process, one caller, closed loop, one BLAS thread.  The run repeats
rounds until ``--seconds`` have passed.  Before each round it times a
fresh interpreter doing the workload's set-up.  A round makes the
workload's runner calls, as ``dpp-limits <kind>`` makes them with the CSV
written, and probes the library in slices around them (see ``workloads``).

Between its timed sections the run times ``hostspeed.reference()``, and
each timing is also kept in reference units: divided by the mean of the
reference times on either side of its section (see ``hostspeed``).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` makes each round's runner calls once untraced, then again
traced with the probe, and reports the per-layer metrics; the tracing
overhead is the runner calls' span count times the measured cost of one
span.  ``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A readable summary goes to
standard error, and a run record with the environment fingerprint is
written under ``.bench_build/perfbench/records/``.
"""

import os

# one caller, one BLAS thread; this must happen before numpy is imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
from spans import RUNNER_REQUEST, TraceGuardError, Tracer, span_cost  # noqa: E402
from stats import summarize  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="do the set-up and exit (timed by the parent)")
    return p.parse_args(argv)


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    """Environment a run record is valid for; compare refuses to mix them."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError, ValueError):
        blas_id = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_id,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


class Run:
    """Rounds of one workload, with the operation ledger and the samples."""

    def __init__(self, workloads, s, trace: bool) -> None:
        import dpp_limits
        from dpp_limits import cli

        self.w, self.dl, self.cli = workloads, dpp_limits, cli
        self.s, self.wl = s, s.wl
        self.tracer = Tracer() if trace else None
        self.span_cost = span_cost() if trace else 0.0
        self.attempted = 0
        self.failed = 0
        # each timing in seconds and in reference units (see ``hostspeed``)
        self.samples: dict[str, list[float]] = {
            key: [] for key in (
                "wall_s", "wall_ref", "first_draw_s", "first_draw_ref", "draw_s", "draw_ref",
                "draws_per_s", "draws_per_ref",
            )
        }
        self.gauge = hostspeed.Gauge()
        self.csv: dict[str, bytes] = {}  # first CSV of each runner; later ones must match
        self.layer_rounds: list[dict[str, float]] = []

    @contextlib.contextmanager
    def op(self, count: int = 1):
        """``count`` operations; an exception fails all of them and ends the round."""
        self.attempted += count
        try:
            yield
        except Exception:
            self.failed += count
            raise

    def check(self, result: tuple[bool, str]) -> None:
        ok, message = result
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: output check failed: {message}", file=sys.stderr)

    def call_runners(self, tag: str) -> tuple[float, float]:
        """The round's experiment calls, CSV written and checked.

        Returns their total time in seconds and in reference units.
        """
        total = total_ref = 0.0
        for runner in self.wl.runners:
            config = self.s.config_paths[runner.kind]
            csv_path = config.with_name(f"{config.stem}-{tag}.csv")
            csv_path.unlink(missing_ok=True)
            argv = [runner.kind, "--config", str(config), "--out", str(csv_path), "--quiet"]
            with self.op():
                t0 = time.perf_counter()
                code = self.cli.main(argv)
                elapsed = time.perf_counter() - t0
            total += elapsed
            total_ref += elapsed / self.gauge.mark()
            self.check((code == 0, f"dpp-limits {runner.kind} exited with {code}"))
            data = csv_path.read_bytes()
            for result in self.w.check_csv(self.s, runner, data.decode("ascii")):
                self.check(result)
            first = self.csv.setdefault(runner.kind, data)
            self.check((data == first, f"{tag} {runner.kind} CSV differs from the first of this seed"))
        return total, total_ref

    def probe_chunk(self, state: dict, chunk: int) -> None:
        """One probe slice; ``state`` carries the round's draw stream, kernel and batches."""
        dl, wl, gen = self.dl, self.wl, state["gen"]
        draws = []
        firsts, singles = [], []
        for rep in (r for r in range(wl.first_draws) if r * wl.chunks // wl.first_draws == chunk):
            with self.op(3):  # build, validate, first draw
                t0 = time.perf_counter()
                dpp = dl.validate_kernel(self.w.build_kernel(self.s, rep))
                draws.append(dl.sample_dpp(dpp, gen))
                firsts.append(time.perf_counter() - t0)
            self.check(self.w.check_spectrum(self.s, dpp))
            if state["kernel"] is None:
                state["kernel"] = dpp  # the round's first kernel serves every later draw
        if firsts:
            # the host's speed changes within a second, so the short draws
            # below get references of their own, next to them
            self.add_timings("first_draw", firsts, self.gauge.mark())
        kernel = state["kernel"]
        count = wl.singles // wl.chunks
        with self.op(count):
            for _ in range(count):
                t0 = time.perf_counter()
                draws.append(dl.sample_dpp(kernel, gen))
                singles.append(time.perf_counter() - t0)
        with self.op(wl.batch):
            t0 = time.perf_counter()
            batch = dl.sample_dpp_many(kernel, gen, wl.batch)
            rates = [wl.batch / (time.perf_counter() - t0)]
        unit = self.gauge.mark()
        self.add_timings("draw", singles, unit)
        self.add_timings("draws_per", rates, unit, rate=True)
        self.check(self.w.check_sizes(self.s, kernel, draws + batch))
        state["batches"].extend(batch)

    def add_timings(self, key: str, values: list[float], unit: float, rate: bool = False) -> None:
        """Keep timings (or rates) in seconds and in reference units of ``unit`` seconds."""
        self.samples[f"{key}_s"].extend(values)
        self.samples[f"{key}_ref"].extend(v * unit if rate else v / unit for v in values)

    def round(self, i: int) -> None:
        """Probe slices, the runner calls, then the rest of the slices.

        Splitting the probe around the runner calls spreads its short timings
        over the whole round.  Traced rounds first make the runner calls
        once untraced, so that their traced CSVs are checked against
        untraced ones.
        """
        wl, tracer = self.wl, self.tracer
        state = {"gen": self.w.draw_stream(self.s, i), "kernel": None, "batches": []}
        half = (wl.chunks + 1) // 2
        if not self.gauge.times:
            self.gauge.mark()
        if tracer is not None:
            self.add_wall(*self.call_runners("untraced"))
            tracer.reset()
        with tracer.installed() if tracer is not None else contextlib.nullcontext():
            for chunk in range(half):
                self.probe_chunk(state, chunk)
            if tracer is not None:
                tracer.request = RUNNER_REQUEST
            wall, wall_ref = self.call_runners("untraced" if tracer is None else "traced")
            if tracer is not None:
                tracer.request = RUNNER_REQUEST + 1
            for chunk in range(half, wl.chunks):
                self.probe_chunk(state, chunk)
            if self.wl.probe == "small":
                self.check(self.w.check_tv(state["kernel"], state["batches"]))
        if tracer is None:
            self.add_wall(wall, wall_ref)
            return
        layers = tracer.layer_metrics()
        layers["trace.spans"] = float(len(tracer.spans))
        runner_spans = sum(1 for span in tracer.spans if span.request == RUNNER_REQUEST)
        layers["trace.overhead_s"] = runner_spans * self.span_cost
        layers["trace.self_share"] = tracer.request_self_sum(RUNNER_REQUEST) / wall
        missing = [name for name in wl.layers if layers[f"{name}.calls"] == 0]
        if missing:
            raise TraceGuardError(f"{self.s.name}: expected layers recorded no span: {', '.join(missing)}")
        self.layer_rounds.append(layers)

    def add_wall(self, wall: float, wall_ref: float) -> None:
        self.samples["wall_s"].append(wall)
        self.samples["wall_ref"].append(wall_ref)


def time_setup(args) -> float:
    """Set-up time of a fresh interpreter: spawn to the end of its set-up.

    The child reports when its set-up ended on the system-wide monotonic
    clock, so neither its teardown nor the parent's wait is counted.
    """
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S,
                         stdout=subprocess.PIPE, text=True)
    return float(out.stdout.split()[-1]) - t0


def end_to_end(run: Run, setups: list[float]) -> dict[str, float]:
    """The end-to-end metrics of one run.

    ``setup_s`` is the median over the fresh interpreters timed before
    each round, so that it samples the whole run.  Every other timing
    is the median of its samples in reference units: ``wall_ref`` over the
    rounds' runner calls, ``first_draw_ref`` over build + validate + first
    draw, ``draw_p50_ref`` over single draws and ``draws_per_ref`` over
    batches.  The run record keeps them in seconds too.
    """
    def median(key: str) -> float:
        return statistics.median(run.samples[key])

    return {
        "setup_s": statistics.median(setups),
        "wall_ref": median("wall_ref"),
        "first_draw_ref": median("first_draw_ref"),
        "draw_p50_ref": median("draw_ref"),
        "draws_per_ref": median("draws_per_ref"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run: Run) -> dict[str, float]:
    keys = run.layer_rounds[0].keys()
    return {k: statistics.median(r[k] for r in run.layer_rounds) for k in keys}


def report(spec: dict, run: Run, setups: list[float], trace: bool) -> dict:
    """The result object: ledger totals and every metric ``BENCHMARK.json`` names."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = per_layer(run) if trace else end_to_end(run, setups)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dpp_limits" / "__init__.py").is_file():
        print(f"perfbench: no library source under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / "work" / f"{args.workload}-seed{args.seed}"
    if args.setup_only:
        workloads.setup(args.workload, args.seed, workdir)
        print(time.monotonic())
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = float(args.seconds if args.seconds is not None else spec["run_seconds"])
    started = time.time()
    s = workloads.setup(args.workload, args.seed, workdir)
    run = Run(workloads, s, trace=bool(args.trace))
    deadline = time.perf_counter() + seconds
    rounds = 0
    setups = []
    while rounds == 0 or time.perf_counter() < deadline:
        setups.append(time_setup(args))
        try:
            run.round(rounds)
        except TraceGuardError as exc:
            print(f"perfbench: trace guard: {exc}", file=sys.stderr)
            return 3
        except Exception:
            traceback.print_exc(file=sys.stderr)
        rounds += 1

    if not all(run.samples.values()) or (args.trace and not run.layer_rounds):
        print("perfbench: no round completed; nothing to report", file=sys.stderr)
        return 1
    result = report(spec, run, setups, bool(args.trace))
    metrics = result["metrics"]
    samples = {"setup_s": summarize(setups)}
    samples.update({k: summarize(v) for k, v in run.samples.items() if v})
    samples["ref_s"] = summarize(run.gauge.times)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": seconds, "rounds": rounds, "started_unix": started,
        "fingerprint": fingerprint(), "fail_frac": run.failed / run.attempted,
        "samples": samples, "raw": {"setup_s": setups, **run.samples, "ref_s": run.gauge.times}, **result,
    }
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (records / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: {rounds} rounds, "
          f"{run.failed}/{run.attempted} operations failed", file=sys.stderr)
    for key, m in metrics.items():
        print(f"  {key:40s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    for key, summ in samples.items():
        tail = f", p{summ['tail_pct']:g} {summ['tail']:.6g}" if "tail" in summ else ""
        print(f"  samples {key:20s} n={summ['samples']:<7d} median {summ['median']:.6g}{tail}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
