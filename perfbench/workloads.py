"""The benchmark's workloads: runner configs, library probes and output checks.

A round of a workload makes the experiment calls a CLI user makes (the
runners behind ``dpp-limits <kind>``, CSV written) and probes the library
on one kernel: build it from the input in hand, validate it, draw once,
then time single ``sample_dpp`` calls and ``sample_dpp_many`` batches.

Two workloads, split by what the two queued optimisations touch:

* ``sphere-coreset`` holds the rank-m projection kernels at n = 500-1000
  (the harmonic builder, the OPE builder rebuilt per rank, seven dense
  validations, the flop-bound chain, the inline estimators).  Factored
  low-rank kernels target it; a batched chain must not slow it.
* ``checks-usvt`` holds the overhead-bound n = 8 chain with the oracle
  exactness check, the determinant bounds, and the dense full-rank USVT
  path.  A batched chain targets it; factored kernels bypass it.

``SMOKE`` holds tiny shapes of the same workloads for the benchmark's own
tests; they are never measured.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import dpp_limits as dl
from dpp_limits.experiments import CSV_HEADER, load_config, sphere_bandwidths

HERE = Path(__file__).resolve().parent

# criterion 1 of the acceptance suite: TV to the enumerated law at 1e5 draws
TV_BOUND = 0.02
# the checks runner draws its own spectrum from its seed, which changes its
# cost twofold between seeds; the shipped config's seed holds the work fixed
CHECKS_SEED = 20240604
# spectrum of the n = 8 probe kernels as eigenvalue / n; the eigenbasis comes
# from the workload seed, the rank law does not: P(rank <= 1) = 0.33 and
# P(rank <= 2) = 0.84, so the median and p95 draw sit inside one rank each
# rather than on a boundary between two costs
SMALL_SPECTRUM = (0.9, 0.6, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0)
# a validated probe eigenvalue must sit within this times n of its built value
SPECTRUM_RTOL = 1e-9
PROBE_STREAM = 900  # substream tags of the probe; disjoint from the runners'


@dataclass(frozen=True)
class Runner:
    kind: str  # experiment runner, as in ``dpp-limits <kind>``
    config: str  # INI body of its config section; ``{seed}`` is filled in
    csv_rows: int


@dataclass(frozen=True)
class Workload:
    runners: tuple[Runner, ...]  # the experiment calls of one round, in order
    probe: str  # "harmonic": rank-m harmonic kernel; "small": n = 8 kernels
    probe_n: int  # size of the probe's point cloud (or kernel, for n = 8)
    probe_m: int | None  # rank of the probe's projection kernel, if it is one
    # per round; the probe runs in ``chunks`` even slices, half before the
    # runner calls and half after, so that its short timings sample the
    # whole round rather than one burst of machine load
    chunks: int
    first_draws: int  # build + validate + draw repetitions
    singles: int  # timed single ``sample_dpp`` calls
    batch: int  # draws per slice in one ``sample_dpp_many`` call
    layers: tuple[str, ...]  # layers whose spans must appear when traced

    def __post_init__(self) -> None:
        if self.singles % self.chunks or not 1 <= self.first_draws:
            raise ValueError("singles must split evenly into chunks, and first_draws >= 1")


RUNNER_CONFIGS: dict[str, Runner] = {
    "sphere": Runner(
        "sphere", "n = 1000\nm_grid = 16, 128\ndraws = 100\nrealizations = 1\nseed = {seed}\n", 4
    ),
    "coreset": Runner(
        "coreset",
        "n = 500\nd = 2\nm_grid = 4, 8, 16, 32, 64, 128, 256\ndraws = 40\n"
        "theta_count = 100\nrealizations = 1\nquantile = 0.9\nseed = {seed}\n",
        14,
    ),
    "checks": Runner(
        "checks",
        "checks = sampler_tv, ope_projection, det_bounds, kernel_validation\n"
        f"corrupt_kernel = false\nseed = {CHECKS_SEED}\n",
        4,
    ),
    "usvt": Runner(
        "usvt",
        "n_grid = 200, 400, 800, 1600\nd = 2\nalpha = 1.0\nc = 0.6\nrho = 0.15\n"
        "kernel_scale = 1.0\nreplicates = 1\nseed = {seed}\n",
        8,
    ),
}

_COMMON = ("experiments", "point_cloud.sample", "linalg.eigh", "dpp_engine.validate", "dpp_engine.sample")

WORKLOADS: dict[str, Workload] = {
    "sphere-coreset": Workload(
        runners=(RUNNER_CONFIGS["sphere"], RUNNER_CONFIGS["coreset"]),
        probe="harmonic",
        probe_n=1000,
        probe_m=128,
        chunks=4,
        first_draws=2,
        singles=40,
        batch=10,
        layers=_COMMON + (
            "kernel_builders.harmonic", "kernel_builders.kde", "kernel_builders.ope",
            "kernel_builders.orthonormalize", "estimators.iid_draw", "estimators.sensitivity",
            "estimators.quantile",
        ),
    ),
    "checks-usvt": Workload(
        runners=(RUNNER_CONFIGS["checks"], RUNNER_CONFIGS["usvt"]),
        probe="small",
        probe_n=len(SMALL_SPECTRUM),
        probe_m=None,
        chunks=8,
        first_draws=200,
        singles=2000,
        batch=12500,
        layers=_COMMON + (
            "dpp_engine.enumerate_pmf", "statistics.det_bounds", "kernel_builders.ope",
            "kernel_builders.orthonormalize", "kernel_builders.gram",
            "kernel_builders.latent_graph", "kernel_builders.usvt",
        ),
    ),
}

SMOKE: dict[str, Workload] = {
    "sphere-coreset": dataclasses.replace(
        WORKLOADS["sphere-coreset"],
        runners=(
            Runner("sphere", "n = 200\nm_grid = 4, 16\ndraws = 10\nrealizations = 1\nseed = {seed}\n", 4),
            Runner(
                "coreset",
                "n = 100\nd = 2\nm_grid = 4, 16\ndraws = 10\ntheta_count = 10\nrealizations = 1\nseed = {seed}\n",
                4,
            ),
        ),
        probe_n=200, probe_m=16, batch=5,
    ),
    "checks-usvt": dataclasses.replace(
        WORKLOADS["checks-usvt"],
        runners=(
            Runner("checks", "checks = ope_projection, det_bounds, kernel_validation\nseed = {seed}\n", 3),
            Runner("usvt", "n_grid = 50, 100\nreplicates = 1\nrho = 0.15\nseed = {seed}\n", 4),
        ),
        first_draws=20, singles=200,
    ),
}


@dataclass
class Setup:
    """Everything a run has in hand before its first runner call."""

    name: str
    seed: int
    wl: Workload
    config_paths: dict[str, Path]  # runner kind -> its written config
    probe_input: object  # point cloud, or the stream the n = 8 kernels come from


def setup(name: str, seed: int, workdir: Path, shapes: dict[str, Workload] = WORKLOADS) -> Setup:
    """Write and parse the runner configs and generate the probe's input."""
    wl = shapes[name]
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for r in wl.runners:
        paths[r.kind] = workdir / f"{name}-{r.kind}.cfg"
        paths[r.kind].write_text(f"[{r.kind}]\n" + r.config.format(seed=seed), encoding="ascii")
        load_config(str(paths[r.kind]), r.kind)
    rng = dl.SeededRng(seed).substream(PROBE_STREAM)
    probe_input = dl.sample_uniform_sphere(wl.probe_n, rng) if wl.probe == "harmonic" else rng
    return Setup(name, seed, wl, paths, probe_input)


def build_kernel(s: Setup, rep: int) -> dl.KernelMatrix:
    """The probe's kernel, built from the input in hand (``rep`` varies n = 8 bases)."""
    n, m = s.wl.probe_n, s.wl.probe_m
    if s.wl.probe == "harmonic":
        h1, h2 = sphere_bandwidths(n)
        return dl.harmonic_kernel(s.probe_input, m, h1, h2, dl.normalized_indicator_profile(2), 2)
    lam = n * np.array(SMALL_SPECTRUM)
    return dl.random_valid_kernel(n, s.probe_input.substream(rep), eigenvalues=lam)


def draw_stream(s: Setup, round_index: int) -> np.random.Generator:
    return dl.SeededRng(s.seed).substream(PROBE_STREAM + 2, round_index).generator()


# ---------------------------------------------------------------------------
# output checks; each returns (ok, message)
# ---------------------------------------------------------------------------


def check_spectrum(s: Setup, dpp) -> tuple[bool, str]:
    """The validated spectrum must be the one the probe kernel was built with.

    A rank-m projection probe has m eigenvalues at n and the rest at 0; an
    n = 8 probe has the spectrum ``n * SMALL_SPECTRUM``; both to ``SPECTRUM_RTOL * n``.
    """
    lam, n, m = dpp.eigenvalues, dpp.n, s.wl.probe_m
    tol = SPECTRUM_RTOL * n
    if m is None:
        want = np.sort(n * np.array(SMALL_SPECTRUM))
        ok = bool(lam.shape == want.shape and np.all(np.abs(lam - want) <= tol))
        return ok, f"validated eigenvalues {np.round(lam, 6).tolist()}, built with {want.tolist()}"
    at_n = int(np.count_nonzero(np.abs(lam - n) <= tol))
    at_0 = int(np.count_nonzero(np.abs(lam) <= tol))
    ok = at_n == m and at_0 == n - m
    return ok, f"{at_n} eigenvalues at n and {at_0} at 0 (n = {n}, m = {m})"


def check_sizes(s: Setup, dpp, draws) -> tuple[bool, str]:
    """Draws from a projection probe must all have exactly ``m`` points."""
    m = s.wl.probe_m
    if m is None:
        return True, "non-projection kernel; sizes vary"
    if not dpp.is_projection():
        return False, f"{s.name}: probe kernel is not a projection"
    bad = sum(1 for d in draws if len(d) != m)
    return bad == 0, f"{bad} of {len(draws)} draws differ from m = {m}"


def check_tv(dpp, draws) -> tuple[bool, str]:
    pmf = dl.enumerate_pmf(dpp)
    counts: dict[tuple[int, ...], int] = {}
    for d in draws:
        counts[d.indices] = counts.get(d.indices, 0) + 1
    total = len(draws)
    tv = 0.5 * sum(abs(counts.get(sub, 0) / total - p) for sub, p in pmf.items())
    return tv <= TV_BOUND, f"TV {tv:.4f} against enumerate_pmf over {total} draws (bound {TV_BOUND})"


def parse_csv(text: str) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("CSV header differs from the runner's")
    return [line.split(",") for line in lines[1:]]


def check_csv(s: Setup, runner: Runner, text: str) -> list[tuple[bool, str]]:
    """Checks on one runner's CSV; one result per check."""
    rows = parse_csv(text)
    values = [float(r[5]) for r in rows]
    out = [(len(rows) == runner.csv_rows, f"{runner.kind}: {len(rows)} CSV rows, expected {runner.csv_rows}")]
    out.append((all(math.isfinite(v) for v in values), f"{runner.kind}: CSV values finite"))
    if runner.kind in ("sphere", "coreset"):
        out.append((all(v > 0 for v in values), f"{runner.kind}: relative errors positive"))
    elif runner.kind == "checks":
        out.extend((r[2] == "pass", f"check {r[1]}: {r[2]} (slack {r[5]})") for r in rows)
    else:
        ref = json.loads((HERE / "usvt_reference.json").read_text())
        if ref["config"] == runner.config:
            out.append(check_usvt_reference(ref, s.seed, rows))
    return out


def check_usvt_reference(ref: dict, seed: int, rows: list[list[str]]) -> tuple[bool, str]:
    """USVT errors against the reference recorded for the workload's config.

    Seeds in the recorded table must reproduce their values to ``rtol``;
    every seed must land within the row's ``band_rtol`` of the row's median
    over the table.
    """
    got = {f"{r[1]}:{r[4]}": float(r[5]) for r in rows}
    problems = []
    for key, centre in ref["median"].items():
        v = got.get(key)
        band = ref["band_rtol"][key]
        if v is None or abs(v - centre) > band * centre:
            problems.append(f"{key}={v} outside {band:.3g} of median {centre}")
    for key, want in ref["seeds"].get(str(seed), {}).items():
        v = got.get(key)
        if v is None or abs(v - want) > ref["rtol"] * abs(want):
            problems.append(f"{key}={v} differs from recorded {want}")
    return not problems, "; ".join(problems) or "USVT errors match the recorded reference"
