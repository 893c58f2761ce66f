"""Config-driven experiment runners emitting CSV result tables.

Four experiment kinds are supported:

* ``coreset`` — 90%-quantile of the worst-over-theta relative 1-means loss
  error, repulsive sampling against sensitivity-weighted iid, over a grid of
  coreset sizes;
* ``sphere``  — mean relative error of Monte-Carlo integration of ``z^2`` on
  the unit sphere against the exact value ``4*pi/3``;
* ``usvt``    — Frobenius and trace recovery error of the thresholded kernel
  built from a latent position random graph, across a grid of sizes;
* ``checks``  — self-check suite aggregating the library's sampling and
  bound invariants, with pass/fail per check.

Configs are flat INI files with one section per experiment kind.  All
randomness is pre-assigned to streams before any work runs, so results do
not depend on scheduling; replicates are reduced in index order.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import logging
import math
import time
from collections import Counter
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from typing import Callable

import numpy as np

from .dpp_engine import (
    enumerate_pmf,
    random_valid_kernel,
    sample_dpp_many,
    validate_kernel,
)
from .estimators import (
    coreset_estimates,
    draw_with_replacement,
    loss_on_grid,
    quantile_relative_error,
    sensitivity_scores,
    sphere_integrals,
)
from .kernel_builders import (
    ContinuousKernel,
    KernelMatrix,
    _row_blocks,
    gaussian_kernel,
    gram_kernel,
    harmonic_kernel_family,
    latent_graph,
    normalized_indicator_profile,
    ope_kernel,
    usvt_kernel,
)
from .point_cloud import sample_uniform_cube, sample_uniform_sphere
from .rng import SeededRng
from .statistics import det_bound_frobenius, det_bound_max

logger = logging.getLogger(__name__)

SPHERE_TARGET = 4.0 * math.pi / 3.0  # exact integral of z^2 over the unit sphere

CSV_HEADER = "experiment,param,method,replicates,metric,value,seed,config_hash"


class ConfigError(Exception):
    """Raised for unreadable, incomplete, or ill-typed configuration."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoresetConfig:
    n: int = 400
    d: int = 2
    m_grid: tuple[int, ...] = (4, 8, 16, 32, 64)
    draws: int = 50
    theta_count: int = 50
    realizations: int = 5
    quantile: float = 0.9
    seed: int = 1234
    out: str = ""


@dataclass(frozen=True)
class SphereConfig:
    n: int = 600
    m_grid: tuple[int, ...] = (4, 16, 64)
    draws: int = 100
    realizations: int = 1
    h1: float = 0.0  # 0 means the default (log n / n)^(1/16)
    h2: float = 0.0  # 0 means the default (log n / n)^(1/4)
    seed: int = 1234
    out: str = ""


@dataclass(frozen=True)
class UsvtConfig:
    n_grid: tuple[int, ...] = (200, 400, 800)
    d: int = 2
    alpha: float = 1.0
    c: float = 0.6
    rho: float = 0.12
    kernel_scale: float = 1.0
    replicates: int = 3
    seed: int = 1234
    out: str = ""


@dataclass(frozen=True)
class ChecksConfig:
    checks: tuple[str, ...] = (
        "sampler_tv",
        "ope_projection",
        "det_bounds",
        "kernel_validation",
    )
    corrupt_kernel: bool = False
    seed: int = 1234
    out: str = ""


CONFIG_TYPES = {
    "coreset": CoresetConfig,
    "sphere": SphereConfig,
    "usvt": UsvtConfig,
    "checks": ChecksConfig,
}


def _parse_value(kind: str, key: str, raw: str, template) -> object:
    raw = raw.strip()
    where = f"[{kind}] {key}"
    try:
        if isinstance(template, bool):
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if isinstance(template, int):
            return int(raw)
        if isinstance(template, float):
            value = float(raw)
            if not math.isfinite(value):
                raise ConfigError(f"{where}: must be finite, got {raw!r}")
            return value
        if isinstance(template, tuple):
            items = [s.strip() for s in raw.split(",") if s.strip()]
            if template and isinstance(template[0], int):
                return tuple(int(s) for s in items)
            return tuple(items)
        return raw
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {raw!r}") from None


def load_config(path: str, kind: str, seed_override: int | None = None):
    """Load and validate the section for one experiment kind."""
    if kind not in CONFIG_TYPES:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from None
    if not parser.has_section(kind):
        raise ConfigError(f"{path}: missing section [{kind}]")
    cls = CONFIG_TYPES[kind]
    defaults = cls()
    known = {f.name: getattr(defaults, f.name) for f in dataclass_fields(cls)}
    values: dict[str, object] = {}
    for key, raw in parser.items(kind):
        if key not in known:
            raise ConfigError(f"{path}: [{kind}] has unknown key {key!r}")
        values[key] = _parse_value(kind, key, raw, known[key])
    if seed_override is not None:
        values["seed"] = int(seed_override)
    cfg = cls(**values)
    _validate_config(kind, cfg)
    return cfg


def _validate_config(kind: str, cfg) -> None:
    where = f"[{kind}]"
    for name in ("n", "d", "draws", "theta_count", "realizations", "replicates"):
        if hasattr(cfg, name) and getattr(cfg, name) < 1:
            raise ConfigError(f"{where} {name}: must be positive")
    for name in ("m_grid", "n_grid", "checks"):
        grid = getattr(cfg, name, ())
        if hasattr(cfg, name) and not grid:
            raise ConfigError(f"{where} {name}: must be a nonempty list")
        if name != "checks" and any(v < 1 for v in grid):
            raise ConfigError(f"{where} {name}: entries must be positive ints")
        # a repeated entry would repeat its rows in the table
        if len(set(grid)) != len(grid):
            raise ConfigError(f"{where} {name}: entries must be distinct")
    if hasattr(cfg, "m_grid") and hasattr(cfg, "n") and max(cfg.m_grid) > cfg.n:
        raise ConfigError(f"{where} m_grid: entries must not exceed n = {cfg.n}")
    if hasattr(cfg, "quantile") and not 0.0 < cfg.quantile < 1.0:
        raise ConfigError(f"{where} quantile: must be in (0, 1)")
    if hasattr(cfg, "alpha") and not 0.0 < cfg.alpha <= 1.0:
        raise ConfigError(f"{where} alpha: must be in (0, 1]")
    if hasattr(cfg, "c") and not 0.0 <= cfg.c <= 1.0:
        raise ConfigError(f"{where} c: must be in [0, 1]")
    for name in ("rho", "kernel_scale"):
        if hasattr(cfg, name) and getattr(cfg, name) <= 0:
            raise ConfigError(f"{where} {name}: must be positive")
    if hasattr(cfg, "h1") and (cfg.h1 < 0 or cfg.h2 < 0):
        raise ConfigError(f"{where} bandwidths: must be nonnegative (0 = default)")
    if hasattr(cfg, "h1") and cfg.n < 2 and not (cfg.h1 > 0 and cfg.h2 > 0):
        raise ConfigError(f"{where} bandwidths: the defaults are 0 at n = {cfg.n}; set h1 and h2")
    # the default runs every check
    for name in getattr(cfg, "checks", ()):
        if name not in ChecksConfig.checks:
            raise ConfigError(f"{where} checks: unknown check {name!r}")


def config_hash(cfg) -> str:
    """Stable short digest of the resolved configuration.

    ``out`` is digested as ``""``, so where the CSV goes does not change it.
    """
    cfg = replace(cfg, out="")
    text = "\n".join(
        f"{f.name}={getattr(cfg, f.name)!r}" for f in dataclass_fields(type(cfg))
    )
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# result tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    param: str
    method: str
    replicates: int
    metric: str
    value: float


@dataclass
class ResultTable:
    seed: int
    config_digest: str
    rows: list[ResultRow] = field(default_factory=list)

    def add(self, experiment: str, param, method: str, replicates: int, metric: str, value: float) -> None:
        self.rows.append(
            ResultRow(experiment, str(param), method, int(replicates), metric, float(value))
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for r in self.rows:
            buf.write(
                f"{r.experiment},{r.param},{r.method},{r.replicates},"
                f"{r.metric},{r.value!r},{self.seed},{self.config_digest}\n"
            )
        return buf.getvalue()

    def values(self, method: str, metric: str) -> dict[str, float]:
        return {r.param: r.value for r in self.rows if r.method == method and r.metric == metric}


class _Phase:
    """Context manager logging wall-clock duration of one phase."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self) -> "_Phase":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        logger.info("%s took %.2fs", self.name, time.perf_counter() - self.start)


# ---------------------------------------------------------------------------
# coreset experiment
# ---------------------------------------------------------------------------


def run_coreset(cfg: CoresetConfig) -> ResultTable:
    """Quantile relative loss error per coreset size, repulsive vs iid."""
    base = SeededRng(cfg.seed)
    table = ResultTable(cfg.seed, config_hash(cfg))
    quantiles: dict[tuple[int, str], list[float]] = {
        (m, meth): [] for m in cfg.m_grid for meth in ("iid", "dpp")
    }
    for k in range(cfg.realizations):
        with _Phase(f"coreset realization {k}"):
            cloud = sample_uniform_cube(cfg.n, cfg.d, base.substream(1, k))
            logger.info("realization %d: cloud stream %d", k, base.substream(1, k).stream_id)
            thetas = base.substream(2, k).generator().uniform(-1.0, 1.0, (cfg.theta_count, cfg.d))
            full = loss_on_grid(cloud.points, np.ones(cfg.n), thetas)
            probs = sensitivity_scores(cloud)
            # one orthonormalization per cloud: the rank-m kernel is factored
            # by the first m columns of the largest rank's factor
            basis = ope_kernel(cloud, max(cfg.m_grid)).factor
            for mi, m in enumerate(cfg.m_grid):
                dpp = validate_kernel(KernelMatrix(factor=basis[:, :m]))
                samples = sample_dpp_many(dpp, base.substream(3, k, mi), cfg.draws)
                # a projection kernel's draws all hold m indices
                draws = np.array([s.indices for s in samples])
                est = coreset_estimates(cloud, thetas, draws, dpp.kernel.diagonal() / dpp.n)
                rel_dpp = np.max(np.abs(est - full) / full, axis=1)
                draws = draw_with_replacement(m, probs, base.substream(4, k, mi), cfg.draws)
                est = coreset_estimates(cloud, thetas, draws, m * probs)
                rel_iid = np.max(np.abs(est - full) / full, axis=1)
                quantiles[(m, "dpp")].append(quantile_relative_error(rel_dpp, cfg.quantile))
                quantiles[(m, "iid")].append(quantile_relative_error(rel_iid, cfg.quantile))
    reps = cfg.draws * cfg.realizations
    for m in cfg.m_grid:
        for meth in ("iid", "dpp"):
            table.add("coreset", m, meth, reps, "quantile_rel_error",
                      float(np.mean(quantiles[(m, meth)])))
    return table


# ---------------------------------------------------------------------------
# sphere Monte-Carlo experiment
# ---------------------------------------------------------------------------


def sphere_bandwidths(n: int) -> tuple[float, float]:
    """Default bandwidths ``(log n / n)^(1/16)`` and ``(log n / n)^(1/4)``."""
    ratio = math.log(n) / n
    return ratio ** (1.0 / 16.0), ratio**0.25


def run_sphere(cfg: SphereConfig) -> ResultTable:
    """Mean relative integration error per rank, repulsive vs iid."""
    base = SeededRng(cfg.seed)
    table = ResultTable(cfg.seed, config_hash(cfg))
    h1, h2 = sphere_bandwidths(cfg.n)
    if cfg.h1 > 0:
        h1 = cfg.h1
    if cfg.h2 > 0:
        h2 = cfg.h2
    profile = normalized_indicator_profile(2)
    errors: dict[tuple[int, str], list[float]] = {
        (m, meth): [] for m in cfg.m_grid for meth in ("iid", "dpp")
    }
    for rr in range(cfg.realizations):
        cloud = sample_uniform_sphere(cfg.n, base.substream(1, rr))
        f_vals = cloud.points[:, 2] ** 2
        with _Phase(f"sphere kernels realization {rr}"):
            family = harmonic_kernel_family(cloud, cfg.m_grid, h1, h2, profile, 2)
        density = family.density
        iid_probs = density / density.sum()
        for mi, m in enumerate(cfg.m_grid):
            dpp = validate_kernel(family.kernels[m])
            with _Phase(f"sphere draws m={m} realization {rr}"):
                samples = sample_dpp_many(dpp, base.substream(2, rr, mi), cfg.draws)
                draws = np.array([s.indices for s in samples])
                est = sphere_integrals(f_vals, density, draws, dpp.kernel.diagonal() / dpp.n)
                errors[(m, "dpp")].extend(np.abs(est - SPHERE_TARGET) / SPHERE_TARGET)
                draws = draw_with_replacement(m, iid_probs, base.substream(3, rr, mi), cfg.draws)
                est = sphere_integrals(f_vals, density, draws, m * iid_probs)
                errors[(m, "iid")].extend(np.abs(est - SPHERE_TARGET) / SPHERE_TARGET)
    reps = cfg.draws * cfg.realizations
    for m in cfg.m_grid:
        for meth in ("iid", "dpp"):
            table.add("sphere", m, meth, reps, "mean_rel_error",
                      float(np.mean(errors[(m, meth)])))
    return table


# ---------------------------------------------------------------------------
# random-graph recovery experiment
# ---------------------------------------------------------------------------


def run_usvt(cfg: UsvtConfig) -> ResultTable:
    """Kernel recovery error from Bernoulli graphs across a size grid."""
    base = SeededRng(cfg.seed)
    table = ResultTable(cfg.seed, config_hash(cfg))
    latent = gaussian_kernel(bandwidth=cfg.kernel_scale, amplitude=cfg.c)
    for ni, n in enumerate(cfg.n_grid):
        frob, tr_err = [], []
        with _Phase(f"usvt n={n}"):
            for rep in range(cfg.replicates):
                f, t = _usvt_replicate(
                    cfg, latent, n, base.substream(1, ni, rep), base.substream(2, ni, rep)
                )
                frob.append(f)
                tr_err.append(t)
        table.add("usvt", n, "usvt", cfg.replicates, "frobenius_error", float(np.mean(frob)))
        table.add("usvt", n, "usvt", cfg.replicates, "trace_error", float(np.mean(tr_err)))
    return table


def _usvt_replicate(
    cfg: UsvtConfig, latent: ContinuousKernel, n: int, cloud_rng: SeededRng, graph_rng: SeededRng
) -> tuple[float, float]:
    # one replicate's (frobenius, trace) errors; only the graph's bits live
    # through usvt_kernel, and its cloud and n x n arrays are freed at return
    cloud = sample_uniform_cube(n, cfg.d, cloud_rng)
    graph = latent_graph(gram_kernel(latent, cloud), cfg.alpha, graph_rng)
    K = usvt_kernel(graph, cfg.alpha, cfg.c, cfg.rho).entries
    # the Gram's rows again, on the builders' row blocks (the whole Gram's
    # rows bit for bit where pairwise evaluates a row alike in both), less K's
    sq = 0.0
    for rows in _row_blocks(n):
        G = latent.pairwise(cloud.points[rows], cloud.points)
        G -= K[rows]
        sq += float(np.vdot(G, G))
        del G  # before the next block's
    frob = math.sqrt(sq) / n
    return frob, abs(float(np.trace(K)) / n - cfg.c)


# ---------------------------------------------------------------------------
# invariant checks
# ---------------------------------------------------------------------------


def _check_sampler_tv(rng: SeededRng) -> tuple[bool, float]:
    # low-rank spectrum keeps the enumerated distribution concentrated
    # enough that 1e5 draws resolve it well inside the 0.02 bound
    n, draws = 8, 100_000
    gen = rng.substream(1).generator()
    lam = np.zeros(n)
    lam[:3] = n * gen.uniform(0.0, 1.0, 3)
    dpp = validate_kernel(random_valid_kernel(n, gen, eigenvalues=lam))
    pmf = enumerate_pmf(dpp)
    counts = Counter(s.indices for s in sample_dpp_many(dpp, rng.substream(2), draws))
    tv = 0.5 * sum(abs(counts[sub] / draws - p) for sub, p in pmf.items())
    return tv <= 0.02, 0.02 - tv


def _check_ope_projection(rng: SeededRng) -> tuple[bool, float]:
    n, m = 200, 8
    cloud = sample_uniform_cube(n, 2, rng)
    K = ope_kernel(cloud, m).entries
    trace_slack = 1e-8 - abs(float(np.trace(K)) / n - m)
    P = K / n
    idem_slack = 1e-6 * math.sqrt(n) - float(np.linalg.norm(P @ P - P))
    return trace_slack >= 0 and idem_slack >= 0, min(trace_slack, idem_slack)


def _check_det_bounds(rng: SeededRng) -> tuple[bool, float]:
    gen = rng.generator()
    margin = math.inf
    ok = True
    for _ in range(50):
        A = gen.standard_normal((8, 8))
        B = A + 0.1 * gen.standard_normal((8, 8))
        for r in (1, 2, 3):
            lhs, rhs = det_bound_max(A, B, r)
            margin = min(margin, rhs - lhs)
            # the bounds are tight at r = 1, so compare with ulp slack
            ok = ok and lhs <= rhs * (1 + 1e-12)
            signed, _, rhs_f = det_bound_frobenius(A, B, r)
            margin = min(margin, rhs_f - signed)
            ok = ok and signed <= rhs_f * (1 + 1e-12)
    return ok, margin


def _check_kernel_validation(rng: SeededRng, corrupt: bool) -> tuple[bool, float]:
    n = 6
    if corrupt:
        bad = np.zeros((n, n))
        bad[0, 0] = n + 1.0
        try:
            validate_kernel(KernelMatrix(bad))
        except ValueError:
            # the injected kernel is rejected, check fails by its excess over n
            return False, -1.0
        return False, math.nan  # the validator accepted it: no margin to report
    validate_kernel(random_valid_kernel(n, rng))
    return True, 0.0


def run_checks(cfg: ChecksConfig) -> ResultTable:
    """Run the named self-checks; one row per check with measured slack."""
    base = SeededRng(cfg.seed)
    table = ResultTable(cfg.seed, config_hash(cfg))
    runners: dict[str, Callable[[SeededRng], tuple[bool, float]]] = {
        "sampler_tv": _check_sampler_tv,
        "ope_projection": _check_ope_projection,
        "det_bounds": _check_det_bounds,
        "kernel_validation": lambda r: _check_kernel_validation(r, cfg.corrupt_kernel),
    }
    for i, name in enumerate(cfg.checks):
        if name not in runners:
            raise ConfigError(f"[checks] unknown check {name!r}")
        with _Phase(f"check {name}"):
            ok, slack = runners[name](base.substream(10, i))
        table.add("checks", name, "pass" if ok else "fail", 1, "slack", slack)
    return table


def checks_failed(table: ResultTable) -> bool:
    return any(r.experiment == "checks" and r.method == "fail" for r in table.rows)


RUNNERS = {
    "coreset": run_coreset,
    "sphere": run_sphere,
    "usvt": run_usvt,
    "checks": run_checks,
}
