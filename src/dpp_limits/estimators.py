"""Downstream estimators: subsampled 1-means losses and sphere integrals.

Both experiments compare an independent with-replacement baseline against a
repulsive sample drawn from a kernel, with inverse-inclusion weights making
each estimator unbiased for its target.  Each estimator takes the draws its
caller made and returns one estimate per draw.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .dpp_engine import IndexSample, ValidatedDpp
from .point_cloud import PointCloud
from .rng import SeededRng, as_generator


def true_loss(cloud: PointCloud, theta: np.ndarray) -> float:
    """Full 1-means loss ``sum_i ||x_i - theta||^2``."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (cloud.dim,):
        raise ValueError(f"theta must have shape ({cloud.dim},), got {theta.shape}")
    diff = cloud.points - theta
    return float((diff * diff).sum())


def sensitivity_scores(cloud: PointCloud) -> np.ndarray:
    """Sampling probabilities ``p_i ~ (1 + ||x_i||^2 / v) / n``.

    ``v`` is the mean squared norm; a cloud sitting entirely at the origin
    falls back to uniform probabilities.
    """
    n = cloud.n
    if n == 0:
        raise ValueError("cloud must be nonempty")
    sq = (cloud.points * cloud.points).sum(axis=1)
    v = float(sq.mean())
    if v == 0.0:
        return np.full(n, 1.0 / n)
    raw = (1.0 + sq / v) / n
    return raw / raw.sum()


def draw_with_replacement(
    m: int, probabilities: np.ndarray, rng: SeededRng | np.random.Generator
) -> IndexSample:
    """Draw ``m`` indices iid from ``probabilities``; counts become multiplicities."""
    if m < 1:
        raise ValueError("sample size must be at least 1")
    p = np.asarray(probabilities, dtype=float)
    gen = as_generator(rng)
    counts = np.bincount(gen.choice(p.shape[0], size=m, p=p), minlength=p.shape[0])
    retained = np.flatnonzero(counts)
    return IndexSample(retained.tolist(), counts[retained].tolist())


def loss_on_grid(points: np.ndarray, weights: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Weighted 1-means loss ``sum_i w_i ||x_i - theta||^2`` at every row of ``thetas``.

    Expanded as ``c - 2 theta.b + a ||theta||^2`` with ``a = sum w``,
    ``b = sum w x`` and ``c = sum w ||x||^2``, so a grid costs one pass
    over the points.
    """
    a = float(weights.sum())
    b = weights @ points
    c = float(weights @ (points * points).sum(axis=1))
    return c - 2.0 * thetas @ b + a * (thetas * thetas).sum(axis=1)


def _positive_diagonal(dpp: ValidatedDpp) -> np.ndarray:
    diag = dpp.kernel.diagonal()
    if (diag <= 0).any():
        raise ValueError(
            f"kernel diagonal vanishes at index {int(np.argmin(diag))}; "
            "that point can never be sampled"
        )
    return diag


def coreset_estimate_iid(
    cloud: PointCloud,
    thetas: np.ndarray,
    m: int,
    probabilities: np.ndarray,
    samples: Sequence[IndexSample],
) -> np.ndarray:
    """Loss estimates of ``m``-point with-replacement draws on a theta grid.

    ``L_S = sum_i ||x_i - theta||^2 * count_i / (m * p_i)``; unbiased for
    the full loss since each count has mean ``m * p_i``.  Row ``s`` holds
    the estimates of ``samples[s]`` (a :func:`draw_with_replacement` draw)
    at every row of ``thetas``.
    """
    p = np.asarray(probabilities, dtype=float)
    if p.shape != (cloud.n,):
        raise ValueError("probabilities must match the cloud size")
    thetas = np.asarray(thetas, dtype=float)
    out = np.empty((len(samples), thetas.shape[0]))
    for s, smp in enumerate(samples):
        idx = np.array(smp.indices, dtype=np.intp)
        w = np.array(smp.multiplicities, dtype=float) / (m * p[idx])
        out[s] = loss_on_grid(cloud.points[idx], w, thetas)
    return out


def coreset_estimate_dpp(
    cloud: PointCloud,
    thetas: np.ndarray,
    dpp: ValidatedDpp,
    samples: Sequence[IndexSample],
) -> np.ndarray:
    """Loss estimates of repulsive draws on a theta grid, weighted by inclusion odds.

    ``L_S = sum_{i in S} ||x_i - theta||^2 / (K_ii / n)``; the diagonal must
    be strictly positive so every point can be weighted.  Row ``s`` holds
    the estimates of ``samples[s]`` (a draw of ``dpp``) at every row of
    ``thetas``.
    """
    diag = _positive_diagonal(dpp)
    thetas = np.asarray(thetas, dtype=float)
    out = np.empty((len(samples), thetas.shape[0]))
    for s, smp in enumerate(samples):
        idx = np.array(smp.indices, dtype=np.intp)
        out[s] = loss_on_grid(cloud.points[idx], dpp.n / diag[idx], thetas)
    return out


def _check_density(e_p: np.ndarray, n: int) -> np.ndarray:
    e = np.asarray(e_p, dtype=float)
    if e.shape != (n,):
        raise ValueError("density estimates must match the cloud size")
    if (e <= 0).any():
        raise ValueError(
            f"density estimate nonpositive at index {int(np.argmin(e))}"
        )
    return e


def sphere_integral_iid(
    f_vals: np.ndarray,
    m: int,
    probabilities: np.ndarray,
    e_p: np.ndarray,
    samples: Sequence[IndexSample],
) -> np.ndarray:
    """Volume-integral estimates of ``m``-point with-replacement draws.

    ``I_S = sum_i f(x_i) count_i / (n m p_i e_i)``; unbiased for
    ``I_n = sum_i f(x_i) / (n e_i)``.  ``f_vals`` holds ``f`` at the
    ``n`` cloud points; entry ``s`` is the estimate of ``samples[s]``.
    """
    f_vals = np.asarray(f_vals, dtype=float)
    n = f_vals.shape[0]
    e = _check_density(e_p, n)
    p = np.asarray(probabilities, dtype=float)
    if p.shape != (n,):
        raise ValueError("probabilities must match the cloud size")
    out = np.empty(len(samples))
    for s, smp in enumerate(samples):
        idx = np.array(smp.indices, dtype=np.intp)
        eps = np.array(smp.multiplicities, dtype=float)
        out[s] = float((f_vals[idx] * eps / (n * m * p[idx] * e[idx])).sum())
    return out


def sphere_integral_dpp(
    f_vals: np.ndarray,
    dpp: ValidatedDpp,
    e_p: np.ndarray,
    samples: Sequence[IndexSample],
) -> np.ndarray:
    """Volume-integral estimates of repulsive draws.

    ``I_S = sum_{i in S} f(x_i) / (n e_i K_ii / n)``; unbiased for ``I_n``.
    ``f_vals`` holds ``f`` at the cloud points; entry ``s`` is the
    estimate of ``samples[s]``.
    """
    f_vals = np.asarray(f_vals, dtype=float)
    e = _check_density(e_p, f_vals.shape[0])
    diag = _positive_diagonal(dpp)
    out = np.empty(len(samples))
    for s, smp in enumerate(samples):
        idx = np.array(smp.indices, dtype=np.intp)
        out[s] = float((f_vals[idx] / (e[idx] * diag[idx])).sum())
    return out


def quantile_relative_error(errors: Sequence[float], q: float) -> float:
    """Ceiling order statistic: value at sorted index ``ceil(q * len) - 1``."""
    vals = sorted(float(e) for e in errors)
    if not vals:
        raise ValueError("errors must be nonempty")
    if not 0.0 < q < 1.0:
        raise ValueError("quantile must be in (0, 1)")
    return vals[max(math.ceil(q * len(vals)) - 1, 0)]
