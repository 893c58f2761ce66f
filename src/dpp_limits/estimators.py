"""Downstream estimators: subsampled 1-means losses and sphere integrals.

Both experiments compare two sampling designs, independent draws with
replacement and a repulsive DPP sample, under one Horvitz-Thompson
estimator per task: each sampled point is weighted by the inverse of its
expected count in one draw, which makes the estimate unbiased for its
target.  The draws are the rows of a ``count x m`` index array, and each
estimator returns one estimate per row.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

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
    m: int, probabilities: np.ndarray, rng: SeededRng | np.random.Generator, count: int
) -> np.ndarray:
    """``count`` draws of ``m`` indices iid from ``probabilities``.

    Returns a ``count x m`` index array; row ``s`` is draw ``s`` in draw
    order, repeats included.  The indices and the generator's end state
    are those of ``count`` calls of ``gen.choice(n, size=m, p=p)``, which
    inverts the same normalized CDF at ``m`` uniforms per draw; so are
    its checks on ``p``.
    """
    if m < 1:
        raise ValueError("sample size must be at least 1")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probabilities must be a nonempty 1-d array")
    if np.isnan(p).any():
        raise ValueError("probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("probabilities must be nonnegative")
    if abs(p.sum() - 1.0) > math.sqrt(np.finfo(float).eps):
        raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(as_generator(rng).random((count, m)), side="right")


def loss_on_grid(points: np.ndarray, weights: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Weighted 1-means loss ``sum_i w_i ||x_i - theta||^2`` at every row of ``thetas``.

    Expanded as ``c - 2 theta.b + a ||theta||^2`` with ``a = sum w``,
    ``b = sum w x`` and ``c = sum w ||x||^2``, so a grid costs one pass
    over the points.  Leading axes of ``points`` (``... x k x d``) and
    ``weights`` (``... x k``) are batch axes, one weighted set each; the
    result is ``... x len(thetas)``.
    """
    w = weights[..., None, :]
    a = weights.sum(axis=-1)[..., None]
    b = (w @ points)[..., 0, :]
    c = (w @ (points * points).sum(axis=-1)[..., None])[..., 0]
    return c - 2.0 * b @ thetas.T + a * (thetas * thetas).sum(axis=1)


_INTENSITY = "intensity (the kernel diagonal over n, or m p for iid draws)"


def _positive(values: np.ndarray, n: int, what: str) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"{what} must match the cloud size")
    if (v <= 0).any():
        raise ValueError(f"{what} nonpositive at index {int(np.argmin(v))}")
    return v


def coreset_estimates(
    cloud: PointCloud, thetas: np.ndarray, samples: np.ndarray, intensity: np.ndarray
) -> np.ndarray:
    """Horvitz-Thompson loss estimates of each draw on a theta grid.

    ``L_S = sum_{j in S} ||x_j - theta||^2 / intensity_j``, where
    ``intensity_j`` is point ``j``'s expected count in one draw: ``m p_j``
    for ``m`` iid draws from ``p``, ``K_jj / n`` for a DPP.  Each must be
    strictly positive, or a point that is never sampled biases the sum.
    Row ``s`` of ``samples`` (``count x m`` indices) gives row ``s`` of
    the result, its estimates at every row of ``thetas``.
    """
    lam = _positive(intensity, cloud.n, _INTENSITY)
    thetas = np.asarray(thetas, dtype=float)
    return loss_on_grid(cloud.points[samples], 1.0 / lam[samples], thetas)


def sphere_integrals(
    f_vals: np.ndarray, e_p: np.ndarray, samples: np.ndarray, intensity: np.ndarray
) -> np.ndarray:
    """Horvitz-Thompson volume-integral estimates of each draw.

    ``I_S = sum_{j in S} f(x_j) / (n e_j intensity_j)``, with the
    intensity of :func:`coreset_estimates`; unbiased for
    ``I_n = sum_j f(x_j) / (n e_j)``.  ``f_vals`` holds ``f`` at the
    ``n`` cloud points; entry ``s`` is the estimate of row ``s`` of
    ``samples``.
    """
    f_vals = np.asarray(f_vals, dtype=float)
    n = f_vals.shape[0]
    e = _positive(e_p, n, "density estimate")
    lam = _positive(intensity, n, _INTENSITY)
    return ((f_vals / (n * e))[samples] / lam[samples]).sum(axis=-1)


def quantile_relative_error(errors: Sequence[float], q: float) -> float:
    """Ceiling order statistic: value at sorted index ``ceil(q * len) - 1``."""
    vals = sorted(float(e) for e in errors)
    if not vals:
        raise ValueError("errors must be nonempty")
    if not 0.0 < q < 1.0:
        raise ValueError("quantile must be in (0, 1)")
    return vals[max(math.ceil(q * len(vals)) - 1, 0)]
