"""Point clouds over which the discrete point processes are defined.

A :class:`PointCloud` is an ordered list of ``n`` points in ``R^d``; the row
order is what ties matrix indices to points everywhere else in the package,
and each point implicitly carries weight ``1/n``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import SeededRng, as_generator

SPHERE_NORM_TOL = 1e-12


@dataclass(frozen=True)
class PointCloud:
    """Immutable ordered set of points; rows index points."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"points must be a 2-d array, got shape {pts.shape}")
        if pts.shape[1] < 1:
            raise ValueError("ambient dimension must be at least 1")
        if pts.size and not np.isfinite(pts).all():
            bad = np.argwhere(~np.isfinite(pts))[0]
            raise ValueError(f"non-finite coordinate at point {bad[0]}")
        pts = np.ascontiguousarray(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def sample_uniform_cube(n: int, d: int, rng: SeededRng) -> PointCloud:
    """Draw ``n`` iid points with coordinates uniform on [-1, 1]."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    gen = as_generator(rng)
    return PointCloud(gen.uniform(-1.0, 1.0, size=(n, d)))


def sample_uniform_sphere(n: int, rng: SeededRng) -> PointCloud:
    """Draw ``n`` iid points uniform on the unit sphere in R^3.

    Points are standard 3-d Gaussians normalized to unit length, which is
    exactly uniform on the sphere.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    gen = as_generator(rng)
    pts = gen.standard_normal(size=(n, 3))
    norms = np.linalg.norm(pts, axis=1)
    # a zero draw has probability zero but would divide by zero; redraw
    while (degenerate := norms < SPHERE_NORM_TOL).any():
        pts[degenerate] = gen.standard_normal(size=(int(degenerate.sum()), 3))
        norms = np.linalg.norm(pts, axis=1)
    return PointCloud(pts / norms[:, None])

