import math

import numpy as np
import pytest

from dpp_limits import (
    PointCloud,
    SeededRng,
    sample_uniform_cube,
    sample_uniform_sphere,
)


def test_empty_cloud_keeps_dimension():
    cloud = sample_uniform_cube(0, 2, SeededRng(0))
    assert cloud.n == 0
    assert cloud.dim == 2


def test_cube_support():
    cloud = sample_uniform_cube(1000, 2, SeededRng(7))
    assert cloud.points.min() >= -1.0
    assert cloud.points.max() <= 1.0


def test_cube_mean_within_clt_band():
    # Var(U[-1,1]) = 1/3, so the sample mean of each coordinate lies within
    # 4 * (1/sqrt(3)) / sqrt(n) of 0 with overwhelming probability
    n = 100_000
    cloud = sample_uniform_cube(n, 1, SeededRng(7))
    band = 4.0 * (1.0 / math.sqrt(3.0)) / math.sqrt(n)
    assert abs(cloud.points.mean()) <= band


def test_cube_variance_within_clt_band():
    n = 100_000
    cloud = sample_uniform_cube(n, 2, SeededRng(3))
    # Var of U[-1,1]^2 values: E x^4 - (E x^2)^2 = 1/5 - 1/9 = 4/45
    band = 4.0 * math.sqrt(4.0 / 45.0) / math.sqrt(n)
    for j in range(2):
        assert abs(np.mean(cloud.points[:, j] ** 2) - 1.0 / 3.0) <= band


def test_sphere_norms_unit():
    cloud = sample_uniform_sphere(1, SeededRng(0))
    assert abs(np.linalg.norm(cloud.points[0]) - 1.0) <= 1e-12
    big = sample_uniform_sphere(5000, SeededRng(5))
    assert np.abs(np.linalg.norm(big.points, axis=1) - 1.0).max() <= 1e-12


def test_sphere_z_squared_mean():
    # by symmetry x^2 + y^2 + z^2 = 1 forces E z^2 = 1/3
    n = 200_000
    cloud = sample_uniform_sphere(n, SeededRng(1))
    z2 = cloud.points[:, 2] ** 2
    band = 4.0 * z2.std() / math.sqrt(n)
    assert abs(z2.mean() - 1.0 / 3.0) <= band


def test_sphere_points_distinct():
    cloud = sample_uniform_sphere(3, SeededRng(2))
    assert len({tuple(p) for p in cloud.points}) == 3


def test_determinism_across_generator_instances():
    a = sample_uniform_cube(50, 3, SeededRng(9, 4))
    b = sample_uniform_cube(50, 3, SeededRng(9, 4))
    assert np.array_equal(a.points, b.points)
    c = sample_uniform_cube(50, 3, SeededRng(9, 5))
    assert not np.array_equal(a.points, c.points)


def test_substreams_differ():
    base = SeededRng(1)
    a = base.substream(1, 2)
    b = base.substream(1, 3)
    assert a != b
    assert a == base.substream(1, 2)


def test_cloud_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        PointCloud(np.array([1.0, 2.0, 3.0]))


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        sample_uniform_cube(-1, 2, SeededRng(0))
    with pytest.raises(ValueError):
        sample_uniform_sphere(-1, SeededRng(0))
