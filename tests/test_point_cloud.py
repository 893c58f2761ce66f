import math

import numpy as np
import pytest

from dpp_limits import (
    PointCloud,
    SeededRng,
    load_kernel,
    load_points,
    sample_uniform_cube,
    sample_uniform_sphere,
    save_points,
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


def test_roundtrip_bit_exact(tmp_path):
    cloud = sample_uniform_cube(5, 2, SeededRng(13))
    path = str(tmp_path / "pts.txt")
    save_points(cloud, path)
    back = load_points(path)
    assert back.dim == 2
    assert np.array_equal(back.points, cloud.points)


def test_ragged_rows_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("d=2\n0.5 0.25\n1.0\n")
    with pytest.raises(ValueError, match="line 3.*dimension mismatch"):
        load_points(str(path))


def test_header_only_file_is_empty_cloud(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("d=3\n")
    cloud = load_points(str(path))
    assert cloud.n == 0
    assert cloud.dim == 3


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "nohdr.txt"
    path.write_text("0.5 0.25\n")
    with pytest.raises(ValueError, match="line 1"):
        load_points(str(path))


def test_unparseable_coordinate_names_line(tmp_path):
    path = tmp_path / "tok.txt"
    path.write_text("d=2\n0.5 0.25\n0.1 zzz\n")
    with pytest.raises(ValueError, match="line 3"):
        load_points(str(path))


# points and kernels share one text-matrix reader; its errors name the line
_LOADERS = {"points": (load_points, "d"), "kernel": (load_kernel, "n")}


@pytest.mark.parametrize("fmt", sorted(_LOADERS))
@pytest.mark.parametrize(
    "text,match",
    [
        ("0.5 0.25\n0.25 0.5\n", "line 1: expected header"),
        ("{key}=two\n0.5 0.25\n0.25 0.5\n", "line 1: malformed"),
        ("{key}=-1\n", "line 1: column count must be at least"),
        ("{key}=2\n0.5 0.25\n1.0\n", "line 3: dimension mismatch"),
        ("{key}=2\n0.5 0.25\n0.1 zzz\n", "line 3: unparseable entry"),
    ],
    ids=["missing-header", "malformed-header", "negative-size", "ragged-row", "bad-entry"],
)
def test_text_matrix_loader_errors(tmp_path, fmt, text, match):
    load, key = _LOADERS[fmt]
    path = tmp_path / "m.txt"
    path.write_text(text.format(key=key))
    with pytest.raises(ValueError, match=match):
        load(str(path))


def test_kernel_load_rejects_row_count(tmp_path):
    path = tmp_path / "k.txt"
    path.write_text("n=2\n0.5 0.25\n")
    with pytest.raises(ValueError, match="expected 2 rows, got 1"):
        load_kernel(str(path))


def test_cloud_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        PointCloud(np.array([1.0, 2.0, 3.0]))


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        sample_uniform_cube(-1, 2, SeededRng(0))
    with pytest.raises(ValueError):
        sample_uniform_sphere(-1, SeededRng(0))
