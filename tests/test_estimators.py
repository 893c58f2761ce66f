import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpp_limits import (
    KernelMatrix,
    PointCloud,
    SeededRng,
    coreset_estimate_dpp,
    coreset_estimate_iid,
    draw_with_replacement,
    kde_density,
    normalized_indicator_profile,
    ope_kernel,
    quantile_relative_error,
    sample_dpp,
    sample_dpp_many,
    sample_uniform_cube,
    sample_uniform_sphere,
    sensitivity_scores,
    sphere_integral_dpp,
    sphere_integral_iid,
    true_loss,
    validate_kernel,
)


def cube(n, d=2, seed=0):
    return sample_uniform_cube(n, d, SeededRng(seed))


# --- true_loss --------------------------------------------------------------


def test_true_loss_single_point_at_theta():
    cloud = PointCloud(np.array([[0.3, -0.1]]))
    assert true_loss(cloud, np.array([0.3, -0.1])) == 0.0


def test_true_loss_two_points():
    cloud = PointCloud(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert true_loss(cloud, np.zeros(2)) == 2.0


def test_true_loss_minimized_at_centroid():
    cloud = cube(50, seed=3)
    centroid = cloud.points.mean(axis=0)
    base = true_loss(cloud, centroid)
    gen = SeededRng(4).generator()
    for _ in range(25):
        assert base <= true_loss(cloud, centroid + 0.1 * gen.standard_normal(2))


def test_true_loss_dimension_mismatch():
    with pytest.raises(ValueError):
        true_loss(cube(5), np.zeros(3))


# --- sensitivity_scores ------------------------------------------------------


def test_sensitivity_equal_norms_uniform():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    assert np.allclose(sensitivity_scores(PointCloud(pts)), 0.25)


def test_sensitivity_hand_computed():
    # norms 0 and 2 give v = 1, unnormalized (1, 3)/2, so p = (1/4, 3/4)
    pts = np.array([[0.0, 0.0], [math.sqrt(2.0), 0.0]])
    p = sensitivity_scores(PointCloud(pts))
    assert np.allclose(p, [0.25, 0.75])


def test_sensitivity_sums_to_one():
    p = sensitivity_scores(cube(123, seed=5))
    assert abs(p.sum() - 1.0) <= 1e-12
    assert (p > 0).all()


def test_sensitivity_degenerate_cloud_uniform():
    pts = np.zeros((4, 2))
    assert np.allclose(sensitivity_scores(PointCloud(pts)), 0.25)


# --- coreset estimators ------------------------------------------------------


def test_iid_estimate_single_point_exact():
    cloud = PointCloud(np.array([[0.5, 0.5]]))
    theta = np.array([0.0, 1.0])
    p = np.array([1.0])
    draws = [draw_with_replacement(3, p, SeededRng(1))]
    est = coreset_estimate_iid(cloud, theta[None], 3, p, draws)
    assert est.shape == (1, 1)
    assert est[0, 0] == pytest.approx(true_loss(cloud, theta))


def test_iid_estimate_m1_formula():
    cloud = cube(6, seed=6)
    theta = np.array([0.2, -0.3])
    p = sensitivity_scores(cloud)
    smp = draw_with_replacement(1, p, SeededRng(2))
    est = coreset_estimate_iid(cloud, theta[None], 1, p, [smp])
    j = smp.indices[0]
    expect = float(((cloud.points[j] - theta) ** 2).sum()) / p[j]
    assert est[0, 0] == pytest.approx(expect)


def test_iid_estimate_unbiased():
    cloud = cube(30, seed=7)
    theta = np.array([0.1, 0.4])
    target = true_loss(cloud, theta)
    p = sensitivity_scores(cloud)
    gen = SeededRng(8).generator()
    reps = 100_000
    draws = [draw_with_replacement(4, p, gen) for _ in range(reps)]
    vals = coreset_estimate_iid(cloud, theta[None], 4, p, draws)[:, 0]
    band = 4.0 * vals.std() / math.sqrt(reps)
    assert abs(vals.mean() - target) <= band


def test_dpp_estimate_full_kernel_exact():
    n = 10
    cloud = cube(n, seed=9)
    dpp = validate_kernel(KernelMatrix(n * np.eye(n)))
    samples = sample_dpp_many(dpp, SeededRng(3), 1)
    assert samples[0].indices == tuple(range(n))
    # one theta, and a grid of them as the coreset runner evaluates
    grid = SeededRng(14).generator().uniform(-1.0, 1.0, (50, 2))
    for thetas in (np.array([[-0.2, 0.2]]), grid):
        est = coreset_estimate_dpp(cloud, thetas, dpp, samples)
        assert est.shape == (1, len(thetas))
        assert est[0] == pytest.approx([true_loss(cloud, t) for t in thetas])


def test_dpp_estimate_projection_cardinality():
    n, m = 40, 6
    cloud = cube(n, seed=10)
    dpp = validate_kernel(ope_kernel(cloud, m))
    samples = [sample_dpp(dpp, SeededRng(4, i)) for i in range(20)]
    est = coreset_estimate_dpp(cloud, np.zeros((1, 2)), dpp, samples)
    assert all(len(smp) == m for smp in samples)
    assert (est > 0).all()


def test_dpp_estimate_unbiased():
    n, m = 24, 4
    cloud = cube(n, seed=11)
    theta = np.array([0.3, 0.1])
    target = true_loss(cloud, theta)
    dpp = validate_kernel(ope_kernel(cloud, m))
    reps = 100_000
    samples = sample_dpp_many(dpp, SeededRng(12), reps)
    vals = coreset_estimate_dpp(cloud, theta[None], dpp, samples)[:, 0]
    band = 4.0 * vals.std() / math.sqrt(reps)
    assert abs(vals.mean() - target) <= band


def test_dpp_estimate_rejects_zero_diagonal():
    n = 5
    K = np.zeros((n, n))
    K[0, 0] = 1.0
    dpp = validate_kernel(KernelMatrix(K))
    samples = sample_dpp_many(dpp, SeededRng(5), 1)
    with pytest.raises(ValueError, match="diagonal"):
        coreset_estimate_dpp(cube(n, seed=13), np.zeros((1, 2)), dpp, samples)


# --- sphere estimators -------------------------------------------------------


def _sphere_setup(n=60, seed=20):
    cloud = sample_uniform_sphere(n, SeededRng(seed))
    h2 = (math.log(n) / n) ** 0.25
    e_p = kde_density(cloud, h2, normalized_indicator_profile(2), 2)
    return cloud, e_p


def test_sphere_zero_function_zero():
    cloud, e_p = _sphere_setup()
    p = e_p / e_p.sum()
    draws = [draw_with_replacement(5, p, SeededRng(1))]
    est = sphere_integral_iid(np.zeros(cloud.n), 5, p, e_p, draws)
    assert est[0] == 0.0


def test_sphere_dpp_full_kernel_exact():
    cloud, e_p = _sphere_setup(n=20)
    n = cloud.n
    dpp = validate_kernel(KernelMatrix(n * np.eye(n)))
    f_vals = cloud.points[:, 2] ** 2
    target = float((f_vals / (n * e_p)).sum())
    est = sphere_integral_dpp(f_vals, dpp, e_p, sample_dpp_many(dpp, SeededRng(2), 1))
    assert est[0] == pytest.approx(target)


def test_sphere_estimators_unbiased_for_discrete_target():
    cloud, e_p = _sphere_setup(n=40)
    n = cloud.n
    f_vals = cloud.points[:, 2] ** 2
    target = float((f_vals / (n * e_p)).sum())
    m = 6
    p = e_p / e_p.sum()
    gen = SeededRng(3).generator()
    reps = 100_000
    draws = [draw_with_replacement(m, p, gen) for _ in range(reps)]
    vals = sphere_integral_iid(f_vals, m, p, e_p, draws)
    band = 4.0 * vals.std() / math.sqrt(reps)
    assert abs(vals.mean() - target) <= band

    dpp = validate_kernel(ope_kernel(cloud, m))
    dvals = sphere_integral_dpp(f_vals, dpp, e_p, sample_dpp_many(dpp, SeededRng(4), reps))
    band = 4.0 * dvals.std() / math.sqrt(reps)
    assert abs(dvals.mean() - target) <= band


def test_sphere_rejects_nonpositive_density():
    cloud, e_p = _sphere_setup(n=10)
    bad = e_p.copy()
    bad[3] = 0.0
    with pytest.raises(ValueError, match="density"):
        sphere_integral_iid(np.ones(cloud.n), 2, e_p / e_p.sum(), bad, [])


# --- quantile ----------------------------------------------------------------


def test_quantile_constant_sequence():
    assert quantile_relative_error([2.5] * 7, 0.9) == 2.5


def test_quantile_order_statistic():
    assert quantile_relative_error(list(range(1, 101)), 0.9) == 90


def test_quantile_is_element_and_above_median():
    gen = SeededRng(7).generator()
    vals = gen.uniform(0, 1, 37).tolist()
    q = quantile_relative_error(vals, 0.9)
    assert q in vals
    assert q >= np.median(vals)


@settings(max_examples=50, deadline=None)
@given(
    vals=st.lists(st.floats(0, 100), min_size=1, max_size=40),
    q1=st.floats(0.05, 0.95),
    q2=st.floats(0.05, 0.95),
)
def test_quantile_monotone(vals, q1, q2):
    lo, hi = min(q1, q2), max(q1, q2)
    assert quantile_relative_error(vals, lo) <= quantile_relative_error(vals, hi)


def test_draw_with_replacement_counts():
    p = np.array([0.25, 0.25, 0.5])
    smp = draw_with_replacement(100, p, SeededRng(9))
    assert sum(smp.multiplicities) == 100
    assert all(m >= 1 for m in smp.multiplicities)
