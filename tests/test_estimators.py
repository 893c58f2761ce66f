import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpp_limits import (
    KernelMatrix,
    PointCloud,
    SeededRng,
    coreset_estimates,
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
    sphere_integrals,
    true_loss,
    validate_kernel,
)


def cube(n, d=2, seed=0):
    return sample_uniform_cube(n, d, SeededRng(seed))


def indices(samples):
    # the count x m index array of a projection kernel's draws
    return np.array([s.indices for s in samples])


def dpp_intensity(dpp):
    return dpp.kernel.diagonal() / dpp.n


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
    draws = draw_with_replacement(3, p, SeededRng(1), 1)
    est = coreset_estimates(cloud, theta[None], draws, 3 * p)
    assert est.shape == (1, 1)
    assert est[0, 0] == pytest.approx(true_loss(cloud, theta))


def test_iid_estimate_m1_formula():
    cloud = cube(6, seed=6)
    theta = np.array([0.2, -0.3])
    p = sensitivity_scores(cloud)
    draws = draw_with_replacement(1, p, SeededRng(2), 1)
    est = coreset_estimates(cloud, theta[None], draws, 1 * p)
    j = draws[0, 0]
    expect = float(((cloud.points[j] - theta) ** 2).sum()) / p[j]
    assert est[0, 0] == pytest.approx(expect)


def test_iid_estimate_unbiased():
    cloud = cube(30, seed=7)
    theta = np.array([0.1, 0.4])
    target = true_loss(cloud, theta)
    p = sensitivity_scores(cloud)
    reps = 100_000
    draws = draw_with_replacement(4, p, SeededRng(8), reps)
    vals = coreset_estimates(cloud, theta[None], draws, 4 * p)[:, 0]
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
        est = coreset_estimates(cloud, thetas, indices(samples), dpp_intensity(dpp))
        assert est.shape == (1, len(thetas))
        assert est[0] == pytest.approx([true_loss(cloud, t) for t in thetas])


def test_dpp_estimate_projection_cardinality():
    n, m = 40, 6
    cloud = cube(n, seed=10)
    dpp = validate_kernel(ope_kernel(cloud, m))
    samples = [sample_dpp(dpp, SeededRng(4, i)) for i in range(20)]
    est = coreset_estimates(cloud, np.zeros((1, 2)), indices(samples), dpp_intensity(dpp))
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
    vals = coreset_estimates(cloud, theta[None], indices(samples), dpp_intensity(dpp))[:, 0]
    band = 4.0 * vals.std() / math.sqrt(reps)
    assert abs(vals.mean() - target) <= band


def test_dpp_estimate_rejects_zero_diagonal():
    n = 5
    K = np.zeros((n, n))
    K[0, 0] = 1.0
    dpp = validate_kernel(KernelMatrix(K))
    samples = indices(sample_dpp_many(dpp, SeededRng(5), 1))
    with pytest.raises(ValueError, match="diagonal"):
        coreset_estimates(cube(n, seed=13), np.zeros((1, 2)), samples, dpp_intensity(dpp))


# --- sphere estimators -------------------------------------------------------


def _sphere_setup(n=60, seed=20):
    cloud = sample_uniform_sphere(n, SeededRng(seed))
    h2 = (math.log(n) / n) ** 0.25
    e_p = kde_density(cloud, h2, normalized_indicator_profile(2), 2)
    return cloud, e_p


def test_sphere_zero_function_zero():
    cloud, e_p = _sphere_setup()
    p = e_p / e_p.sum()
    draws = draw_with_replacement(5, p, SeededRng(1), 1)
    est = sphere_integrals(np.zeros(cloud.n), e_p, draws, 5 * p)
    assert est[0] == 0.0


def test_sphere_dpp_full_kernel_exact():
    cloud, e_p = _sphere_setup(n=20)
    n = cloud.n
    dpp = validate_kernel(KernelMatrix(n * np.eye(n)))
    f_vals = cloud.points[:, 2] ** 2
    target = float((f_vals / (n * e_p)).sum())
    samples = indices(sample_dpp_many(dpp, SeededRng(2), 1))
    est = sphere_integrals(f_vals, e_p, samples, dpp_intensity(dpp))
    assert est[0] == pytest.approx(target)


def test_sphere_estimators_unbiased_for_discrete_target():
    cloud, e_p = _sphere_setup(n=40)
    n = cloud.n
    f_vals = cloud.points[:, 2] ** 2
    target = float((f_vals / (n * e_p)).sum())
    m = 6
    p = e_p / e_p.sum()
    reps = 100_000
    draws = draw_with_replacement(m, p, SeededRng(3), reps)
    vals = sphere_integrals(f_vals, e_p, draws, m * p)
    band = 4.0 * vals.std() / math.sqrt(reps)
    assert abs(vals.mean() - target) <= band

    dpp = validate_kernel(ope_kernel(cloud, m))
    samples = indices(sample_dpp_many(dpp, SeededRng(4), reps))
    dvals = sphere_integrals(f_vals, e_p, samples, dpp_intensity(dpp))
    band = 4.0 * dvals.std() / math.sqrt(reps)
    assert abs(dvals.mean() - target) <= band


def test_sphere_rejects_nonpositive_density():
    cloud, e_p = _sphere_setup(n=10)
    bad = e_p.copy()
    bad[3] = 0.0
    with pytest.raises(ValueError, match="density"):
        sphere_integrals(np.ones(cloud.n), bad, np.empty((0, 2), dtype=np.intp), 2 * e_p / e_p.sum())


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
    draws = draw_with_replacement(100, p, SeededRng(9), 1)
    assert draws.shape == (1, 100)
    assert np.bincount(draws[0], minlength=3).sum() == 100
    assert ((draws >= 0) & (draws < 3)).all()


@pytest.mark.parametrize("count", [0, 1, 1000])
@pytest.mark.parametrize("m", [1, 4, 256])
def test_draw_with_replacement_is_the_choice_stream(m, count):
    # count draws in one call are count calls of gen.choice, index for
    # index, and leave the generator where those calls leave it; a numpy
    # release that changes choice fails here
    p = SeededRng(10).generator().uniform(0.0, 1.0, 37)
    p[[0, 17]] = 0.0
    p /= p.sum()
    gen, ref = SeededRng(11).generator(), SeededRng(11).generator()
    draws = draw_with_replacement(m, p, gen, count)
    expect = [ref.choice(p.size, size=m, p=p) for _ in range(count)]
    assert draws.shape == (count, m) and draws.dtype == np.intp
    assert np.array_equal(draws, np.reshape(expect, (count, m)))
    assert gen.random() == ref.random()


@pytest.mark.parametrize(
    "m, p, count",
    [
        (2, [0.5, math.nan, 0.5], 1),
        (2, [0.6, -0.1, 0.5], 1),
        (2, [[0.5, 0.5]], 1),
        (2, [0.5, 0.5 + 1e-7], 1),
        (2, [], 1),
        (0, [0.5, 0.5], 1),
        (2, [0.5, 0.5], -1),
    ],
    ids=["nan", "negative", "2d", "sum-off-1e-7", "empty", "m-zero", "count-negative"],
)
def test_draw_with_replacement_input_checks(m, p, count):
    with pytest.raises(ValueError):
        draw_with_replacement(m, np.array(p), SeededRng(12), count)


def test_draw_with_replacement_sum_slack_as_choice():
    # choice accepts a sum within sqrt(eps) of 1, and so does this
    p = np.array([0.5, 0.5 + 1e-9])
    assert draw_with_replacement(3, p, SeededRng(13), 2).shape == (2, 3)
    SeededRng(13).generator().choice(2, size=3, p=p)


def test_estimators_reject_zero_intensity():
    # a zero-probability point is never drawn, so its share of the target
    # would be missing from every estimate
    cloud = cube(4, seed=14)
    p = np.array([0.5, 0.0, 0.25, 0.25])
    draws = draw_with_replacement(3, p, SeededRng(15), 5)
    with pytest.raises(ValueError, match="intensity"):
        coreset_estimates(cloud, np.zeros((1, 2)), draws, 3 * p)
    with pytest.raises(ValueError, match="intensity"):
        sphere_integrals(np.ones(4), np.ones(4), draws, 3 * p)
