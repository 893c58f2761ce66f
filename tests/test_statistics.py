import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dpp_limits import (
    IndexSample,
    KernelMatrix,
    SeededRng,
    TestFunction,
    constant_kernel,
    det_bound_frobenius,
    det_bound_max,
    empirical_moments,
    enumerate_pmf,
    expected_linear_statistic,
    gaussian_kernel,
    gram_kernel,
    kernel_error,
    linear_statistic,
    measure_error,
    ope_kernel,
    random_valid_kernel,
    sample_dpp_many,
    sample_uniform_cube,
    validate_kernel,
)

ONE = TestFunction(1, lambda x: 1.0, sup_bound=1.0)
PAIR_ONE = TestFunction(2, lambda x, y: 1.0, sup_bound=1.0)


def cube(n, d=2, seed=0):
    return sample_uniform_cube(n, d, SeededRng(seed))


# --- linear_statistic ------------------------------------------------------


def test_linear_statistic_counts_points():
    cloud = cube(10)
    assert linear_statistic(ONE, cloud, IndexSample((1, 4, 7))) == 3.0


def test_linear_statistic_no_pairs_from_singleton():
    cloud = cube(10)
    assert linear_statistic(PAIR_ONE, cloud, IndexSample((2,))) == 0.0


def test_linear_statistic_ordered_distinct_pairs():
    cloud = cube(10)
    assert linear_statistic(PAIR_ONE, cloud, IndexSample((0, 2, 5, 8))) == 12.0


def test_linear_statistic_arity_exceeds_sample():
    phi3 = TestFunction(3, lambda x, y, z: 1.0, sup_bound=1.0)
    assert linear_statistic(phi3, cube(5), IndexSample((0, 1))) == 0.0


def test_linear_statistic_rejects_out_of_range():
    with pytest.raises(ValueError):
        linear_statistic(ONE, cube(3), IndexSample((5,)))


# --- expected_linear_statistic ---------------------------------------------


def test_expected_statistic_trace_formula():
    K = random_valid_kernel(7, SeededRng(1))
    cloud = cube(7)
    assert expected_linear_statistic(K, cloud, ONE) == pytest.approx(
        np.trace(K.entries) / 7
    )


def test_expected_statistic_projection_rank():
    n, m = 60, 6
    cloud = cube(n, seed=2)
    K = ope_kernel(cloud, m)
    assert expected_linear_statistic(K, cloud, ONE) == pytest.approx(m, abs=1e-8)


def test_expected_statistic_r1_keeps_factored_kernel_factored():
    n, m = 60, 6
    cloud = cube(n, seed=2)
    K = ope_kernel(cloud, m)
    phi = TestFunction(1, lambda x: float(x[0] ** 2), sup_bound=1.0)
    got = expected_linear_statistic(K, cloud, phi)
    assert K._entries is None  # no n x n matrix was built
    dense = expected_linear_statistic(KernelMatrix(K.entries), cloud, phi)
    assert got == pytest.approx(dense, rel=1e-12)


def _pmf_expectation(dpp, cloud, phi):
    pmf = enumerate_pmf(dpp)
    return sum(
        p * linear_statistic(phi, cloud, IndexSample(s)) for s, p in pmf.items() if p
    )


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_oracle_triangle_r1(seed):
    n = 8
    cloud = cube(n, seed=seed)
    K = random_valid_kernel(n, SeededRng(seed, 9))
    dpp = validate_kernel(K)
    phi = TestFunction(1, lambda x: float(x[0] - 0.5 * x[1] ** 2), sup_bound=1.5)
    assert abs(
        expected_linear_statistic(K, cloud, phi) - _pmf_expectation(dpp, cloud, phi)
    ) <= 1e-8


def test_oracle_triangle_r2():
    n = 7
    cloud = cube(n, seed=6)
    K = random_valid_kernel(n, SeededRng(16))
    dpp = validate_kernel(K)
    phi = TestFunction(2, lambda x, y: float(np.dot(x, y)), sup_bound=2.0)
    assert abs(
        expected_linear_statistic(K, cloud, phi) - _pmf_expectation(dpp, cloud, phi)
    ) <= 1e-8


def test_expected_statistic_rejects_infeasible():
    phi4 = TestFunction(4, lambda *p: 1.0, sup_bound=1.0)
    with pytest.raises(ValueError, match="budget"):
        expected_linear_statistic(random_valid_kernel(200, SeededRng(0)), cube(200), phi4)


def test_variance_identity_projection():
    # for projection kernels, the exact variance from the enumerated
    # distribution matches sum phi^2 Kii/n - sum phi_i phi_j (Kij/n)^2
    n, m = 9, 3
    cloud = cube(n, seed=7)
    K = ope_kernel(cloud, m)
    dpp = validate_kernel(K)
    phi = TestFunction(1, lambda x: float(x[0]), sup_bound=1.0)
    pmf = enumerate_pmf(dpp)
    vals, probs = [], []
    for s, p in pmf.items():
        vals.append(linear_statistic(phi, cloud, IndexSample(s)))
        probs.append(p)
    vals, probs = np.array(vals), np.array(probs)
    mean = float(vals @ probs)
    var_pmf = float((vals - mean) ** 2 @ probs)
    phiv = cloud.points[:, 0]
    Kn = K.entries / n
    var_formula = float(phiv**2 @ Kn.diagonal()) - float(phiv @ (Kn**2) @ phiv)
    assert abs(var_pmf - var_formula) <= 1e-8


def test_dpp_sample_mean_matches_expectation():
    n, draws = 8, 20_000
    cloud = cube(n, seed=8)
    K = random_valid_kernel(n, SeededRng(18))
    dpp = validate_kernel(K)
    phi = TestFunction(1, lambda x: float(x[0] + x[1]), sup_bound=2.0)
    vals = np.array(
        [
            linear_statistic(phi, cloud, s)
            for s in sample_dpp_many(dpp, SeededRng(19), draws)
        ]
    )
    raw, central = empirical_moments(vals, 2)
    band = 4.0 * math.sqrt(central[1] / draws)
    assert abs(raw[0] - expected_linear_statistic(K, cloud, phi)) <= band


# --- empirical_moments -----------------------------------------------------


def test_moments_constant_sequence():
    raw, central = empirical_moments([3.0, 3.0, 3.0], 2)
    assert raw[0] == 3.0
    assert raw[1] == 9.0
    assert central[1] == 0.0


def test_moments_two_values():
    raw, central = empirical_moments([0.0, 2.0], 2)
    assert raw[0] == 1.0
    assert central[1] == 1.0


def test_moments_rejects_empty():
    with pytest.raises(ValueError):
        empirical_moments([], 2)


# --- kernel_error ----------------------------------------------------------


def test_kernel_error_identical_kernels_zero():
    K = random_valid_kernel(10, SeededRng(21))
    cloud = cube(10, seed=9)
    phi = TestFunction(1, lambda x: float(x[0] ** 2), sup_bound=1.0)
    assert kernel_error(K, K, cloud, phi) == 0.0


def test_kernel_error_r1_trace_gap():
    cloud = cube(9, seed=10)
    K = random_valid_kernel(9, SeededRng(22))
    G = random_valid_kernel(9, SeededRng(23))
    gap = kernel_error(K, G, cloud, ONE)
    assert gap == pytest.approx(abs(np.trace(K.entries) - np.trace(G.entries)) / 9)


def test_kernel_error_below_entrywise_bound():
    # the r-tuple statistic gap is controlled by the worst subset
    # determinant gap times the L1 mass of phi under the product measure
    n, r = 50, 2
    cloud = cube(n, seed=11)
    gen = SeededRng(24).generator()
    lam1 = gen.uniform(0, n, n)
    K = random_valid_kernel(n, gen, eigenvalues=lam1)
    G = KernelMatrix(K.entries * 0.97)
    err = kernel_error(K, G, cloud, PAIR_ONE)
    lhs_max, rhs = det_bound_max(K.entries, G.entries, r)
    # |phi| <= 1 so the L1 norm under the n^-r-weighted counting measure is 1
    assert err <= rhs


# --- measure_error ---------------------------------------------------------


def test_measure_error_same_cloud_zero():
    cloud = cube(40, seed=12)
    phi = TestFunction(1, lambda x: float(x[0]), sup_bound=1.0)
    assert measure_error(gaussian_kernel(), cloud, phi, cloud) == 0.0


def test_measure_error_constant_diagonal_r1():
    phi = TestFunction(1, lambda x: 1.0, sup_bound=1.0)
    a, b = cube(30, seed=13), cube(500, seed=14)
    assert measure_error(gaussian_kernel(amplitude=0.7), a, phi, b) == pytest.approx(0.0)


def test_measure_error_decreases_with_n():
    # averaged over replicates the gap to a large reference draw shrinks
    # like 1/sqrt(n); final mean error at most half the initial one
    phi = TestFunction(1, lambda x: float(x[0] ** 2 + 0.5 * x[1]), sup_bound=1.5)
    kern = gaussian_kernel()
    reference = sample_uniform_cube(100_000, 2, SeededRng(99))
    means = []
    for n in (100, 400, 1600):
        errs = [
            measure_error(
                kern, sample_uniform_cube(n, 2, SeededRng(50, rep)), phi, reference
            )
            for rep in range(30)
        ]
        means.append(np.mean(errs))
    assert means[2] < means[1] < means[0]
    assert means[2] <= means[0] / 2


# --- determinant stability bounds ------------------------------------------


def test_det_bound_max_identical():
    A = SeededRng(60).generator().standard_normal((6, 6))
    assert det_bound_max(A, A, 2) == (0.0, 0.0)


def test_det_bound_max_r1():
    gen = SeededRng(61).generator()
    A = gen.standard_normal((5, 5))
    B = A + 0.01 * gen.standard_normal((5, 5))
    lhs, rhs = det_bound_max(A, B, 1)
    assert lhs == pytest.approx(np.abs(A.diagonal() - B.diagonal()).max())
    assert lhs <= rhs


def test_det_bound_max_random_pairs():
    gen = SeededRng(62).generator()
    for _ in range(200):
        A = gen.standard_normal((12, 12))
        B = A + gen.standard_normal((12, 12)) * gen.uniform(0.01, 1.0)
        for r in (2, 3):
            lhs, rhs = det_bound_max(A, B, r)
            assert lhs <= rhs * (1 + 1e-12)


def test_det_bound_max_sampled_subsets():
    gen = SeededRng(63).generator()
    A = gen.standard_normal((40, 40))
    B = A + 0.1 * gen.standard_normal((40, 40))
    lhs, rhs = det_bound_max(A, B, 5, rng=SeededRng(64))  # C(40,5) > 1e6 -> sampled
    assert lhs <= rhs


@settings(max_examples=60, deadline=None)
@given(
    A=arrays(np.float64, (4, 4), elements=st.floats(-2, 2)),
    B=arrays(np.float64, (4, 4), elements=st.floats(-2, 2)),
    r=st.integers(1, 3),
)
def test_det_bound_max_property(A, B, r):
    lhs, rhs = det_bound_max(A, B, r)
    assert lhs <= rhs + 1e-9 * max(1.0, rhs)


def test_det_bound_frobenius_identical():
    A = SeededRng(65).generator().standard_normal((6, 6))
    assert det_bound_frobenius(A, A, 3) == (0.0, 0.0, 0.0)


def test_det_bound_frobenius_r1_signed_form():
    # at r = 1 the signed aggregate is exactly |tr A - tr B| and the bound
    # holds with equality slack; the absolute sum can exceed the bound
    A = np.diag([1.0, -1.0])
    B = np.zeros((2, 2))
    signed, absolute, rhs = det_bound_frobenius(A, B, 1)
    assert signed == 0.0
    assert absolute == 2.0
    assert rhs == pytest.approx(math.sqrt(2.0))
    assert absolute > rhs  # the absolute form genuinely fails here


def test_det_bound_frobenius_psd_pairs():
    gen = SeededRng(66).generator()
    ratios = []
    for _ in range(200):
        X = gen.standard_normal((10, 10))
        A = X @ X.T / 10
        Y = X + 0.3 * gen.standard_normal((10, 10))
        B = Y @ Y.T / 10
        for r in (1, 2, 3):
            signed, absolute, rhs = det_bound_frobenius(A, B, r)
            # at r = 1 the bound can be an exact equality; allow ulp slack
            assert signed <= rhs * (1 + 1e-12)
            if rhs > 0:
                ratios.append(absolute / rhs)
    assert ratios  # recorded, not asserted


def test_det_bound_frobenius_rejects_large_n():
    A = np.zeros((15, 15))
    with pytest.raises(ValueError, match="n <= 14"):
        det_bound_frobenius(A, A, 2)


def test_constant_kernel_gram_zero_kernel_error():
    cloud = cube(12, seed=15)
    G = gram_kernel(constant_kernel(1.0), cloud)
    phi = TestFunction(1, lambda x: float(x[0]), sup_bound=1.0)
    assert kernel_error(G, G, cloud, phi) == 0.0


def test_bound_report_csv_schema():
    from dpp_limits import SeededRng, bound_report_csv

    csv = bound_report_csv(5, 7, (1, 2, 3), SeededRng(70))
    lines = csv.strip().splitlines()
    assert lines[0] == "trial,r,bound,lhs,rhs,ratio,lhs_abs"
    assert len(lines) == 1 + 5 * 3 * 2
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[2] in ("entrywise", "frobenius_signed")
        lhs, rhs = float(cells[3]), float(cells[4])
        assert lhs <= rhs * (1 + 1e-12)
    # deterministic given the stream
    assert csv == bound_report_csv(5, 7, (1, 2, 3), SeededRng(70))
