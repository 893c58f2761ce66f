import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpp_limits import (
    AdjacencyMatrix,
    ContinuousKernel,
    KernelMatrix,
    MultiIndex,
    PointCloud,
    SeededRng,
    constant_kernel,
    enumerate_pmf,
    gaussian_kernel,
    graded_monomials,
    gram_kernel,
    harmonic_kernel,
    harmonic_kernel_details,
    harmonic_kernel_family,
    kde_density,
    latent_graph,
    load_kernel,
    normalized_indicator_profile,
    ope_kernel,
    sample_dpp_many,
    sample_uniform_cube,
    sample_uniform_sphere,
    save_kernel,
    usvt_kernel,
    usvt_retained_rank,
    validate_kernel,
)
from dpp_limits.kernel_builders import squared_distances


def cube(n, d, seed=0, stream=0):
    return sample_uniform_cube(n, d, SeededRng(seed, stream))


# --- gram_kernel -----------------------------------------------------------


def test_gram_constant_kernel_all_ones():
    G = gram_kernel(constant_kernel(1.0), cube(3, 2))
    assert np.array_equal(G.entries, np.ones((3, 3)))


def test_gram_gaussian_duplicate_points():
    pts = np.array([[0.5, 0.5], [0.5, 0.5], [0.0, 0.0]])
    G = gram_kernel(gaussian_kernel(), PointCloud(pts))
    assert G.entries[0, 1] == pytest.approx(1.0)
    assert G.entries[0, 0] == pytest.approx(1.0)


def test_gram_exactly_symmetric():
    G = gram_kernel(gaussian_kernel(bandwidth=0.7), cube(40, 3, seed=5))
    assert np.array_equal(G.entries, G.entries.T)


def test_gram_rejects_non_finite_with_indices():
    bad = ContinuousKernel(fn=lambda x, y: math.inf if (x != y).any() else 1.0, max_abs=1.0)
    with pytest.raises(ValueError, match=r"point pair \(0, 1\)"):
        gram_kernel(bad, cube(3, 1))


def test_kernel_matrix_rejects_asymmetry():
    M = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ValueError, match="asymmetry"):
        KernelMatrix(M)


# --- graded monomials ------------------------------------------------------


def _oracle_graded(d, max_total):
    # enumerate-and-sort reference: all multi-indices of total degree
    # <= max_total, sorted by (total degree, lexicographic)
    all_idx = [
        beta
        for beta in itertools.product(range(max_total + 1), repeat=d)
        if sum(beta) <= max_total
    ]
    return sorted(all_idx, key=lambda b: (sum(b), b))


def test_graded_monomials_univariate():
    assert [mi.degrees for mi in graded_monomials(1, 3)] == [(0,), (1,), (2,)]


def test_graded_monomials_trivial():
    assert [mi.degrees for mi in graded_monomials(3, 1)] == [(0, 0, 0)]


def test_graded_monomials_bivariate_against_enumeration_oracle():
    got = [mi.degrees for mi in graded_monomials(2, 4)]
    assert got == _oracle_graded(2, 2)[:4]
    assert got[0] == (0, 0)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 4), m=st.integers(1, 30))
def test_graded_monomials_matches_oracle(d, m):
    got = [mi.degrees for mi in graded_monomials(d, m)]
    oracle = _oracle_graded(d, max_total=max(sum(b) for b in got))
    assert got == oracle[:m]
    # prefix stability
    assert got[: m - 1] == [mi.degrees for mi in graded_monomials(d, m - 1)] if m > 1 else True


def test_multi_index_total_degree():
    assert MultiIndex((2, 0, 3)).total_degree == 5


# --- ope_kernel ------------------------------------------------------------


def test_ope_rank_one_is_all_ones():
    K = ope_kernel(cube(6, 2, seed=3), 1)
    assert np.allclose(K.entries, 1.0, atol=1e-12)


@pytest.mark.parametrize("d,n,m", [(1, 50, 5), (2, 120, 10), (2, 60, 17)])
def test_ope_trace_counts_rank(d, n, m):
    K = ope_kernel(cube(n, d, seed=n + m), m)
    assert abs(np.trace(K.entries) / n - m) <= 1e-8


def test_ope_spectrum_zero_one():
    n, m = 150, 12
    K = ope_kernel(cube(n, 2, seed=21), m)
    ev = np.linalg.eigvalsh(K.entries / n)
    assert np.abs(ev - np.round(ev)).max() <= 1e-6
    assert int(np.round(ev).sum()) == m


def test_ope_idempotent_projection():
    n, m = 200, 9
    P = ope_kernel(cube(n, 2, seed=4), m).entries / n
    assert np.linalg.norm(P @ P - P) <= 1e-6 * math.sqrt(n)


def test_ope_diagonal_nonnegative():
    K = ope_kernel(cube(80, 2, seed=8), 6)
    assert (K.diagonal() >= 0).all()


def test_ope_rank_deficiency_reports_column():
    pts = np.tile(np.array([[0.3, -0.4]]), (5, 1))  # all points equal
    with pytest.raises(ValueError, match="column 1"):
        ope_kernel(PointCloud(pts), 2)


def test_ope_m_bounds():
    with pytest.raises(ValueError):
        ope_kernel(cube(5, 1), 6)
    with pytest.raises(ValueError):
        ope_kernel(cube(5, 1), 0)


def test_ope_basis_evaluation_matches_monomial_gram_schmidt():
    # the tensor-Legendre columns span the same prefix flags as the graded
    # monomials, so orthonormalization gives identical vectors
    from dpp_limits.kernel_builders import (
        _legendre_tensor_matrix,
        monomial_matrix,
        orthonormalize_columns,
    )

    cloud = cube(60, 2, seed=44)
    idx = graded_monomials(2, 9)
    w = np.full(60, 1.0 / 60)
    Pm = orthonormalize_columns(monomial_matrix(cloud, idx), w)
    Pl = orthonormalize_columns(_legendre_tensor_matrix(cloud, idx), w)
    assert np.abs(Pm - Pl).max() <= 1e-12


def test_ope_high_degree_univariate():
    # degree-63 univariate construction stays numerically exact
    n, m = 200, 64
    K = ope_kernel(cube(n, 1, seed=45), m)
    assert abs(np.trace(K.entries) / n - m) <= 1e-8
    ev = np.linalg.eigvalsh(K.entries / n)
    assert np.abs(ev - np.round(ev)).max() <= 1e-6


# --- kde_density -----------------------------------------------------------


def test_kde_single_point_oracle():
    # n=1, h2=1, indicator profile over the unit disc: e = l(0) = 1/pi
    cloud = PointCloud(np.array([[0.2, 0.4, 0.1]]))
    e = kde_density(cloud, 1.0, normalized_indicator_profile(2), 2)
    assert e[0] == pytest.approx(1.0 / math.pi)


def test_kde_nonnegative_profile_gives_nonnegative_density():
    cloud = cube(50, 2, seed=12)
    e = kde_density(cloud, 0.4, normalized_indicator_profile(2), 2)
    assert (e >= 0).all()


def test_kde_translation_invariant():
    cloud = cube(30, 2, seed=13)
    prof = normalized_indicator_profile(2)
    e1 = kde_density(cloud, 0.5, prof, 2)
    e2 = kde_density(cloud.translated(np.array([3.0, -7.0])), 0.5, prof, 2)
    assert np.allclose(e1, e2, atol=1e-14)


def test_kde_rejects_nonpositive_bandwidth():
    with pytest.raises(ValueError):
        kde_density(cube(5, 2), 0.0, normalized_indicator_profile(2), 2)


# --- harmonic_kernel -------------------------------------------------------


def _sphere_setup(n=300, seed=6):
    cloud = sample_uniform_sphere(n, SeededRng(seed))
    h1 = (math.log(n) / n) ** (1.0 / 16.0)
    h2 = (math.log(n) / n) ** 0.25
    return cloud, h1, h2, normalized_indicator_profile(2)


def test_harmonic_symmetric_finite():
    cloud, h1, h2, prof = _sphere_setup()
    K = harmonic_kernel(cloud, 5, h1, h2, prof, 2)
    assert np.isfinite(K.entries).all()
    assert np.array_equal(K.entries, K.entries.T)


def test_harmonic_eigenvalues_in_range():
    cloud, h1, h2, prof = _sphere_setup()
    n = cloud.n
    K = harmonic_kernel(cloud, 7, h1, h2, prof, 2)
    ev = np.linalg.eigvalsh(K.entries)
    assert ev.min() >= -1e-8 * n
    assert ev.max() <= n * (1 + 1e-8)


def test_harmonic_laplacian_spectrum_nonnegative():
    cloud, h1, h2, prof = _sphere_setup()
    det = harmonic_kernel_details(cloud, 4, h1, h2, prof, 2)
    assert det.laplacian_eigenvalues.min() >= -1e-8


def test_harmonic_aux_trace_equals_rank():
    cloud, h1, h2, prof = _sphere_setup()
    m = 6
    det = harmonic_kernel_details(cloud, m, h1, h2, prof, 2)
    aux_trace = float((det.omega_weights * det.aux_kernel.diagonal()).sum())
    assert abs(aux_trace - m) <= 1e-6


def test_harmonic_family_matches_single_builds():
    cloud, h1, h2, prof = _sphere_setup(n=150)
    fam = harmonic_kernel_family(cloud, [2, 5], h1, h2, prof, 2)
    single = harmonic_kernel(cloud, 2, h1, h2, prof, 2)
    assert np.allclose(fam[2].kernel.entries, single.entries, atol=1e-10)


def test_harmonic_rejects_bad_bandwidths():
    cloud, _, _, prof = _sphere_setup(n=50)
    with pytest.raises(ValueError):
        harmonic_kernel(cloud, 3, 0.0, 0.2, prof, 2)
    # annulus profile at a tiny bandwidth: no neighbor lands in its support,
    # so the density estimate vanishes and the construction must refuse
    annulus = lambda t: np.where((np.asarray(t) > 0.5) & (np.asarray(t) <= 1.0), 1.0, 0.0)  # noqa: E731
    with pytest.raises(ValueError, match="density"):
        harmonic_kernel(cloud, 3, 0.5, 1e-6, annulus, 2)


# --- factored projection kernels -------------------------------------------


def _factored_builds():
    cloud, h1, h2, prof = _sphere_setup(n=120)
    return [
        ope_kernel(cube(100, 2, seed=50), 9),
        ope_kernel(cube(60, 1, seed=51), 20),
        harmonic_kernel(cloud, 6, h1, h2, prof, 2),
    ]


def test_builders_return_factored_kernels():
    for K in _factored_builds():
        n, m = K.factor.shape
        assert K.n == n and m < n
        assert np.allclose(K.entries, K.factor @ K.factor.T, rtol=0, atol=1e-10 * n)
        assert np.allclose(K.diagonal(), K.entries.diagonal(), rtol=0, atol=1e-10 * n)


def test_factored_builders_validate_like_dense():
    for K in _factored_builds():
        n, m = K.factor.shape
        fac, dense = validate_kernel(K), validate_kernel(KernelMatrix(K.entries))
        assert fac.eigenvalues.shape == (n,)
        assert fac.eigenvectors.shape == (n, m)
        assert np.abs(fac.eigenvalues - dense.eigenvalues).max() <= 1e-10 * n
        assert fac.is_projection() and dense.is_projection()
        assert sample_dpp_many(fac, SeededRng(9), 50) == sample_dpp_many(dense, SeededRng(9), 50)


def test_factored_builders_reject_like_dense():
    for K in _factored_builds():
        over = 1.01 * K.factor  # top eigenvalue 1.0201 n
        for bad in (KernelMatrix(factor=over), KernelMatrix(over @ over.T)):
            with pytest.raises(ValueError, match="exceeds n"):
                validate_kernel(bad)
        broken = K.factor.copy()
        broken[0, 0] = np.inf
        for make in (lambda: KernelMatrix(factor=broken), lambda: KernelMatrix(broken @ broken.T)):
            with pytest.raises(ValueError, match="non-finite"):
                validate_kernel(make())


def test_factored_ope_sampler_oracle_tv():
    n, m, draws = 8, 3, 50_000
    dpp = validate_kernel(ope_kernel(cube(n, 2, seed=52), m))
    assert dpp.kernel.factor is not None
    pmf = enumerate_pmf(dpp)
    counts: dict[tuple, int] = {}
    for smp in sample_dpp_many(dpp, SeededRng(53), draws):
        counts[smp.indices] = counts.get(smp.indices, 0) + 1
    tv = 0.5 * sum(abs(counts.get(s, 0) / draws - p) for s, p in pmf.items())
    assert tv <= 0.02


def test_ope_factor_prefixes_are_lower_rank_factors():
    cloud = cube(80, 2, seed=54)
    full = ope_kernel(cloud, 15).factor
    for m in (1, 4, 10):
        assert np.abs(ope_kernel(cloud, m).factor - full[:, :m]).max() <= 1e-12


def test_harmonic_aux_kernel_is_lazy():
    cloud, h1, h2, prof = _sphere_setup(n=80)
    det = harmonic_kernel_details(cloud, 4, h1, h2, prof, 2)
    assert "aux_kernel" not in vars(det)
    assert np.array_equal(det.aux_kernel, det.basis @ det.basis.T)
    assert det.aux_kernel is det.aux_kernel


# --- latent_graph ----------------------------------------------------------


def test_latent_graph_alpha_zero_empty():
    A = latent_graph(cube(20, 2, seed=1), constant_kernel(1.0), 0.0, SeededRng(2))
    assert A.entries.sum() == 0


def test_latent_graph_complete():
    n = 15
    A = latent_graph(cube(n, 2, seed=1), constant_kernel(1.0), 1.0, SeededRng(2))
    assert np.array_equal(A.entries, np.ones((n, n)) - np.eye(n))


def test_latent_graph_rejects_invalid_probability():
    with pytest.raises(ValueError, match="probability"):
        latent_graph(cube(5, 2), constant_kernel(2.0), 1.0, SeededRng(0))


def test_latent_graph_bucket_frequency():
    # empirical edge frequency within a distance bucket stays inside the
    # 4-sigma binomial band around alpha * mean kernel value of the bucket
    n, alpha = 2000, 0.5
    cloud = cube(n, 2, seed=77)
    kern = gaussian_kernel(bandwidth=1.0)
    A = latent_graph(cloud, kern, alpha, SeededRng(88))
    d2 = squared_distances(cloud.points)
    iu = np.triu_indices(n, k=1)
    dvals, avals = d2[iu], A.entries[iu]
    kvals = np.exp(-dvals)
    bucket = (dvals >= 0.5) & (dvals < 1.0)
    count = int(bucket.sum())
    p_mean = alpha * kvals[bucket].mean()
    band = 4.0 * math.sqrt(p_mean * (1 - p_mean) / count)
    assert abs(avals[bucket].mean() - p_mean) <= band


def test_adjacency_validation():
    with pytest.raises(ValueError):
        AdjacencyMatrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        AdjacencyMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))


# --- usvt_kernel -----------------------------------------------------------


def test_usvt_empty_spectrum_diagonal_only():
    # zero graph keeps nothing; the diagonal correction restores c and the
    # final multiplier keeps the result strictly inside the admissible range
    n, c = 30, 0.3
    A = AdjacencyMatrix(np.zeros((n, n)))
    K = usvt_kernel(A, 1.0, c, rho=1.0)
    cap = 1.0 / (1.0 + n**-0.25)
    assert np.allclose(K.entries, cap * c * np.eye(n), atol=1e-12)


def test_usvt_zero_c_zero_kernel():
    A = AdjacencyMatrix(np.zeros((10, 10)))
    K = usvt_kernel(A, 1.0, 0.0, rho=1.0)
    assert np.allclose(K.entries, 0.0)


def _random_graph(n, seed):
    cloud = cube(n, 2, seed=seed)
    return latent_graph(cloud, gaussian_kernel(amplitude=0.6), 1.0, SeededRng(seed, 1))


def test_usvt_eigenvalues_admissible_and_trace_restored():
    for seed in range(100):
        n = 40
        A = _random_graph(n, seed)
        K = usvt_kernel(A, 1.0, 0.5, rho=0.2)
        ev = np.linalg.eigvalsh(K.entries)
        assert ev.min() >= -1e-10 * n
        assert ev.max() <= n
        # the diagonal correction enforces the target trace level before the
        # final multiplier is applied
        gamma = 0.2 * n**0.75
        vals = np.linalg.eigvalsh(A.entries)
        tilde_tr = vals[vals >= gamma].sum()
        bar_tr = tilde_tr + n * max(0.5 - tilde_tr / n, 0.0)
        assert bar_tr / n >= 0.5 - 1e-12


def test_usvt_threshold_monotone_in_rho():
    A = _random_graph(60, 5)
    ranks = [usvt_retained_rank(A, 1.0, rho) for rho in (0.05, 0.1, 0.2, 0.4, 0.8)]
    assert all(a >= b for a, b in zip(ranks, ranks[1:]))


def test_usvt_parameter_validation():
    A = AdjacencyMatrix(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        usvt_kernel(A, 0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        usvt_kernel(A, 1.0, 1.5, 1.0)
    with pytest.raises(ValueError):
        usvt_kernel(A, 1.0, 0.5, 0.0)


# --- serialization ---------------------------------------------------------


def test_kernel_roundtrip(tmp_path):
    K = gram_kernel(gaussian_kernel(), cube(7, 2, seed=30))
    path = str(tmp_path / "k.txt")
    save_kernel(K, path)
    back = load_kernel(path)
    assert np.array_equal(back.entries, K.entries)


def test_kernel_load_rejects_bad_row(tmp_path):
    path = tmp_path / "k.txt"
    path.write_text("n=2\n1.0 0.5\n0.5\n")
    with pytest.raises(ValueError, match="line 3"):
        load_kernel(str(path))
