import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpp_limits import (
    AdjacencyMatrix,
    ContinuousKernel,
    KernelMatrix,
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
    normalized_indicator_profile,
    ope_kernel,
    sample_dpp_many,
    sample_uniform_cube,
    sample_uniform_sphere,
    usvt_kernel,
    usvt_retained_rank,
    validate_kernel,
)
from dpp_limits import kernel_builders
from dpp_limits.kernel_builders import squared_distances
from dpp_limits.rng import as_generator


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
    bad = ContinuousKernel(
        pairwise=lambda X, Y: np.where((X[:, None] != Y[None]).any(axis=2), math.inf, 1.0),
        diagonal=lambda X: np.ones(X.shape[0]),
    )
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


def _graded_rows(d, m):
    E = graded_monomials(d, m)
    assert E.shape == (m, d)
    assert np.issubdtype(E.dtype, np.integer)
    return [tuple(row) for row in E.tolist()]


def test_graded_monomials_univariate():
    assert _graded_rows(1, 3) == [(0,), (1,), (2,)]


def test_graded_monomials_trivial():
    assert _graded_rows(3, 1) == [(0, 0, 0)]


def test_graded_monomials_bivariate_against_enumeration_oracle():
    got = _graded_rows(2, 4)
    assert got == _oracle_graded(2, 2)[:4]
    assert got[0] == (0, 0)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 4), m=st.integers(1, 30))
def test_graded_monomials_matches_oracle(d, m):
    got = _graded_rows(d, m)
    oracle = _oracle_graded(d, max_total=max(sum(b) for b in got))
    assert got == oracle[:m]
    # prefix stability
    assert got[: m - 1] == _graded_rows(d, m - 1) if m > 1 else True


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
    exponents = graded_monomials(2, 9)
    w = np.full(60, 1.0 / 60)
    Pm = orthonormalize_columns(monomial_matrix(cloud, exponents), w)
    Pl = orthonormalize_columns(_legendre_tensor_matrix(cloud.points, exponents), w)
    assert np.abs(Pm - Pl).max() <= 1e-12


def test_legendre_tensor_columns_trivariate_oracle():
    # column k is the product of one univariate Legendre polynomial per axis
    from numpy.polynomial import Legendre

    from dpp_limits.kernel_builders import _legendre_tensor_matrix

    points = cube(50, 3, seed=46).points
    exponents = graded_monomials(3, 20)
    M = _legendre_tensor_matrix(points, exponents)
    assert M.shape == (50, 20)
    for k, b in enumerate(exponents):
        col = np.prod([Legendre.basis(bj)(points[:, j]) for j, bj in enumerate(b)], axis=0)
        assert np.abs(M[:, k] - col).max() <= 1e-12, k


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
    e2 = kde_density(PointCloud(cloud.points + np.array([3.0, -7.0])), 0.5, prof, 2)
    assert np.allclose(e1, e2, atol=1e-14)


def test_kde_rejects_nonpositive_bandwidth():
    with pytest.raises(ValueError):
        kde_density(cube(5, 2), 0.0, normalized_indicator_profile(2), 2)


@pytest.mark.parametrize(
    "profile, got",
    [(lambda t: 1.0, r"\(\)"), (lambda t: t.sum(axis=1), r"\(50,\)")],
    ids=["scalar", "one-per-row"],
)
def test_kde_rejects_profile_of_wrong_shape(profile, got):
    # a scalar once summed to a scalar density for the whole cloud
    with pytest.raises(ValueError, match=rf"returned shape {got}, expected \(50, 50\)"):
        kde_density(cube(50, 2, seed=14), 0.5, profile, 2)


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
    # the diagonal of basis @ basis.T
    aux_trace = float((det.omega_weights * (det.basis**2).sum(axis=1)).sum())
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


@pytest.mark.parametrize(
    "n, h1, top", [(600, None, 64), (300, 0.2, 16)], ids=["default-h1", "small-h1"]
)
def test_harmonic_basis_agrees_with_dense_eigh(n, h1, top):
    # dense oracle: eigh of S = (I - D^-1/2 W D^-1/2) / h1^2; Gram-Schmidt
    # keeps prefix spans, so basis[:, :k] spans D^-1/2 times S's first k
    # eigenvectors wherever their gap makes those well determined.  The
    # default bandwidth converges at block width top + 32; h1 = 0.2 flattens
    # the spectrum past the iteration cap there and needs the full width
    cloud, default_h1, h2, prof = _sphere_setup(n=n)
    h1 = default_h1 if h1 is None else h1
    det = harmonic_kernel_details(cloud, top, h1, h2, prof, 2)
    assert det.ritz_residual <= 1e-14
    w = np.exp(-squared_distances(cloud.points) / (4.0 * h1 * h1))
    deg = w.sum(axis=1)
    W = w / np.outer(deg, deg)
    inv_sqrt = 1.0 / np.sqrt(W.sum(axis=1))
    M = (inv_sqrt[:, None] * W) * inv_sqrt[None, :]
    eigvals, eigvecs = np.linalg.eigh((np.eye(cloud.n) - (M + M.T) / 2.0) / (h1 * h1))
    assert det.laplacian_eigenvalues.shape == (top,)
    assert np.abs(det.laplacian_eigenvalues - eigvals[:top]).max() <= 1e-12 / (h1 * h1)
    mu = 1.0 - eigvals * (h1 * h1)
    bound = np.finfo(float).eps * np.abs(mu).max() / (mu[:top] - mu[1 : top + 1])
    checked = [k for k in range(1, top + 1) if bound[k - 1] <= 1e-8]
    assert len(checked) >= top // 2
    for k in checked:
        A = np.linalg.qr(det.basis[:, :k])[0]
        B = np.linalg.qr(inv_sqrt[:, None] * eigvecs[:, :k])[0]
        assert np.linalg.norm(B - A @ (A.T @ B), 2) <= 1e-6, k


def test_harmonic_partial_eigensolver_structure_determinism_and_cap(monkeypatch):
    cloud, h1, h2, prof = _sphere_setup(n=400)
    eigh, shapes = np.linalg.eigh, []

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", spy)
        first = harmonic_kernel_family(cloud, (4, 16), h1, h2, prof, 2)
    # only the p x p Rayleigh-Ritz problems, p = 16 + 32
    assert shapes and max(max(s) for s in shapes) <= 48
    assert len(shapes) == first[16].subspace_iterations
    # the start block comes from a private stream, not from any caller's
    np.random.random(1000)
    np.random.default_rng(1).standard_normal(1000)
    second = harmonic_kernel_family(cloud, (4, 16), h1, h2, prof, 2)
    for m in (4, 16):
        assert first[m].kernel.factor.tobytes() == second[m].kernel.factor.tobytes()

    # past the cap at width 16 + 32 the loop reruns at the full width n,
    # where one iteration is a dense solve of the same eigenpairs
    cloud, h1, h2, prof = _sphere_setup(n=300)
    unpatched = harmonic_kernel_details(cloud, 16, h1, h2, prof, 2)
    assert unpatched.subspace_iterations > 1
    monkeypatch.setattr(kernel_builders, "_SUBSPACE_MAX_ITERATIONS", 1)
    capped = harmonic_kernel_details(cloud, 16, h1, h2, prof, 2)
    assert capped.subspace_iterations == 2
    assert capped.ritz_residual <= 1e-14
    assert np.abs(capped.kernel.entries - unpatched.kernel.entries).max() <= 1e-10
    # both widths failing raises, naming the widths and the residual
    monkeypatch.setattr(kernel_builders, "_RITZ_RTOL", 0.0)
    with pytest.raises(
        ArithmeticError,
        match="did not converge in 1 iterations at block widths 48, 300: worst Ritz residual",
    ):
        harmonic_kernel(cloud, 16, h1, h2, prof, 2)


def test_harmonic_sign_fix_undoes_eigenvector_signs(monkeypatch):
    # each eigenvector is defined up to sign; the builder makes its
    # largest-magnitude entry positive, so flipping signs changes no bit
    cloud, h1, h2, prof = _sphere_setup(n=200)
    before = harmonic_kernel_family(cloud, (3, 12), h1, h2, prof, 2)
    top_eigenpairs, flips = kernel_builders._top_eigenpairs, []

    def flipped(apply, n, top):
        mu, U, residual, iterations = top_eigenpairs(apply, n, top)
        U[:, ::2] *= -1.0
        flips.append(top)
        return mu, U, residual, iterations

    monkeypatch.setattr(kernel_builders, "_top_eigenpairs", flipped)
    after = harmonic_kernel_family(cloud, (3, 12), h1, h2, prof, 2)
    assert flips == [12]
    for m in (3, 12):
        assert after[m].kernel.factor.tobytes() == before[m].kernel.factor.tobytes()


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


def test_projection_factors_are_orthogonal_with_norm_n():
    # B^T B = n I is what puts every eigenvalue of K = B B^T at 0 or n,
    # with no rescale: the harmonic basis is orthonormal under omega =
    # 1 / (n density) and its factor is basis / sqrt(density)
    cloud, h1, h2, prof = _sphere_setup(n=300)
    fam = harmonic_kernel_family(cloud, (4, 16), h1, h2, prof, 2)
    factors = [fam[m].kernel.factor for m in (4, 16)] + [ope_kernel(cube(300, 2, seed=55), 16).factor]
    for B in factors:
        n, m = B.shape
        assert np.abs(B.T @ B / n - np.eye(m)).max() <= 1e-12


# --- latent_graph ----------------------------------------------------------


def test_latent_graph_alpha_zero_empty():
    A = latent_graph(gram_kernel(constant_kernel(1.0), cube(20, 2, seed=1)), 0.0, SeededRng(2))
    assert A.entries.sum() == 0


def test_latent_graph_complete():
    n = 15
    A = latent_graph(gram_kernel(constant_kernel(1.0), cube(n, 2, seed=1)), 1.0, SeededRng(2))
    assert np.array_equal(A.entries, np.ones((n, n)) - np.eye(n))


def test_latent_graph_rejects_invalid_probability():
    with pytest.raises(ValueError, match="probability"):
        latent_graph(gram_kernel(constant_kernel(2.0), cube(5, 2)), 1.0, SeededRng(0))


def test_latent_graph_bucket_frequency():
    # empirical edge frequency within a distance bucket stays inside the
    # 4-sigma binomial band around alpha * mean kernel value of the bucket
    n, alpha = 2000, 0.5
    cloud = cube(n, 2, seed=77)
    kern = gaussian_kernel(bandwidth=1.0)
    A = latent_graph(gram_kernel(kern, cloud), alpha, SeededRng(88))
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
    return latent_graph(gram_kernel(gaussian_kernel(amplitude=0.6), cloud), 1.0, SeededRng(seed, 1))


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


@pytest.mark.parametrize("alpha, rho", [(0.0, 0.2), (1.5, 0.2), (1.0, 0.0), (1.0, -0.1)])
def test_usvt_retained_rank_rejects_what_usvt_kernel_rejects(alpha, rho):
    A = _random_graph(40, 3)
    with pytest.raises(ValueError) as kernel_err:
        usvt_kernel(A, alpha, 0.5, rho)
    with pytest.raises(ValueError) as rank_err:
        usvt_retained_rank(A, alpha, rho)
    assert str(rank_err.value) == str(kernel_err.value)


@pytest.mark.parametrize("alpha, rho", [(1.0, 0.05), (1.0, 0.2), (0.6, 0.1), (0.3, 0.4)])
def test_usvt_retained_rank_counts_kept_eigenvalues(alpha, rho):
    # with c = 0 there is no diagonal shift: K is a positive multiple of
    # the kept part of A's spectrum, so its rank is the number kept
    A = _random_graph(60, 5)
    rank = usvt_retained_rank(A, alpha, rho)
    assert np.linalg.matrix_rank(usvt_kernel(A, alpha, 0.0, rho).entries) == rank
    assert rank == int((np.linalg.eigvalsh(A.entries) >= rho * (alpha * 60) ** 0.75).sum())


# --- same-arithmetic oracles -----------------------------------------------

# The dense builders' bodies before they held one n x n array at a time.
# The rewrites keep every floating-point operation and its order, so their
# results equal these bit for bit on any host; the pinned CSV md5s run only
# on the host that recorded them.  The sizes straddle the 64-row blocks.


def _reference_squared_distances(x, y=None):
    y = x if y is None else y
    sq = (x * x).sum(axis=1)[:, None] + (y * y).sum(axis=1)[None, :] - 2.0 * (x @ y.T)
    return np.maximum(sq, 0.0)


def _reference_kde(cloud, h2, profile, d_manifold):
    t = _reference_squared_distances(cloud.points)
    np.sqrt(t, out=t)
    t /= h2
    vals = np.asarray(profile(t), dtype=float)
    return vals.sum(axis=0) / (cloud.n * h2**d_manifold)


def _reference_harmonic(cloud, top, h1, h2, profile, d_manifold):
    # the family from its graph weights to the rank-top factor
    n = cloud.n
    W = _reference_squared_distances(cloud.points)
    W /= -4.0 * h1 * h1
    np.exp(W, out=W)
    deg = W.sum(axis=1)
    np.divide(W, np.outer(deg, deg), out=W)
    inv_sqrt = 1.0 / np.sqrt(W.sum(axis=1))
    mu, vecs, _, _ = kernel_builders._top_eigenpairs(
        lambda X: inv_sqrt[:, None] * (W @ (inv_sqrt[:, None] * X)), n, top
    )
    U = inv_sqrt[:, None] * vecs
    peak = U[np.argmax(np.abs(U), axis=0), np.arange(top)]
    U *= np.where(peak < 0, -1.0, 1.0)
    density = _reference_kde(cloud, h2, profile, d_manifold)
    V = kernel_builders.orthonormalize_columns(U, 1.0 / (n * density))
    return V * (1.0 / np.sqrt(density))[:, None], density, (1.0 - mu) / (h1 * h1)


def _reference_symmetrized(K):
    return np.ascontiguousarray((K + K.T) / 2.0)


def _reference_adjacency(gram, alpha, rng):
    n = gram.n
    upper = ~np.tri(n, dtype=bool)
    probs = alpha * gram.entries[upper]
    edges = as_generator(rng).random(probs.shape[0]) < probs
    A = np.zeros((n, n))
    A[upper] = edges
    return A + A.T


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 1000])
def test_dense_builders_match_reference_bits(n):
    cloud = sample_uniform_sphere(n, SeededRng(n, 1))
    x = cloud.points
    other = x[: max(1, n // 3)] + 0.25
    assert np.array_equal(squared_distances(x), _reference_squared_distances(x))
    assert np.array_equal(squared_distances(x, other), _reference_squared_distances(x, other))
    b, amp = 0.7, 1.3
    expect = amp * np.exp(-_reference_squared_distances(x, other) / (b * b))
    assert np.array_equal(gaussian_kernel(b, amp).pairwise(x, other), expect)
    # a smooth profile, whose column sums depend on the order of the rows
    for profile in (normalized_indicator_profile(2), lambda t: np.exp(-t * t)):
        e = kde_density(cloud, 0.4, profile, 2)
        assert np.array_equal(e, _reference_kde(cloud, 0.4, profile, 2))
    K = gaussian_kernel(0.5).pairwise(x, x)
    K += 1e-14 * SeededRng(n, 2).generator().standard_normal((n, n))
    assert np.array_equal(KernelMatrix(K).entries, _reference_symmetrized(K))
    gram = gram_kernel(gaussian_kernel(0.5), cloud)
    A = latent_graph(gram, 0.8, SeededRng(n, 3)).entries
    assert np.array_equal(A, _reference_adjacency(gram, 0.8, SeededRng(n, 3)))
    top = min(n, 16)
    prof = normalized_indicator_profile(2)
    details = harmonic_kernel_family(cloud, (top,), 0.5, 0.6, prof, 2)[top]
    factor, density, eigvals = _reference_harmonic(cloud, top, 0.5, 0.6, prof, 2)
    assert np.array_equal(details.kernel.factor, factor)
    assert np.array_equal(details.density, density)
    assert np.array_equal(details.laplacian_eigenvalues, eigvals)
    assert np.array_equal(details.kernel.entries, _reference_symmetrized(factor @ factor.T))


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
@pytest.mark.parametrize("alpha", [1.0, 0.8])
def test_latent_graph_matches_reference_bits_and_stream(n, alpha):
    gram = gram_kernel(gaussian_kernel(0.5), cube(n, 2, seed=n, stream=4))
    gen, ref_gen = SeededRng(n, 5).generator(), SeededRng(n, 5).generator()
    A = latent_graph(gram, alpha, gen).entries
    assert np.array_equal(A, _reference_adjacency(gram, alpha, ref_gen))
    # the blocks read exactly the one draw of n (n - 1) / 2 uniforms
    assert gen.random() == ref_gen.random()


@pytest.mark.parametrize("low, high", [(-0.3, 0.9), (0.2, 1.6), (-0.3, 1.6)])
def test_latent_graph_out_of_range_message_matches_reference(low, high):
    # one pair below 0 or above 1, far from the first row block; the message
    # names the global minimum when one is negative, else the maximum, and
    # no uniform is drawn before the check
    n, alpha = 130, 0.8
    G = np.full((n, n), 0.5)
    G[90, 120] = G[120, 90] = low
    G[100, 110] = G[110, 100] = high
    gram = KernelMatrix(G)
    probs = alpha * G[~np.tri(n, dtype=bool)]
    bad = float(probs.min()) if probs.min() < 0 else float(probs.max())
    gen = SeededRng(9).generator()
    with pytest.raises(ValueError) as err:
        latent_graph(gram, alpha, gen)
    assert str(err.value) == f"edge probability {bad} outside [0, 1]"
    assert gen.random() == SeededRng(9).generator().random()


def _factor_layouts():
    B = cube(130, 9, seed=21).points - 0.5
    wide = cube(130, 20, seed=22).points - 0.5
    return {
        "C": B,
        "F": np.asfortranarray(B),
        "column slice": wide[:, 3:12],
        "reversed": B[::-1, ::-1],
        "strided": wide[:, ::2],
    }


@pytest.mark.parametrize("layout", list(_factor_layouts()))
def test_factored_entries_match_symmetrized_reference(layout):
    # the stored factor's B B^T comes out of BLAS exactly symmetric, so the
    # single product is the symmetrized one bit for bit
    B = _factor_layouts()[layout]
    k = KernelMatrix(factor=B)
    assert np.array_equal(k.factor, B)
    assert np.array_equal(k.entries, _reference_symmetrized(k.factor @ k.factor.T))
    assert np.array_equal(k.entries, k.entries.T)
    assert not k.entries.flags.writeable


def test_kernel_matrix_asymmetry_message_matches_reference():
    # negative entries, so max|K| is -K.min()
    K = -gaussian_kernel(0.5).pairwise(*[cube(65, 2, seed=15).points] * 2)
    K[3, 40] += 1e-6
    scale, asym = float(np.abs(K).max()), float(np.abs(K - K.T).max())
    with pytest.raises(ValueError) as err:
        KernelMatrix(K)
    assert str(err.value) == (
        f"kernel asymmetry {asym:.3e} exceeds 1e-10 * max|K| = {1e-10 * scale:.3e}"
    )


# --- memory: one n x n array per build -------------------------------------

# traced peaks at n = 1000, in units of n x n doubles; each bound fails for
# the builders that kept two or three throwaway n x n arrays alive.
# latent_graph adds a row block's probabilities and uniforms, 64 rows of n
# doubles each (0.064 apiece at n = 1000), to its adjacency matrix
_PEAK_BOUNDS = {
    "harmonic_kernel_family": 1.5,
    "kde_density": 1.25,
    "squared_distances": 1.15,
    "KernelMatrix": 1.1,
    "gram_kernel": 2.1,
    "latent_graph": 1.15,
    "factored entries": 1.1,
}


@pytest.fixture(scope="module")
def dense_builds():
    cloud, h1, h2, prof = _sphere_setup(n=1000, seed=16)
    gram = gram_kernel(gaussian_kernel(0.5), cloud)
    dense = np.array(gram.entries)
    factor = ope_kernel(cube(1000, 2, seed=55), 16).factor
    return {
        "harmonic_kernel_family": lambda: harmonic_kernel_family(cloud, (16,), h1, h2, prof, 2),
        "kde_density": lambda: kde_density(cloud, h2, prof, 2),
        "squared_distances": lambda: squared_distances(cloud.points),
        "KernelMatrix": lambda: KernelMatrix(dense),
        "gram_kernel": lambda: gram_kernel(gaussian_kernel(0.5), cloud),
        "latent_graph": lambda: latent_graph(gram, 0.8, SeededRng(17)),
        "factored entries": lambda: KernelMatrix(factor=factor).entries,
    }


@pytest.mark.parametrize("name", list(_PEAK_BOUNDS))
def test_dense_build_traced_peak(dense_builds, name):
    tracemalloc.start()
    try:
        dense_builds[name]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8.0 * 1000 * 1000) <= _PEAK_BOUNDS[name]
