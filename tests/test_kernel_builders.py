import hashlib
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
    with pytest.raises(ValueError, match=r"^non-finite kernel evaluation at point pair \(0, 1\)$"):
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


def monomial_matrix(cloud, exponents):
    # column j is the raw monomial x(1)^b1 * ... * x(d)^bd for row j of exponents
    return np.prod(cloud.points[:, None, :] ** exponents, axis=2)


def test_ope_basis_evaluation_matches_monomial_gram_schmidt():
    # the tensor-Legendre columns span the same prefix flags as the graded
    # monomials, so orthonormalization gives identical vectors
    from dpp_limits.kernel_builders import _legendre_tensor_matrix, orthonormalize_columns

    cloud = cube(60, 2, seed=44)
    exponents = graded_monomials(2, 9)
    w = np.full(60, 1.0 / 60)
    Pm = orthonormalize_columns(monomial_matrix(cloud, exponents), w)
    Pl = orthonormalize_columns(_legendre_tensor_matrix(cloud.points, exponents), w)
    assert np.abs(Pm - Pl).max() <= 1e-12


def _reference_gram_schmidt(M, weights):
    # classical Gram-Schmidt under the weighted inner product, run twice
    # per column: the oracle of the Householder QR
    n, m = M.shape
    w = np.asarray(weights, dtype=float)
    Q = np.empty((n, m))
    for j in range(m):
        v = M[:, j].astype(float)
        norm0 = math.sqrt(float(v @ (w * v)))
        for _ in range(2):
            if j:
                v = v - Q[:, :j] @ (Q[:, :j].T @ (w * v))
        norm = math.sqrt(max(float(v @ (w * v)), 0.0))
        if norm <= 1e-10 * norm0 or norm0 == 0.0:
            raise ValueError(
                f"rank deficiency at column {j}: residual norm {norm:.3e} "
                f"below 1e-10 of input norm {norm0:.3e}"
            )
        Q[:, j] = v / norm
    return Q


def _harmonic_qr_input(n, top):
    # the eigenvectors U and weights omega that the harmonic family hands
    # to orthonormalize_columns
    cloud, h1, h2, prof = _sphere_setup(n=n)
    seen = []
    real = kernel_builders.orthonormalize_columns

    def spy(M, weights):
        seen.append((M, weights))
        return real(M, weights)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel_builders, "orthonormalize_columns", spy)
        harmonic_kernel_family(cloud, (top,), h1, h2, prof, 2)
    return seen[0]


_ORTHONORMALIZATION_INPUTS = {
    "harmonic 300 x 16": lambda: _harmonic_qr_input(300, 16),
    "legendre 500 x 256": lambda: (
        kernel_builders._legendre_tensor_matrix(cube(500, 2, seed=47).points, graded_monomials(2, 256)),
        np.full(500, 1.0 / 500),
    ),
    "monomials 60 x 9": lambda: (
        monomial_matrix(cube(60, 2, seed=48), graded_monomials(2, 9)),
        np.full(60, 1.0 / 60),
    ),
}


@pytest.mark.parametrize("name", list(_ORTHONORMALIZATION_INPUTS))
def test_orthonormalize_columns_matches_gram_schmidt(name):
    M, w = _ORTHONORMALIZATION_INPUTS[name]()
    Q = kernel_builders.orthonormalize_columns(M, w)
    assert np.abs(Q - _reference_gram_schmidt(M, w)).max() <= 1e-10
    assert np.abs(Q.T @ (w[:, None] * Q) - np.eye(M.shape[1])).max() <= 1e-13
    # each column keeps Gram-Schmidt's orientation: R_jj > 0
    assert (np.einsum("ij,ij->j", Q, w[:, None] * M) > 0).all()


# a zero column, a duplicate, a multiple, and the first column past n rows
@pytest.mark.parametrize("column", [0, 3, 5, 40])
def test_orthonormalize_columns_reports_the_dependent_column(column):
    M = SeededRng(column, 7).generator().standard_normal((40, 8 if column < 40 else 43))
    if column < 40:
        M[:, column] = {0: 0.0, 3: M[:, 1], 5: 2.0 * M[:, 2]}[column]
    w = SeededRng(column, 8).generator().uniform(0.5, 1.5, 40)
    shape = (
        rf"rank deficiency at column {column}: residual norm \d\.\d{{3}}e[+-]\d+ "
        rf"below 1e-10 of input norm \d\.\d{{3}}e[+-]\d+$"
    )
    with pytest.raises(ValueError, match=shape):
        kernel_builders.orthonormalize_columns(M, w)
    with pytest.raises(ValueError, match=shape):
        _reference_gram_schmidt(M, w)


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
    # the diagonal of basis @ basis.T, with basis = factor sqrt(density)
    # orthonormal under omega = 1 / (n density)
    basis = det.kernels[m].factor * np.sqrt(det.density)[:, None]
    omega = 1.0 / (cloud.n * det.density)
    aux_trace = float((omega * (basis**2).sum(axis=1)).sum())
    assert abs(aux_trace - m) <= 1e-6


def test_harmonic_family_matches_single_builds():
    cloud, h1, h2, prof = _sphere_setup(n=150)
    fam = harmonic_kernel_family(cloud, [2, 5], h1, h2, prof, 2)
    single = harmonic_kernel(cloud, 2, h1, h2, prof, 2)
    assert np.allclose(fam.kernels[2].entries, single.entries, atol=1e-10)


def test_harmonic_family_rejects_empty_grid():
    cloud, h1, h2, prof = _sphere_setup(n=50)
    with pytest.raises(ValueError, match="at least one rank"):
        harmonic_kernel_family(cloud, (), h1, h2, prof, 2)


def test_harmonic_rejects_bad_bandwidths():
    cloud, _, _, prof = _sphere_setup(n=50)
    for h1, h2 in [(0.0, 0.2), (math.nan, 0.2), (math.inf, 0.2), (0.5, math.nan), (0.5, math.inf)]:
        with pytest.raises(ValueError, match="positive and finite"):
            harmonic_kernel(cloud, 3, h1, h2, prof, 2)
    for h2 in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            kde_density(cloud, h2, prof, 2)
    for bandwidth in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            gaussian_kernel(bandwidth)
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
    # the spectrum past the iteration cap there and takes the dense eigh
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
        A = np.linalg.qr(det.kernels[top].factor[:, :k] * np.sqrt(det.density)[:, None])[0]
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
    assert len(shapes) == first.subspace_iterations
    # the start block comes from a private stream, not from any caller's
    np.random.random(1000)
    np.random.default_rng(1).standard_normal(1000)
    second = harmonic_kernel_family(cloud, (4, 16), h1, h2, prof, 2)
    for m in (4, 16):
        assert first.kernels[m].factor.tobytes() == second.kernels[m].factor.tobytes()

    # past the cap at width 16 + 32 the same eigenpairs come from one dense
    # eigh of the n x n M, and no QR is n columns wide
    cloud, h1, h2, prof = _sphere_setup(n=300)
    unpatched = harmonic_kernel_details(cloud, 16, h1, h2, prof, 2)
    assert unpatched.subspace_iterations > 1
    monkeypatch.setattr(kernel_builders, "_SUBSPACE_MAX_ITERATIONS", 1)
    qr, qr_shapes = np.linalg.qr, []

    def qr_spy(a, *args, **kwargs):
        qr_shapes.append(np.shape(a))
        return qr(a, *args, **kwargs)

    shapes.clear()
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", spy)
        patch.setattr(np.linalg, "qr", qr_spy)
        capped = harmonic_kernel_details(cloud, 16, h1, h2, prof, 2)
    assert shapes == [(48, 48), (300, 300)]
    assert qr_shapes == [(300, 48), (300, 16)]  # the block, then the basis
    assert capped.subspace_iterations == 1
    assert capped.ritz_residual <= 1e-14
    assert np.abs(capped.kernels[16].entries - unpatched.kernels[16].entries).max() <= 1e-10
    # a block as wide as n goes straight to the dense eigh
    narrow = _sphere_setup(n=40)
    shapes.clear()
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", spy)
        dense = harmonic_kernel_details(narrow[0], 16, *narrow[1:], 2)
    assert shapes == [(40, 40)]
    assert dense.subspace_iterations == 0
    assert dense.ritz_residual <= 1e-14
    # the dense pairs missing the tolerance raises, naming the residual
    monkeypatch.setattr(kernel_builders, "_RITZ_RTOL", 0.0)
    with pytest.raises(
        ArithmeticError,
        match="dense eigh after 1 subspace iterations: worst Ritz residual .* over the top 16",
    ):
        harmonic_kernel(cloud, 16, h1, h2, prof, 2)


def test_harmonic_sign_fix_undoes_eigenvector_signs(monkeypatch):
    # each eigenvector is defined up to sign; the builder makes its
    # largest-magnitude entry positive, so flipping signs changes no bit
    cloud, h1, h2, prof = _sphere_setup(n=200)
    before = harmonic_kernel_family(cloud, (3, 12), h1, h2, prof, 2)
    top_eigenpairs, flips = kernel_builders._top_eigenpairs, []

    def flipped(W, inv_sqrt, top):
        mu, U, residual, iterations = top_eigenpairs(W, inv_sqrt, top)
        U[:, ::2] *= -1.0
        flips.append(top)
        return mu, U, residual, iterations

    monkeypatch.setattr(kernel_builders, "_top_eigenpairs", flipped)
    after = harmonic_kernel_family(cloud, (3, 12), h1, h2, prof, 2)
    assert flips == [12]
    for m in (3, 12):
        assert after.kernels[m].factor.tobytes() == before.kernels[m].factor.tobytes()


@pytest.mark.parametrize(
    "history, step",
    [
        ([(3, 1e-2)], 4),
        ([(3, 1e-2), (4, 1e-3)], 5),
        ([(2, 1e-2), (3, 1e-3), (5, 1e-4)], 15.0),  # the rate of steps 2 to 3
        ([(1, 1e-2), (3, 1e-3), (4, 1e-4)], 14.0),  # the rate of steps 3 to 4
        ([(2, 1e-3), (3, 1e-3), (4, 1e-4)], 14.0),
        ([(2, 1e-3), (3, 1e-3), (4, 1e-3)], math.inf),  # a residual that does not fall
    ],
)
def test_projected_step_at_the_faster_of_the_last_two_decay_rates(history, step):
    assert kernel_builders._projected_step(history, 1e-14) == pytest.approx(step)


def test_harmonic_stall_gives_up_early_on_the_same_dense_eigh(monkeypatch):
    # at h1 = 0.2 the residual's decay projects past the cap of 20 after a
    # few iterations; the dense eigh that follows is the one the cap reached
    # before, so every factor is the same bit for bit
    cloud, _, h2, prof = _sphere_setup(n=400, seed=16)
    early = harmonic_kernel_family(cloud, (4, 16), 0.2, h2, prof, 2)
    monkeypatch.setattr(kernel_builders, "_projected_step", lambda history, tol: 0)
    capped = harmonic_kernel_family(cloud, (4, 16), 0.2, h2, prof, 2)
    assert 1 < early.subspace_iterations < 5
    assert capped.subspace_iterations == 20
    assert early.ritz_residual == capped.ritz_residual <= 1e-14
    for m in (4, 16):
        assert np.array_equal(early.kernels[m].factor, capped.kernels[m].factor)


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
    factors = [fam.kernels[m].factor for m in (4, 16)] + [ope_kernel(cube(300, 2, seed=55), 16).factor]
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
    with pytest.raises(ValueError, match="entries must be 0 or 1"):
        AdjacencyMatrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
    with pytest.raises(ValueError, match="diagonal must be zero"):
        AdjacencyMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match=r"must be square, got shape \(3, 4\)"):
        AdjacencyMatrix(np.zeros((3, 4)))
    # the symmetry check runs on row blocks of 64, 64 and 2 rows at n = 130:
    # a lone 1 above and below the diagonal, inside the first and second
    # diagonal tiles, and in the last block
    assert kernel_builders._ROW_BLOCK == 64
    for i, j in ((3, 100), (100, 3), (5, 6), (70, 127), (128, 129)):
        A = np.zeros((130, 130))
        A[i, j] = 1.0
        with pytest.raises(ValueError, match="must be symmetric"):
            AdjacencyMatrix(A)


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


@pytest.mark.parametrize(
    "alpha, rho",
    [(0.0, 0.2), (1.5, 0.2), (1.0, 0.0), (1.0, -0.1), (1.0, math.nan), (1.0, math.inf)],
)
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


# --- usvt_kernel: block Krylov pairs, certificate and dense fallback --------

# At n = 1600 and rho = 0.15 the six kept eigenvalues (44-47) clear the next
# (31-32) by a wide gap, and the block path runs.  Small gaps and kept
# eigenvalues of high multiplicity give up for the dense eigh.


def _dense_usvt(*args):
    # the same call on the dense path: the block search gives up at once
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel_builders, "_pairs_above", lambda A, gamma: None)
        return usvt_kernel(*args)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def graph_1600():
    A = _random_graph(1600, 7)
    dense_peak = _traced_peak(lambda: _dense_usvt(A, 1.0, 0.6, 0.15))
    return A, _dense_usvt(A, 1.0, 0.6, 0.15).entries, dense_peak


def _eigh_sizes(patch):
    sizes, eigh = [], np.linalg.eigh

    def spy(a, *args, **kwargs):
        sizes.append(np.shape(a)[0])
        return eigh(a, *args, **kwargs)

    patch.setattr(np.linalg, "eigh", spy)
    return sizes


def test_usvt_block_path_keeps_the_dense_count_and_kernel(monkeypatch, graph_1600):
    A, dense, _ = graph_1600
    gamma = 0.15 * 1600**0.75
    sizes = _eigh_sizes(monkeypatch)
    theta, V = kernel_builders._pairs_above(A.entries, gamma)
    # the Rayleigh-Ritz checks, in blocks of 8 columns: every step until the
    # residual first drops, then at its projected step, at most twice as far
    assert [size // 8 for size in sizes] == [1, 2, 3, 4, 5, 10, 11, 12, 24, 36]
    assert kernel_builders._certified(A.entries, theta, V, gamma)
    K = usvt_kernel(A, 1.0, 0.6, 0.15).entries
    assert sizes and max(sizes) < 1600  # only the Rayleigh-Ritz problems
    assert len(theta) == usvt_retained_rank(A, 1.0, 0.15) == 6
    assert (theta >= gamma).all()
    assert np.abs(V.T @ V - np.eye(6)).max() <= 1e-12
    assert np.linalg.norm(K - dense) <= 1e-12 * np.linalg.norm(dense)
    assert np.array_equal(K, K.T)


def test_usvt_kernel_leaves_the_callers_graph_unchanged(monkeypatch, graph_1600):
    # usvt_kernel owns the float copy that entries returns: it forms the
    # certificate and the kernel there, on the block path (n = 1600) and on
    # the dense one (n = 60, too small for the search)
    sizes = _eigh_sizes(monkeypatch)
    for A in (graph_1600[0], _random_graph(60, 5)):
        before = A.entries
        assert before is not A.entries and before.flags.writeable
        sizes.clear()
        usvt_kernel(A, 1.0, 0.6, 0.15)
        assert (max(sizes) < A.n) == (A.n == 1600)
        assert np.array_equal(A.entries, before)


def test_usvt_block_path_traced_peak_at_most_the_dense_path(graph_1600):
    A, _, dense_peak = graph_1600
    assert _traced_peak(lambda: usvt_kernel(A, 1.0, 0.6, 0.15)) <= dense_peak


def _with_eigenpair(n, v, value, seed):
    # a symmetric matrix with eigenvalues between about 1 and 2 on the
    # complement of the unit vector v, and v an eigenvector for value
    G = as_generator(SeededRng(seed)).standard_normal((n, n))
    C = np.eye(n) + G @ G.T / (4 * n + 8 * math.sqrt(n))
    P = np.eye(n) - np.outer(v, v)
    return P @ C @ P + value * np.outer(v, v)


@pytest.mark.parametrize("n", [200, 1037])
def test_cholesky_certificate_matches_lapack_and_rejects_a_negative_eigenvalue(n):
    # 64 x 64 tiles, the last one partial at both sizes (8 and 13 rows).
    # An eigenvalue of -1e-9 ||C|| is far beyond the factor's rounding
    # (about n eps ||C||): the factor breaks down whether its eigenvector
    # spreads over every row or lies in the last tile's rows
    spread = as_generator(SeededRng(n, 1)).standard_normal(n)
    last = np.zeros(n)
    last[-(n % 64) :] = as_generator(SeededRng(n, 2)).standard_normal(n % 64)
    for v in (spread / np.linalg.norm(spread), last / np.linalg.norm(last)):
        spd = _with_eigenpair(n, v, 1.5, seed=n)
        L, C = np.linalg.cholesky(spd), spd.copy()
        assert kernel_builders._cholesky_succeeds(C)
        assert np.linalg.norm(np.tril(C) - L) <= 1e-12 * np.linalg.norm(L)
        C = spd - (1.5 + 1e-9 * np.linalg.norm(spd, 2)) * np.outer(v, v)
        assert np.linalg.eigvalsh(C)[0] < 0.0
        assert not kernel_builders._cholesky_succeeds(C)
    # in place: C's copy, the tile inverses (64 n doubles) and a few tiles
    # of temporaries; at n = 1037 that is 1.08 n^2
    peak = _traced_peak(lambda: kernel_builders._cholesky_succeeds(spd.copy()))
    assert peak <= 8 * (n * n + 64 * n + 4 * 64 * 64)


def _cliques(count, size):
    return AdjacencyMatrix(np.kron(np.eye(count), np.ones((size, size)) - np.eye(size)))


@pytest.mark.parametrize("case", ["rho 0.12", "12 cliques"])
def test_usvt_small_gap_or_high_multiplicity_keeps_the_dense_bits(monkeypatch, graph_1600, case):
    # rho = 0.12 keeps a dozen eigenvalues, the last a few tenths above the
    # next; 12 disjoint 50-cliques keep the eigenvalue 49 twelve times, more
    # than the block's 8 columns hold.  Both give up after a few Rayleigh-Ritz
    # checks, and the dense eigh gives the bits it gave before
    if case == "rho 0.12":
        args = (graph_1600[0], 1.0, 0.6, 0.12)
    else:
        args = (_cliques(12, 50), 1.0, 0.6, 0.15)
    n = args[0].n
    dense = _dense_usvt(*args).entries
    sizes = _eigh_sizes(monkeypatch)
    K = usvt_kernel(*args).entries
    assert min(sizes) < n and sizes[-1] == n  # Rayleigh-Ritz, then the dense eigh
    assert np.array_equal(K, dense)


def test_usvt_start_block_missing_a_kept_eigenvector_never_keeps_fewer(monkeypatch, graph_1600):
    # a start block orthogonal to a kept eigenvector: rounding may bring the
    # top one back, and then the full set is found; without the smallest
    # kept one the certificate fails and the dense eigh runs
    A, dense, _ = graph_1600
    gamma = 0.15 * 1600**0.75
    eigvals, eigvecs = np.linalg.eigh(A.entries)
    kept = int((eigvals >= gamma).sum())
    start, certified = kernel_builders._SUBSPACE_START, []

    class Orthogonal:
        def __init__(self, v):
            self.v = v

        def generator(self):
            return self

        def standard_normal(self, shape):
            G = start.generator().standard_normal(shape)
            return G - np.outer(self.v, self.v @ G)

    cholesky = kernel_builders._cholesky_succeeds

    def certify(C):
        certified.append(cholesky(C))
        return certified[-1]

    monkeypatch.setattr(kernel_builders, "_cholesky_succeeds", certify)
    for j in (-1, -kept):
        monkeypatch.setattr(kernel_builders, "_SUBSPACE_START", Orthogonal(eigvecs[:, j]))
        found = kernel_builders._pairs_above(A.entries, gamma)
        fewer = found is not None and len(found[0]) < kept
        assert not fewer or not kernel_builders._certified(A.entries, *found, gamma)
    assert certified[-1] is False  # the certificate catches the missing pair
    # usvt_kernel's certificate fails in its float copy of the graph, which
    # is refilled from the bits before the dense eigh
    sizes, tried = _eigh_sizes(monkeypatch), len(certified)
    assert np.array_equal(usvt_kernel(A, 1.0, 0.6, 0.15).entries, dense)
    assert certified[tried:] == [False]
    assert sizes[-1] == 1600


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
    mu, vecs, _, _ = kernel_builders._top_eigenpairs(W, inv_sqrt, top)
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
    assert np.array_equal(KernelMatrix._adopt(K.copy()).entries, _reference_symmetrized(K))
    gram = gram_kernel(gaussian_kernel(0.5), cloud)
    assert np.array_equal(gram.entries, _reference_symmetrized(gaussian_kernel(0.5).pairwise(x, x)))
    A = latent_graph(gram, 0.8, SeededRng(n, 3)).entries
    assert np.array_equal(A, _reference_adjacency(gram, 0.8, SeededRng(n, 3)))
    top = min(n, 16)
    prof = normalized_indicator_profile(2)
    details = harmonic_kernel_family(cloud, (top,), 0.5, 0.6, prof, 2)
    factor, density, eigvals = _reference_harmonic(cloud, top, 0.5, 0.6, prof, 2)
    assert np.array_equal(details.kernels[top].factor, factor)
    assert np.array_equal(details.density, density)
    assert np.array_equal(details.laplacian_eigenvalues, eigvals)
    assert np.array_equal(details.kernels[top].entries, _reference_symmetrized(factor @ factor.T))


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
@pytest.mark.parametrize("alpha", [1.0, 0.8])
def test_latent_graph_matches_reference_bits_and_stream(n, alpha):
    gram = gram_kernel(gaussian_kernel(0.5), cube(n, 2, seed=n, stream=4))
    gen, ref_gen = SeededRng(n, 5).generator(), SeededRng(n, 5).generator()
    A = latent_graph(gram, alpha, gen).entries
    assert np.array_equal(A, _reference_adjacency(gram, alpha, ref_gen))
    # the blocks read exactly the one draw of n (n - 1) / 2 uniforms
    assert gen.random() == ref_gen.random()


@pytest.mark.parametrize(
    "n, md5",
    [(130, "2cd59e44ac657cd00cedb327e17f4df0"), (1000, "e2c0dd3554dd87cdd7df9895470a8297")],
)
def test_latent_graph_keeps_the_float_graphs_bytes_and_stream(n, md5):
    # the md5 of the float64 entries that latent_graph gave when it held
    # the graph as a float64 matrix, and the generator left where one draw
    # of n (n - 1) / 2 uniforms leaves it.  An edge moves only where a
    # uniform falls within rounding of its probability, so the md5s hold on
    # hosts whose Gram bits differ in the last place
    gram = gram_kernel(gaussian_kernel(0.5), cube(n, 2, seed=n, stream=4))
    gen, ref_gen = SeededRng(n, 5).generator(), SeededRng(n, 5).generator()
    A = latent_graph(gram, 0.8, gen).entries
    assert A.dtype == np.float64 and hashlib.md5(A.tobytes()).hexdigest() == md5
    ref_gen.random(n * (n - 1) // 2)
    assert np.array_equal(gen.random(8), ref_gen.random(8))


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
    for build in (KernelMatrix, lambda K: KernelMatrix._adopt(K.copy())):
        with pytest.raises(ValueError) as err:
            build(K)
        assert str(err.value) == (
            f"kernel asymmetry {asym:.3e} exceeds 1e-10 * max|K| = {1e-10 * scale:.3e}"
        )


@pytest.mark.parametrize("layout", ["read-only", "F", "strided", "integer", "C"])
def test_gram_copies_an_array_it_cannot_own(layout):
    # KernelMatrix(K) symmetrizes a C-ordered copy and leaves K's values and
    # writeable flag as they were.  gram_kernel symmetrizes a writeable
    # C-ordered float result of pairwise in place; any other result is
    # copied and left as it was
    cloud = cube(70, 2, seed=16)
    held = gaussian_kernel(0.5).pairwise(cloud.points, cloud.points)
    held[3, 40] += 1e-14
    if layout == "F":
        held = np.asfortranarray(held)
    elif layout == "read-only":
        held.setflags(write=False)
    elif layout == "strided":
        held = np.repeat(np.repeat(held, 2, axis=0), 2, axis=1)[::2, ::2]
    elif layout == "integer":
        held = np.rint(1000.0 * held).astype(np.int64)
    before, writeable = held.copy(), held.flags.writeable
    assert np.array_equal(KernelMatrix(held).entries, _reference_symmetrized(before))
    assert np.array_equal(held, before) and held.flags.writeable == writeable
    kernel = ContinuousKernel(pairwise=lambda X, Y: held, diagonal=lambda X: np.ones(len(X)))
    G = gram_kernel(kernel, cloud)
    assert np.array_equal(G.entries, _reference_symmetrized(before))
    if layout == "C":
        assert G.entries is held
    else:
        assert np.array_equal(held, before) and held.flags.writeable == writeable


def test_gram_rejects_a_non_square_result_first():
    # the shape is checked before the entries, as KernelMatrix checks it
    cloud = cube(5, 2)
    for fill in (1.0, math.nan):
        kernel = ContinuousKernel(
            pairwise=lambda X, Y: np.full((len(X), len(Y) + 1), fill),
            diagonal=lambda X: np.ones(len(X)),
        )
        with pytest.raises(ValueError, match=r"kernel matrix must be square, got shape \(5, 6\)"):
            gram_kernel(kernel, cloud)


def test_gram_rejects_a_result_of_the_wrong_size():
    # a square result on more or fewer points than the cloud's is no Gram
    cloud = cube(5, 2)
    for size in (7, 4):
        kernel = ContinuousKernel(
            pairwise=lambda X, Y: np.eye(size), diagonal=lambda X: np.ones(len(X))
        )
        with pytest.raises(ValueError, match=rf"shape \({size}, {size}\), expected \(5, 5\)"):
            gram_kernel(kernel, cloud)


# --- memory: one n x n array per build -------------------------------------

# traced peaks at n = 1000, in units of n x n doubles; each bound fails for
# the builders that kept two or three throwaway n x n arrays alive.  The
# harmonic fallback holds two, W (as M) and eigh's eigenvectors.
# latent_graph writes its edges into an n x n bool array (1/8) beside a row
# block's probabilities and uniforms, 64 rows of n doubles each (0.064
# apiece at n = 1000), and packs them into bits (1/64): 1.14 when it wrote
# float64 entries, 0.27 now.  Every dense kernel is checked and
# symmetrized in place, on 64-row blocks, by one routine: KernelMatrix(K)
# runs it on a copy of K (1.008 with a whole-matrix buffer, 1.075 now), and
# gram_kernel on its own array; it held two n x n arrays before (2.01; 1.08
# now).  usvt_kernel reads the graph once as floats and writes the kernel
# into that copy; its dense path at n = 1000 (the block search gives up)
# holds the copy and eigh's eigenvectors.  Drawn from the Gram in hand, the
# graph and the kernel peak there at 2.02; with the graph held as floats by
# the caller, beside usvt_kernel's eigenvectors and then its kernel, 2.08
_PEAK_BOUNDS = {
    "harmonic_kernel_family": 1.5,
    "harmonic fallback": 2.5,
    "kde_density": 1.25,
    "squared_distances": 1.15,
    "KernelMatrix": 1.1,
    "gram_kernel": 1.15,
    "latent_graph": 0.3,
    "factored entries": 1.1,
    "latent_graph + usvt_kernel": 2.08,
}


@pytest.fixture(scope="module")
def dense_builds():
    cloud, h1, h2, prof = _sphere_setup(n=1000, seed=16)
    gram = gram_kernel(gaussian_kernel(0.5), cloud)
    dense = np.array(gram.entries)
    factor = ope_kernel(cube(1000, 2, seed=55), 16).factor
    graph_gram = gram_kernel(gaussian_kernel(amplitude=0.6), cube(1000, 2, seed=7))
    return {
        "harmonic_kernel_family": lambda: harmonic_kernel_family(cloud, (16,), h1, h2, prof, 2),
        "harmonic fallback": lambda: harmonic_kernel_family(cloud, (16,), 0.2, h2, prof, 2),
        "kde_density": lambda: kde_density(cloud, h2, prof, 2),
        "squared_distances": lambda: squared_distances(cloud.points),
        "KernelMatrix": lambda: KernelMatrix(dense),
        "gram_kernel": lambda: gram_kernel(gaussian_kernel(0.5), cloud),
        "latent_graph": lambda: latent_graph(gram, 0.8, SeededRng(17)),
        "factored entries": lambda: KernelMatrix(factor=factor).entries,
        "latent_graph + usvt_kernel": lambda: usvt_kernel(
            latent_graph(graph_gram, 1.0, SeededRng(7, 1)), 1.0, 0.6, 0.15
        ),
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
