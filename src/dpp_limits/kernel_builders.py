"""Construction of the discrete kernel matrices.

Four families are built here, all under the same convention: a kernel matrix
``K`` together with the uniform weight ``1/n`` on the points defines a point
process whose co-occurrence probabilities are ``det(K_A) / n^|A|``.  Such a
process exists exactly when ``K`` is symmetric with eigenvalues in ``[0, n]``.
The two projection families (``ope_kernel``, ``harmonic_kernel``) are built
in factored form ``K = B B^T`` with an ``n x m`` factor; the others are dense.

* ``gram_kernel`` — restriction of an explicit kernel function to the cloud,
  given as a :class:`ContinuousKernel` of two vectorized callables,
  ``pairwise(X, Y)`` and ``diagonal(X)``;
* ``ope_kernel`` — orthonormal-polynomial projection kernel (monomials in
  graded lexical order, Gram-Schmidt under the ``1/n``-weighted inner
  product);
* ``harmonic_kernel`` — graph-Laplacian surrogate for the first Laplace-
  Beltrami eigenfunctions of an unknown manifold, with density reweighting;
* ``usvt_kernel`` — denoised estimate recovered from a Bernoulli adjacency
  matrix by universal singular value thresholding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .point_cloud import PointCloud
from .rng import SeededRng, as_generator

SYMMETRY_RTOL = 1e-10
GS_RTOL = 1e-10
# block subspace iteration of the harmonic builder: columns beyond the top
# rank, convergence bound on the worst Ritz residual relative to mu_1, the
# iteration cap per block width, and the private stream of its start block,
# so that reruns are byte-identical whatever the caller's generators
_SUBSPACE_OVERSAMPLE = 32
_RITZ_RTOL = 1e-14
_SUBSPACE_MAX_ITERATIONS = 20
_SUBSPACE_START = SeededRng(0x48415252)
# rows per block of the dense builders' row-wise passes beside their n x n array
_ROW_BLOCK = 64


class KernelMatrix:
    """Symmetric kernel matrix under the ``1/n`` weight convention.

    ``KernelMatrix(entries)`` is dense: construction checks symmetry to
    relative tolerance ``1e-10`` and then stores the exactly symmetrized
    matrix, read-only.  ``KernelMatrix(factor=B)`` is factored: it holds
    ``K = B B^T`` for a finite ``n x m`` factor with ``m <= n``; ``entries``
    is built from the factor on first read and cached, and ``diagonal()``
    comes from the squared row norms of ``B``.
    """

    __slots__ = ("_entries", "_factor")

    def __init__(
        self, entries: np.ndarray | None = None, *, factor: np.ndarray | None = None
    ) -> None:
        if (entries is None) == (factor is None):
            raise ValueError("give exactly one of entries and factor")
        self._entries: np.ndarray | None = None
        self._factor: np.ndarray | None = None
        if factor is not None:
            B = np.array(factor, dtype=float)
            if B.ndim != 2 or B.shape[1] > B.shape[0]:
                raise ValueError(f"kernel factor must be n x m with m <= n, got shape {B.shape}")
            _check_finite(B, "kernel factor entry")
            B.setflags(write=False)
            self._factor = B
            return
        K = np.asarray(entries, dtype=float)
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise ValueError(f"kernel matrix must be square, got shape {K.shape}")
        _check_finite(K, "kernel entry")
        # one n x n buffer: |K - K^T| for the check, then the symmetrized K
        buf = np.subtract(K, K.T, out=np.empty(K.shape))
        scale = max(float(K.max()), -float(K.min())) if K.size else 0.0
        asym = float(np.abs(buf, out=buf).max()) if K.size else 0.0
        if asym > SYMMETRY_RTOL * scale:
            raise ValueError(
                f"kernel asymmetry {asym:.3e} exceeds {SYMMETRY_RTOL:.0e} * max|K| = "
                f"{SYMMETRY_RTOL * scale:.3e}"
            )
        np.add(K, K.T, out=buf)  # (K + K^T) / 2, C-ordered
        buf /= 2.0
        buf.setflags(write=False)
        self._entries = buf

    @property
    def factor(self) -> np.ndarray | None:
        """The ``n x m`` factor ``B`` of ``K = B B^T``, or None for a dense kernel."""
        return self._factor

    @property
    def entries(self) -> np.ndarray:
        if self._entries is None:
            # B B^T comes out of BLAS exactly symmetric: one n x n array
            K = self._factor @ self._factor.T
            K.setflags(write=False)
            self._entries = K
        return self._entries

    @property
    def n(self) -> int:
        return (self._entries if self._factor is None else self._factor).shape[0]

    def diagonal(self) -> np.ndarray:
        if self._factor is None:
            return self._entries.diagonal()
        return np.einsum("ij,ij->i", self._factor, self._factor)


def _check_finite(A: np.ndarray, what: str) -> None:
    if A.size and not np.isfinite(A).all():
        i, j = np.argwhere(~np.isfinite(A))[0]
        raise ValueError(f"non-finite {what} at ({i}, {j})")


@dataclass(frozen=True)
class ContinuousKernel:
    """Symmetric kernel function on R^d, given by two vectorized callables.

    ``pairwise(X, Y)`` returns the matrix ``k(x_i, y_j)`` for two stacked
    point arrays; ``diagonal(X)`` returns the vector ``k(x_i, x_i)``, so a
    1-point statistic reads no ``n x n`` matrix.
    """

    pairwise: Callable[[np.ndarray, np.ndarray], np.ndarray]
    diagonal: Callable[[np.ndarray], np.ndarray]


def squared_distances(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """Pairwise squared Euclidean distances between rows, clipped at 0."""
    x = np.asarray(x, dtype=float)
    y = x if y is None else np.asarray(y, dtype=float)
    # |x|^2 + |y|^2 - 2 x.y in the one n x n array of the product
    sq = x @ y.T
    sq *= 2.0
    xx, yy = (x * x).sum(axis=1), (y * y).sum(axis=1)
    for rows in _row_blocks(sq.shape[0]):
        np.subtract(xx[rows, None] + yy, sq[rows], out=sq[rows])
    return np.maximum(sq, 0.0, out=sq)


def _row_blocks(n: int) -> list[slice]:
    return [slice(i, i + _ROW_BLOCK) for i in range(0, n, _ROW_BLOCK)]


def _mirror_upper(A: np.ndarray) -> None:
    # copy the strict upper triangle of A onto its lower one, in place and on
    # row blocks (a column-order scatter takes about twice as long); the
    # lower triangle and the diagonal must be zero on entry
    for rows in _row_blocks(A.shape[0]):
        A[rows, : rows.start] = A[: rows.start, rows].T
        tile = A[rows, rows]
        tile += tile.T


def constant_kernel(value: float = 1.0) -> ContinuousKernel:
    """Kernel identically equal to ``value`` (rank-one when used as a Gram)."""
    return ContinuousKernel(
        pairwise=lambda X, Y: np.full((X.shape[0], Y.shape[0]), float(value)),
        diagonal=lambda X: np.full(X.shape[0], float(value)),
    )


def gaussian_kernel(bandwidth: float = 1.0, amplitude: float = 1.0) -> ContinuousKernel:
    """``amplitude * exp(-||x - y||^2 / bandwidth^2)``."""
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    b2 = bandwidth * bandwidth

    def pairwise(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        G = squared_distances(X, Y)  # amplitude * exp(-G / b2), in place
        np.exp(np.divide(np.negative(G, out=G), b2, out=G), out=G)
        G *= amplitude
        return G

    return ContinuousKernel(
        pairwise=pairwise, diagonal=lambda X: np.full(X.shape[0], float(amplitude))
    )


def gram_kernel(kernel: ContinuousKernel, cloud: PointCloud) -> KernelMatrix:
    """Restrict a kernel function to the cloud: ``G[i, j] = k(x_i, x_j)``."""
    pts = cloud.points
    G = np.asarray(kernel.pairwise(pts, pts), dtype=float)
    if G.size and not np.isfinite(G).all():
        i, j = np.argwhere(~np.isfinite(G))[0]
        raise ValueError(f"kernel evaluation not finite at point pair ({i}, {j})")
    return KernelMatrix(G)


# ---------------------------------------------------------------------------
# orthonormal polynomial projection kernel
# ---------------------------------------------------------------------------


def graded_monomials(d: int, m: int) -> np.ndarray:
    """Exponents of the first ``m`` monomials in graded lexical order.

    Row ``k`` of the ``m x d`` integer array holds the exponents
    ``(b_1, ..., b_d)`` of monomial ``x(1)^b1 * ... * x(d)^bd``.  Rows are
    sorted by total degree first; within a degree, lexicographically with
    ``b_1`` most significant.  Row 0 is always the constant monomial.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if m < 1:
        raise ValueError("m must be at least 1")
    out: list[tuple[int, ...]] = []
    total = 0
    while len(out) < m:
        out.extend(_compositions(total, d))
        total += 1
    return np.array(out[:m], dtype=np.intp)


def _compositions(total: int, d: int) -> list[tuple[int, ...]]:
    # all d-tuples of nonnegative integers summing to total, in lexical order
    if d == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        out.extend((first, *rest) for rest in _compositions(total - first, d - 1))
    return out


def monomial_matrix(cloud: PointCloud, exponents: np.ndarray) -> np.ndarray:
    """Evaluate monomials on the cloud; column ``j`` is monomial ``exponents[j]``."""
    return np.prod(cloud.points[:, None, :] ** exponents, axis=2)


def _legendre_tensor_matrix(points: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """Tensor-Legendre evaluations spanning the same graded flag.

    Column ``j`` is ``P_{b1}(x_1) * ... * P_{bd}(x_d)`` at the points for
    row ``j`` of ``exponents``; it expands over monomials of
    componentwise-smaller degree, so the change of basis from the monomial
    columns is unit-triangular in graded lexical order: every prefix spans
    the same space, and Gram-Schmidt yields the same orthonormal vectors.
    Unlike raw monomials, the columns stay well conditioned at high degree.
    """
    vander = np.polynomial.legendre.legvander
    M = vander(points[:, 0], exponents[:, 0].max())[:, exponents[:, 0]]
    for x, b in zip(points.T[1:], exponents.T[1:]):
        M *= vander(x, b.max())[:, b]
    return M


def orthonormalize_columns(M: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Gram-Schmidt under the inner product ``<u, v> = sum_i w_i u_i v_i``.

    Classical Gram-Schmidt run twice per column (one re-orthogonalization
    pass); a residual norm below ``GS_RTOL`` times the input norm raises with
    the offending column index.
    """
    n, m = M.shape
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,) or (w <= 0).any():
        raise ValueError("weights must be a positive vector matching the rows")
    Q = np.empty((n, m))
    for j in range(m):
        v = M[:, j].astype(float)
        norm0 = math.sqrt(float(v @ (w * v)))
        for _ in range(2):
            if j:
                v = v - Q[:, :j] @ (Q[:, :j].T @ (w * v))
        norm = math.sqrt(max(float(v @ (w * v)), 0.0))
        if norm <= GS_RTOL * norm0 or norm0 == 0.0:
            raise ValueError(
                f"rank deficiency at column {j}: residual norm {norm:.3e} "
                f"below {GS_RTOL:.0e} of input norm {norm0:.3e}"
            )
        Q[:, j] = v / norm
    return Q


def ope_kernel(cloud: PointCloud, m: int) -> KernelMatrix:
    """Projection kernel spanned by the first ``m`` orthonormal polynomials.

    Monomials are taken in graded lexical order and orthonormalized under
    the ``1/n``-weighted inner product on the cloud; the kernel is
    ``K = sum_i p_i p_i^T``, so ``K/n`` is an orthogonal projection of rank
    ``m`` and ``tr(K)/n = m``.  Evaluation goes through the equivalent
    tensor-Legendre basis, which spans the same prefix flags but keeps
    Gram-Schmidt well conditioned at high polynomial degree.

    The kernel is factored by the ``n x m`` matrix of the ``p_i``.
    Gram-Schmidt is prefix-stable, so its first ``k`` columns are the
    factor of the rank-``k`` kernel.
    """
    n = cloud.n
    if not 1 <= m <= n:
        raise ValueError(f"m must be in [1, n] = [1, {n}], got {m}")
    M = _legendre_tensor_matrix(cloud.points, graded_monomials(cloud.dim, m))
    try:
        P = orthonormalize_columns(M, np.full(n, 1.0 / n))
    except ValueError as exc:
        raise ValueError(f"monomials dependent on this cloud: {exc}") from None
    return KernelMatrix(factor=P)


# ---------------------------------------------------------------------------
# graph-harmonic projection kernel
# ---------------------------------------------------------------------------


def normalized_indicator_profile(d_manifold: int = 2) -> Callable[[np.ndarray], np.ndarray]:
    """Radial profile ``1_[0,1] / vol(unit ball)``, unit mass over R^d."""
    vol = math.pi ** (d_manifold / 2.0) / math.gamma(d_manifold / 2.0 + 1.0)
    return lambda t: np.where(np.asarray(t) <= 1.0, 1.0 / vol, 0.0)


def kde_density(
    cloud: PointCloud,
    h2: float,
    profile: Callable[[np.ndarray], np.ndarray],
    d_manifold: int,
) -> np.ndarray:
    """Density estimate at every cloud point.

    ``e(x) = (n h2^d)^{-1} sum_i l(||x_i - x|| / h2)`` with ``d`` the
    intrinsic dimension; the radial profile ``l`` must be Riemann integrable
    on compacts (caller-declared).
    """
    if h2 <= 0:
        raise ValueError("bandwidth h2 must be positive")
    if d_manifold < 1:
        raise ValueError("intrinsic dimension must be at least 1")
    n = cloud.n
    t = squared_distances(cloud.points)
    np.sqrt(t, out=t)
    t /= h2
    # the profile on row blocks; the running column sums enter each block as
    # its first row, so the rows add in order, as in one sum over the array
    total = np.empty((0, n))
    for rows in _row_blocks(n):
        vals = np.asarray(profile(t[rows]), dtype=float)
        if vals.shape != t[rows].shape:
            raise ValueError(f"profile returned shape {vals.shape}, expected {t[rows].shape}")
        total = np.concatenate((total, vals)).sum(axis=0, keepdims=True)
    return total.reshape(-1) / (n * h2**d_manifold)


@dataclass(frozen=True)
class HarmonicDetails:
    """Intermediate quantities of the harmonic kernel construction.

    ``kernel`` is factored by ``basis / sqrt(density)`` with no further
    rescale: ``basis`` is orthonormal under ``omega``, so the factor's
    columns have squared norm ``n`` and are mutually orthogonal.
    """

    kernel: KernelMatrix  # factored by basis / sqrt(density)
    basis: np.ndarray  # surrogate eigenfunctions v_i, orthonormal under omega
    density: np.ndarray  # kernel density estimate at each point
    omega_weights: np.ndarray  # 1 / (n * density)
    # the smallest max(m_grid) normalized-Laplacian eigenvalues, ascending
    laplacian_eigenvalues: np.ndarray
    ritz_residual: float  # worst ||M u_i - mu_i u_i|| of the top pairs / mu_1
    subspace_iterations: int  # block subspace iterations, over both widths


def harmonic_kernel(
    cloud: PointCloud,
    m: int,
    h1: float,
    h2: float,
    profile: Callable[[np.ndarray], np.ndarray],
    d_manifold: int,
) -> KernelMatrix:
    """Kernel of the discrete harmonic ensemble on an unknown manifold."""
    return harmonic_kernel_details(cloud, m, h1, h2, profile, d_manifold).kernel


def harmonic_kernel_details(
    cloud: PointCloud,
    m: int,
    h1: float,
    h2: float,
    profile: Callable[[np.ndarray], np.ndarray],
    d_manifold: int,
) -> HarmonicDetails:
    """As :func:`harmonic_kernel`, returning construction internals."""
    return harmonic_kernel_family(cloud, (m,), h1, h2, profile, d_manifold)[m]


def harmonic_kernel_family(
    cloud: PointCloud,
    m_grid: Sequence[int],
    h1: float,
    h2: float,
    profile: Callable[[np.ndarray], np.ndarray],
    d_manifold: int,
) -> dict[int, HarmonicDetails]:
    """Harmonic kernels for every rank of ``m_grid``, sharing the spectral work.

    Steps: Gaussian-weighted complete graph at bandwidth ``h1``; degree
    double-normalization of the adjacency; normalized Laplacian
    ``(I - D^-1 W) / h1^2``; its ``max(m_grid)`` smallest-eigenvalue
    eigenvectors, from the top eigenpairs of the similar symmetric matrix
    ``D^-1/2 W D^-1/2`` by block subspace iteration (``_top_eigenpairs``;
    no ``n x n`` eigendecomposition); kernel density estimate at bandwidth
    ``h2``; Gram-Schmidt under the density-corrected volume weights
    ``omega = 1 / (n * density)``; and the density-reweighted projection
    kernel.  The rank-``m`` kernel is factored by ``V / sqrt(density)``
    over the first ``m`` columns ``V`` of the basis.

    No rescaling is needed on either side of Gram-Schmidt: it ignores a
    positive rescale of its input columns, and its output ``V`` satisfies
    ``V^T diag(omega) V = I``, so the factor ``B = V / sqrt(density)`` has
    ``B^T B = n I`` and ``K = B B^T`` is ``n`` times an orthogonal
    projection, with every eigenvalue in ``{0, n}`` up to rounding.
    ``validate_kernel`` still checks that.  Gram-Schmidt is prefix-stable,
    so the basis is computed once, at the largest rank.
    """
    if not m_grid:
        return {}
    n = cloud.n
    ranks = sorted(set(int(m) for m in m_grid))
    for m in (ranks[0], ranks[-1]):
        if not 1 <= m <= n:
            raise ValueError(f"m must be in [1, n] = [1, {n}], got {m}")
    if h1 <= 0 or h2 <= 0:
        raise ValueError("bandwidths must be positive")
    top = ranks[-1]

    # the density first, so that its distance array is gone before W exists
    density = kde_density(cloud, h2, profile, d_manifold)
    # weights, then their degree double-normalization, in one n x n array
    W = squared_distances(cloud.points)
    W /= -4.0 * h1 * h1
    np.exp(W, out=W)
    deg = W.sum(axis=1)
    if (deg <= 0).any():
        raise ValueError(f"degenerate degree at point {int(np.argmin(deg))}")
    for rows in _row_blocks(n):
        np.divide(W[rows], np.multiply.outer(deg[rows], deg), out=W[rows])
    row = W.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(row)
    # M = D^-1/2 W D^-1/2 is similar to D^-1 W, so (I - M) / h1^2 has the
    # spectrum of the normalized Laplacian and M's spectrum lies in [-1, 1]
    mu, eigvecs, residual, iterations = _top_eigenpairs(
        lambda X: inv_sqrt[:, None] * (W @ (inv_sqrt[:, None] * X)), n, top
    )
    eigvals = (1.0 - mu) / (h1 * h1)
    if eigvals.min() < -1e-8 * max(1.0, 2.0 / (h1 * h1)):
        raise ArithmeticError(
            f"normalized Laplacian has eigenvalue {eigvals.min():.3e} below tolerance"
        )
    # eigenvectors of the non-symmetric Laplacian, smallest eigenvalues
    U = inv_sqrt[:, None] * eigvecs
    # fix the sign ambiguity: largest-magnitude entry made positive
    peak = U[np.argmax(np.abs(U), axis=0), np.arange(top)]
    U *= np.where(peak < 0, -1.0, 1.0)

    if (density <= 0).any():
        raise ValueError(
            f"density estimate vanishes at point {int(np.argmin(density))}; "
            "increase h2 or widen the profile"
        )
    omega = 1.0 / (n * density)
    V = orthonormalize_columns(U, omega)
    inv_sqrt_density = (1.0 / np.sqrt(density))[:, None]
    return {
        m: HarmonicDetails(
            kernel=KernelMatrix(factor=V[:, :m] * inv_sqrt_density),
            basis=V[:, :m],
            density=density,
            omega_weights=omega,
            laplacian_eigenvalues=eigvals,
            ritz_residual=residual,
            subspace_iterations=iterations,
        )
        for m in ranks
    }


def _top_eigenpairs(
    apply: Callable[[np.ndarray], np.ndarray], n: int, top: int
) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Top ``top`` eigenpairs of a symmetric ``n x n`` operator, descending.

    Block subspace iteration with Rayleigh-Ritz (Halko, Martinsson & Tropp,
    SIAM Review 2011) from a fixed start block: each iteration
    orthonormalizes the block ``Y = M X`` to ``Q``, applies ``M`` once more
    and solves the ``p x p`` eigenproblem of ``Q^T M Q``.  It stops once
    the worst residual ``||M u_i - mu_i u_i||`` of the top Ritz pairs is at
    most ``_RITZ_RTOL * mu_1`` and returns the values, the ``n x top``
    vectors, that residual over ``mu_1`` and the iteration count.  The
    block has ``p = min(n, top + _SUBSPACE_OVERSAMPLE)`` columns; if that
    width does not converge in ``_SUBSPACE_MAX_ITERATIONS`` iterations (a
    small graph bandwidth flattens the spectrum), the same loop runs once
    more at ``p = n``, where ``Q`` spans the whole space and one iteration
    is a dense solve.  The count covers both widths; if both fail it
    raises ``ArithmeticError``.
    """
    widths = sorted({min(n, top + _SUBSPACE_OVERSAMPLE), n})
    iterations = 0
    for p in widths:
        Y = apply(_SUBSPACE_START.generator().standard_normal((n, p)))
        for _ in range(_SUBSPACE_MAX_ITERATIONS):
            iterations += 1
            Q = np.linalg.qr(Y)[0]
            Y = apply(Q)
            H = Q.T @ Y
            ritz, G = np.linalg.eigh((H + H.T) / 2.0)
            mu, G = ritz[: -top - 1 : -1], G[:, : -top - 1 : -1]
            U = Q @ G
            residual = float(np.linalg.norm(Y @ G - U * mu, axis=0).max())
            if residual <= _RITZ_RTOL * mu[0]:
                return mu, U, residual / mu[0], iterations
    raise ArithmeticError(
        f"subspace iteration for the top {top} eigenpairs did not converge in "
        f"{_SUBSPACE_MAX_ITERATIONS} iterations at block widths "
        f"{', '.join(map(str, widths))}: worst Ritz residual "
        f"{residual / mu[0]:.3e} of mu_1, above {_RITZ_RTOL:.0e}"
    )


# ---------------------------------------------------------------------------
# random-graph kernel via singular value thresholding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdjacencyMatrix:
    """Symmetric 0/1 adjacency matrix with zero diagonal."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        A = np.asarray(self.entries, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"adjacency matrix must be square, got shape {A.shape}")
        # both checks on row blocks, so no n x n mask exists beside A; a
        # block compares its columns from its first row on with their mirror
        blocks = _row_blocks(A.shape[0])
        if not all(np.array_equal(A[r, r.start :], A[r.start :, r].T) for r in blocks):
            raise ValueError("adjacency matrix must be symmetric")
        if not all(((A[r] == 0.0) | (A[r] == 1.0)).all() for r in blocks):
            raise ValueError("adjacency entries must be 0 or 1")
        if A.size and A.diagonal().any():
            raise ValueError("adjacency diagonal must be zero")
        A = np.ascontiguousarray(A)
        A.setflags(write=False)
        object.__setattr__(self, "entries", A)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def latent_graph(gram: KernelMatrix, alpha: float, rng: SeededRng) -> AdjacencyMatrix:
    """Draw a latent position random graph from a kernel's Gram matrix.

    Edges are independent with ``P(edge ij) = alpha * k(x_i, x_j)``, where
    ``gram`` holds ``k`` at the latent positions (see :func:`gram_kernel`);
    all pair probabilities must lie in [0, 1].
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    n = gram.n
    lo, hi = 0.0, 1.0
    for _, _, probs in _upper_probabilities(gram.entries, alpha):
        if probs.size:
            lo, hi = min(lo, probs.min()), max(hi, probs.max())
    if lo < 0.0 or hi > 1.0:
        raise ValueError(f"edge probability {float(lo if lo < 0.0 else hi)} outside [0, 1]")
    # block by block, the strict upper triangle in row-major order reads the
    # stream of one draw of n (n - 1) / 2 uniforms
    gen = as_generator(rng)
    A = np.zeros((n, n))
    for block, upper, probs in _upper_probabilities(gram.entries, alpha):
        A[block][upper] = gen.random(probs.shape[0]) < probs
    _mirror_upper(A)
    return AdjacencyMatrix(A)


def _upper_probabilities(
    G: np.ndarray, alpha: float
) -> Iterator[tuple[tuple[slice, slice], np.ndarray, np.ndarray]]:
    # per row block: the index of its columns right of the block's first
    # diagonal entry, the strict-upper mask there, and alpha * G under it
    n = G.shape[0]
    cols = np.arange(n)
    for rows in _row_blocks(n):
        right = slice(rows.start + 1, n)
        upper = cols[right] > cols[rows, None]
        probs = G[rows, right][upper]
        probs *= alpha
        yield (rows, right), upper, probs


def usvt_kernel(
    adjacency: AdjacencyMatrix, alpha: float, c: float, rho: float
) -> KernelMatrix:
    """Denoise an adjacency matrix into an admissible kernel matrix.

    Eigenvalues of ``A`` at or above the threshold ``rho * (alpha n)^{3/4}``
    are kept and rescaled by ``1/alpha``; a diagonal shift restores the
    target diagonal level ``c`` whenever thresholding undershoots it; and a
    final multiplier clips the spectrum into ``[0, n]``.
    """
    n = adjacency.n
    gamma = _usvt_threshold(n, alpha, rho)
    if not 0.0 <= c <= 1.0:
        raise ValueError("c must be in [0, 1]")
    eigvals, eigvecs = np.linalg.eigh(adjacency.entries)
    kept = eigvals >= gamma
    lam = eigvals[kept] / alpha
    V = eigvecs[:, kept]
    del eigvecs
    # one n x n array from here on; with nothing kept it is the zero matrix
    K = (V * lam) @ V.T
    K += K.T
    K /= 2.0
    correction = max(c - float(np.trace(K)) / n, 0.0)
    lam_max = float(lam.max(initial=0.0)) + correction
    K.flat[:: n + 1] += correction
    soft_cap = 1.0 / (1.0 + (alpha * n) ** -0.25)
    c_prime = min(n / lam_max, soft_cap) if lam_max > 0 else soft_cap
    K *= c_prime
    return KernelMatrix(K)


def usvt_retained_rank(adjacency: AdjacencyMatrix, alpha: float, rho: float) -> int:
    """Number of eigenvalues kept by the threshold ``rho * (alpha n)^{3/4}``."""
    gamma = _usvt_threshold(adjacency.n, alpha, rho)
    return int((np.linalg.eigvalsh(adjacency.entries) >= gamma).sum())


def _usvt_threshold(n: int, alpha: float, rho: float) -> float:
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    if rho <= 0:
        raise ValueError("rho must be positive")
    return rho * (alpha * n) ** 0.75

