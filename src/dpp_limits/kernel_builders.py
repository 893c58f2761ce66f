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
  graded lexical order, orthonormalized by Householder QR under the
  ``1/n``-weighted inner product);
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
# block width of the USVT builder's block Krylov search
_KRYLOV_WIDTH = 8
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
            _check_finite(B, "kernel factor entry at")
            B.setflags(write=False)
            self._factor = B
            return
        # a C-ordered copy, so the caller's array is never touched
        self._entries = _dense_entries(np.array(entries, dtype=float, order="C"), "kernel entry at")

    @classmethod
    def _adopt(cls, K: np.ndarray, what: str = "kernel entry at") -> KernelMatrix:
        # dense kernel of an array that its builder hands over, in place
        kernel = cls.__new__(cls)
        kernel._factor, kernel._entries = None, _dense_entries(K, what)
        return kernel

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


def _dense_entries(K: np.ndarray, what: str) -> np.ndarray:
    # the one way an n x n array becomes a dense kernel's entries: checked
    # square, finite and symmetric, symmetrized in place with (a + b) / 2 and
    # made read-only.  Row block r pairs its columns from r.start on with
    # their mirror, which no earlier block has written
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"kernel matrix must be square, got shape {K.shape}")
    _check_finite(K, what)
    scale = max(float(K.max()), -float(K.min())) if K.size else 0.0
    asym = 0.0
    for r in _row_blocks(K.shape[0]):
        upper, lower = K[r, r.start :], K[r.start :, r].T
        buf = np.subtract(upper, lower)
        asym = max(asym, float(np.abs(buf, out=buf).max()))
        np.add(upper, lower, out=buf)
        buf /= 2.0
        K[r, r.start :] = buf
        K[r.start :, r] = buf.T
        del buf  # before the next block's
    if asym > SYMMETRY_RTOL * scale:
        raise ValueError(
            f"kernel asymmetry {asym:.3e} exceeds {SYMMETRY_RTOL:.0e} * max|K| = "
            f"{SYMMETRY_RTOL * scale:.3e}"
        )
    K.setflags(write=False)
    return K


def _check_finite(A: np.ndarray, what: str) -> None:
    # on row blocks, so no mask of A's size exists beside it
    for rows in _row_blocks(len(A)):
        if not np.isfinite(A[rows]).all():
            i, j = np.argwhere(~np.isfinite(A[rows]))[0]
            raise ValueError(f"non-finite {what} ({rows.start + i}, {j})")


@dataclass(frozen=True)
class ContinuousKernel:
    """Symmetric kernel function on R^d, given by two vectorized callables.

    ``pairwise(X, Y)`` returns the matrix ``k(x_i, y_j)`` for two stacked
    point arrays; ``diagonal(X)`` returns the vector ``k(x_i, x_i)``, so a
    1-point statistic reads no ``n x n`` matrix.  ``pairwise`` returns a new
    array: :func:`gram_kernel` symmetrizes a writeable, C-ordered float
    result in place and keeps it as its kernel's entries.
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


def constant_kernel(value: float = 1.0) -> ContinuousKernel:
    """Kernel identically equal to ``value`` (rank-one when used as a Gram)."""
    return ContinuousKernel(
        pairwise=lambda X, Y: np.full((X.shape[0], Y.shape[0]), float(value)),
        diagonal=lambda X: np.full(X.shape[0], float(value)),
    )


def gaussian_kernel(bandwidth: float = 1.0, amplitude: float = 1.0) -> ContinuousKernel:
    """``amplitude * exp(-||x - y||^2 / bandwidth^2)``."""
    if not 0 < bandwidth < math.inf:
        raise ValueError("bandwidth must be positive and finite")
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
    # kept as the entries unless it is not a writeable, C-ordered float array
    G = np.require(kernel.pairwise(pts, pts), float, "CWE")
    gram = KernelMatrix._adopt(G, "kernel evaluation at point pair")
    if gram.n != cloud.n:
        raise ValueError(f"pairwise returned shape {G.shape}, expected {(cloud.n, cloud.n)}")
    return gram


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
    the same space, and orthonormalization yields the same vectors.
    Unlike raw monomials, the columns stay well conditioned at high degree.
    """
    vander = np.polynomial.legendre.legvander
    M = vander(points[:, 0], exponents[:, 0].max())[:, exponents[:, 0]]
    for x, b in zip(points.T[1:], exponents.T[1:]):
        M *= vander(x, b.max())[:, b]
    return M


def orthonormalize_columns(M: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns under ``<u, v> = sum_i w_i u_i v_i``.

    One Householder QR of ``sqrt(w) M``, each column of ``Q`` turned so that
    ``R_jj > 0`` and divided by ``sqrt(w)``: Gram-Schmidt's output, and
    prefix-stable.  ``|R_jj|`` is column ``j``'s residual norm; the first at
    or below ``GS_RTOL`` times the column's weighted norm raises with ``j``.
    """
    n, m = M.shape
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,) or (w <= 0).any():
        raise ValueError("weights must be a positive vector matching the rows")
    root = np.sqrt(w)[:, None]
    A = root * M
    Q, R = np.linalg.qr(A)
    # beyond n columns every residual is 0
    residual = np.zeros(m)
    residual[: min(n, m)] = np.abs(R.diagonal())
    norm0 = np.linalg.norm(A, axis=0)
    low = np.flatnonzero(residual <= GS_RTOL * norm0)
    if low.size:
        j = low[0]
        raise ValueError(
            f"rank deficiency at column {j}: residual norm {residual[j]:.3e} "
            f"below {GS_RTOL:.0e} of input norm {norm0[j]:.3e}"
        )
    Q *= np.sign(R.diagonal())
    Q /= root
    return Q


def ope_kernel(cloud: PointCloud, m: int) -> KernelMatrix:
    """Projection kernel spanned by the first ``m`` orthonormal polynomials.

    Monomials are taken in graded lexical order and orthonormalized under
    the ``1/n``-weighted inner product on the cloud; the kernel is
    ``K = sum_i p_i p_i^T``, so ``K/n`` is an orthogonal projection of rank
    ``m`` and ``tr(K)/n = m``.  Evaluation goes through the equivalent
    tensor-Legendre basis, which spans the same prefix flags but keeps the
    QR of :func:`orthonormalize_columns` well conditioned at high
    polynomial degree.

    The kernel is factored by the ``n x m`` matrix of the ``p_i``.  The QR
    is prefix-stable, so its first ``k`` columns factor the rank-``k`` kernel.
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
    if not 0 < h2 < math.inf:
        raise ValueError("bandwidth h2 must be positive and finite")
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
    """One harmonic family build: its kernels and what they share.

    The basis ``V = B sqrt(density)``, behind the factor ``B``, is
    orthonormal under ``omega = 1 / (n * density)``.
    """

    kernels: dict[int, KernelMatrix]  # rank -> kernel, factored by B[:, :rank]
    density: np.ndarray  # kernel density estimate at each point
    # the smallest max(m_grid) normalized-Laplacian eigenvalues, ascending
    laplacian_eigenvalues: np.ndarray
    ritz_residual: float  # worst ||M u_i - mu_i u_i|| of the top pairs / mu_1
    subspace_iterations: int  # narrow block iterations; 0 if eigh ran at once


def harmonic_kernel(
    cloud: PointCloud,
    m: int,
    h1: float,
    h2: float,
    profile: Callable[[np.ndarray], np.ndarray],
    d_manifold: int,
) -> KernelMatrix:
    """Kernel of the discrete harmonic ensemble on an unknown manifold."""
    return harmonic_kernel_details(cloud, m, h1, h2, profile, d_manifold).kernels[m]


def harmonic_kernel_details(
    cloud: PointCloud,
    m: int,
    h1: float,
    h2: float,
    profile: Callable[[np.ndarray], np.ndarray],
    d_manifold: int,
) -> HarmonicDetails:
    """As :func:`harmonic_kernel`, returning the family's record for ``(m,)``."""
    return harmonic_kernel_family(cloud, (m,), h1, h2, profile, d_manifold)


def harmonic_kernel_family(
    cloud: PointCloud,
    m_grid: Sequence[int],
    h1: float,
    h2: float,
    profile: Callable[[np.ndarray], np.ndarray],
    d_manifold: int,
) -> HarmonicDetails:
    """Harmonic kernels for every rank of ``m_grid``, sharing the spectral work.

    Steps: Gaussian-weighted complete graph at bandwidth ``h1``; degree
    double-normalization of the adjacency; normalized Laplacian
    ``(I - D^-1 W) / h1^2``; its ``max(m_grid)`` smallest-eigenvalue
    eigenvectors, from the top eigenpairs of the similar symmetric matrix
    ``D^-1/2 W D^-1/2`` (``_top_eigenpairs``); kernel density estimate at
    bandwidth ``h2``; Householder QR under the density-corrected volume
    weights ``omega = 1 / (n * density)``; and the density-reweighted
    projection kernels, the rank-``m`` one factored by the first ``m``
    columns of ``B = V / sqrt(density)``.

    No rescaling is needed on either side of the QR: it ignores a positive
    rescale of its input columns, and its output ``V`` satisfies
    ``V^T diag(omega) V = I``, so ``B`` has ``B^T B = n I`` and each
    ``K = B B^T`` is ``n`` times an orthogonal projection, with every
    eigenvalue in ``{0, n}`` up to rounding.  ``validate_kernel`` still
    checks that.  The QR is prefix-stable, so ``B`` is computed once, at
    the largest rank.
    """
    n = cloud.n
    ranks = sorted(set(int(m) for m in m_grid))
    if not ranks:
        raise ValueError("m_grid must name at least one rank")
    for m in (ranks[0], ranks[-1]):
        if not 1 <= m <= n:
            raise ValueError(f"m must be in [1, n] = [1, {n}], got {m}")
    if not (0 < h1 < math.inf and 0 < h2 < math.inf):
        raise ValueError("bandwidths must be positive and finite")
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
    mu, eigvecs, residual, iterations = _top_eigenpairs(W, inv_sqrt, top)
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
    V = orthonormalize_columns(U, 1.0 / (n * density))
    B = V * (1.0 / np.sqrt(density))[:, None]
    return HarmonicDetails(
        kernels={m: KernelMatrix(factor=B[:, :m]) for m in ranks},
        density=density,
        laplacian_eigenvalues=eigvals,
        ritz_residual=residual,
        subspace_iterations=iterations,
    )


def _top_eigenpairs(
    W: np.ndarray, inv_sqrt: np.ndarray, top: int
) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Top ``top`` eigenpairs of ``M = D^-1/2 W D^-1/2``, descending.

    Where the block of ``p = top + _SUBSPACE_OVERSAMPLE`` columns is
    narrower than ``n``: block subspace iteration with Rayleigh-Ritz
    (Halko, Martinsson & Tropp, SIAM Review 2011) from a fixed start block,
    ``M`` applied as ``D^-1/2 (W (D^-1/2 X))``.  Each iteration
    orthonormalizes ``Y = M X`` to ``Q``, applies ``M`` once more and
    solves the ``p x p`` eigenproblem of ``Q^T M Q``; it stops once the
    worst residual ``||M u_i - mu_i u_i||`` of the top pairs is at most
    ``_RITZ_RTOL * mu_1``.  Where ``p >= n``, or once the residual's decay
    projects past ``_SUBSPACE_MAX_ITERATIONS`` iterations or reaches them
    (a small graph bandwidth flattens the spectrum), ``M`` is formed in
    ``W``'s buffer, overwriting it, and one dense ``eigh`` gives the pairs,
    held to the same residual bound: ``ArithmeticError`` names a residual
    above it.  Returns the values, the ``n x top`` vectors, the residual
    over ``mu_1`` and the number of block iterations run.
    """
    n = W.shape[0]
    p = top + _SUBSPACE_OVERSAMPLE
    iterations = 0
    if p < n:
        col = inv_sqrt[:, None]
        Y = col * (W @ (col * _SUBSPACE_START.generator().standard_normal((n, p))))
        history: list[tuple[int, float]] = []
        while iterations < _SUBSPACE_MAX_ITERATIONS:
            iterations += 1
            Q = np.linalg.qr(Y)[0]
            Y = col * (W @ (col * Q))
            H = Q.T @ Y
            ritz, G = np.linalg.eigh((H + H.T) / 2.0)
            mu, G = ritz[: -top - 1 : -1], G[:, : -top - 1 : -1]
            U = Q @ G
            residual = float(np.linalg.norm(Y @ G - U * mu, axis=0).max())
            if residual <= _RITZ_RTOL * mu[0]:
                return mu, U, residual / mu[0], iterations
            history.append((iterations, residual))
            if _projected_step(history, _RITZ_RTOL * mu[0]) > _SUBSPACE_MAX_ITERATIONS:
                break
        del Y, Q, U  # the block's n-row arrays, before eigh's two n x n
    W *= inv_sqrt[:, None]
    W *= inv_sqrt
    ritz, U = np.linalg.eigh(W)
    mu, U = ritz[: -top - 1 : -1], U[:, : -top - 1 : -1].copy()  # frees the n x n
    residual = float(np.linalg.norm(W @ U - U * mu, axis=0).max())
    if residual > _RITZ_RTOL * mu[0]:
        raise ArithmeticError(
            f"dense eigh after {iterations} subspace iterations: worst Ritz residual "
            f"{residual / mu[0]:.3e} of mu_1 over the top {top}, above {_RITZ_RTOL:.0e}"
        )
    return mu, U, residual / mu[0], iterations


def _projected_step(history: list[tuple[int, float]], tol: float) -> float:
    """Step at which the residual reaches ``tol``, at the faster of its last two decay rates.

    ``history`` holds ``(step, residual)`` checks above ``tol``; with fewer
    than three the projection is the next step.  Both iterative
    eigensolvers give up for the dense ``eigh`` once it passes their cap.
    """
    if len(history) < 3:
        return history[-1][0] + 1
    (s0, r0), (s1, r1), (s2, r2) = history[-3:]
    rate = max(math.log(r0 / r1) / (s1 - s0), math.log(r1 / r2) / (s2 - s1))
    return s2 + math.log(r2 / tol) / rate if rate > 0 else math.inf


# ---------------------------------------------------------------------------
# random-graph kernel via singular value thresholding
# ---------------------------------------------------------------------------


class AdjacencyMatrix:
    """Symmetric 0/1 adjacency matrix with zero diagonal, kept as bits.

    The graph is stored packed, eight entries to a byte (``n^2 / 8`` bytes,
    1/64 of a float64 matrix).  ``entries`` allocates and returns a new
    ``n x n`` float64 array on every read, which its caller owns.
    """

    __slots__ = ("_bits",)

    def __init__(self, entries: np.ndarray) -> None:
        A = np.asarray(entries)
        # a bool graph, as latent_graph draws it, is checked with no float copy
        A = A if A.dtype == bool else A.astype(float, copy=False)
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
        self._bits = np.packbits(A.astype(bool, copy=False), axis=1)
        self._bits.setflags(write=False)

    @property
    def entries(self) -> np.ndarray:
        return self._fill(np.empty((self.n, self.n)))

    @property
    def n(self) -> int:
        return self._bits.shape[0]

    def _fill(self, out: np.ndarray) -> np.ndarray:
        # the 0/1 entries into an n x n float array, unpacked on row blocks
        for rows in _row_blocks(self.n):
            out[rows] = np.unpackbits(self._bits[rows], axis=1, count=self.n)
        return out


def latent_graph(gram: KernelMatrix, alpha: float, rng: SeededRng) -> AdjacencyMatrix:
    """Draw a latent position random graph from a kernel's Gram matrix.

    Edges are independent with ``P(edge ij) = alpha * k(x_i, x_j)``, where
    ``gram`` holds ``k`` at the latent positions (see :func:`gram_kernel`);
    all pair probabilities must lie in [0, 1].  The edges are written into
    an ``n x n`` bool array and packed into the returned matrix's bits; no
    float graph is made, and each read of its ``entries`` allocates one.
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
    E = np.zeros((n, n), dtype=bool)
    for block, upper, probs in _upper_probabilities(gram.entries, alpha):
        E[block][upper] = gen.random(probs.shape[0]) < probs
    # mirror the upper triangle onto the empty lower one on row blocks (a
    # column-order scatter takes about twice as long)
    for rows in _row_blocks(n):
        E[rows, : rows.start] = E[: rows.start, rows].T
        tile = E[rows, rows]
        tile |= tile.T
    return AdjacencyMatrix(E)


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
    final multiplier clips the spectrum into ``[0, n]``.  The kept pairs
    come from a certified block Krylov search, or where that gives up,
    from one dense ``eigh``.

    The call reads ``adjacency.entries`` once and owns that one float copy:
    the certificate is formed and factored in its buffer, and ``K`` is
    written there.  A failed certificate refills it from the graph's bits
    before the dense ``eigh``.
    """
    n = adjacency.n
    gamma = _usvt_threshold(n, alpha, rho)
    if not 0.0 <= c <= 1.0:
        raise ValueError("c must be in [0, 1]")
    A = adjacency.entries
    found = _pairs_above(A, gamma)
    if found is not None and not _certified(A, *found, gamma):
        adjacency._fill(A)  # the failed certificate overwrote the copy
        found = None
    if found is None:
        eigvals, eigvecs = np.linalg.eigh(A)
        kept = eigvals >= gamma
        found = eigvals[kept], eigvecs[:, kept]
        del eigvecs
    theta, V = found
    lam = theta / alpha
    K = np.matmul(V * lam, V.T, out=A)
    # with nothing kept it is the zero matrix; symmetrizing leaves the
    # diagonal, and so the trace below, as it is
    correction = max(c - float(np.trace(K)) / n, 0.0)
    lam_max = float(lam.max(initial=0.0)) + correction
    K.flat[:: n + 1] += correction
    soft_cap = 1.0 / (1.0 + (alpha * n) ** -0.25)
    c_prime = min(n / lam_max, soft_cap) if lam_max > 0 else soft_cap
    K *= c_prime
    return KernelMatrix._adopt(K)


def _pairs_above(A: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Eigenpairs of ``A`` at or above ``gamma > 0``, uncertified, or None.

    Block Krylov (Musco & Musco, NeurIPS 2015) of width ``b`` from the
    ``_SUBSPACE_START`` block, with Rayleigh-Ritz at the residual's projected
    step, at most twice as far.  The Ritz pairs at or above ``gamma`` are
    accepted, orthonormal, once each ``||A u - theta u|| <= _RITZ_RTOL *
    theta_1``; :func:`_certified` then checks that none was missed.  Returns
    the values, ascending, and the vectors; None, for the dense ``eigh``,
    where ``b - 1`` are kept, or the basis (with its image half an ``n x n``
    array) reaches ``n / 4`` columns or is projected past them.
    """
    n, b = A.shape[0], _KRYLOV_WIDTH
    cap = n // (4 * b)  # steps
    if cap < 2 * b:
        return None
    Q, AQ, H = np.empty((n, cap * b)), np.empty((n, cap * b)), np.empty((cap * b, cap * b))
    Q[:, :b] = np.linalg.qr(_SUBSPACE_START.generator().standard_normal((n, b)))[0]
    history: list[tuple[int, float]] = []
    check, count = 1, 0
    for step in range(1, cap + 1):
        m = step * b
        if step > 1:
            Y = AQ[:, m - 2 * b : m - b] - Q[:, : m - b] @ H[: m - b, m - 2 * b : m - b]
            Y -= Q[:, : m - b] @ (Q[:, : m - b].T @ Y)
            Q[:, m - b : m] = np.linalg.qr(Y)[0]
        AQ[:, m - b : m] = A @ Q[:, m - b : m]
        H[:m, m - b : m] = Q[:, :m].T @ AQ[:, m - b : m]
        if step < check:
            continue
        theta, S = np.linalg.eigh(H[:m, :m], UPLO="U")
        kept = theta >= gamma
        if kept.sum() != count:
            history, count = [], int(kept.sum())
        if count >= b - 1:
            return None
        if not count:
            check = 2 * step
            continue
        theta, S = theta[kept], S[:, kept]
        U = Q[:, :m] @ S
        residual = float(np.linalg.norm(AQ[:, :m] @ S - U * theta, axis=0).max())
        if residual <= _RITZ_RTOL * theta[-1]:
            return None if np.abs(U.T @ U - np.eye(count)).max() > GS_RTOL else (theta, U)
        history.append((step, residual))
        projected = _projected_step(history, _RITZ_RTOL * theta[-1])
        if projected > cap:
            return None
        check = min(2 * step, math.ceil(projected))
    return None


def _certified(A: np.ndarray, theta: np.ndarray, U: np.ndarray, gamma: float) -> bool:
    # no eigenvalue of A at or above gamma is missing from theta where C =
    # gamma I - (A - U Theta U^T) has a Cholesky factor, as lambda_{k+1}(A)
    # <= lambda_1(A - U Theta U^T) (Weyl; U Theta U^T is positive of rank
    # k).  C is formed on row blocks and factored in A's buffer
    for rows in _row_blocks(A.shape[0]):
        np.subtract((U[rows] * theta) @ U.T, A[rows], out=A[rows])
    A.flat[:: A.shape[0] + 1] += gamma
    return _cholesky_succeeds(A)


def _cholesky_succeeds(C: np.ndarray) -> bool:
    # Cholesky of C's lower triangle, left-looking on 64 x 64 tiles in place,
    # so that no second n x n array exists
    blocks = _row_blocks(C.shape[0])
    for i, r in enumerate(blocks):
        for c in blocks[:i]:
            C[r, c] -= C[r, : c.start] @ C[c, : c.start].T
            C[r, c] = np.linalg.solve(C[c, c], C[r, c].T).T
        C[r, r] -= C[r, : r.start] @ C[r, : r.start].T
        try:
            C[r, r] = np.linalg.cholesky(C[r, r])
        except np.linalg.LinAlgError:
            return False
    return True


def usvt_retained_rank(adjacency: AdjacencyMatrix, alpha: float, rho: float) -> int:
    """Number of eigenvalues kept by the threshold ``rho * (alpha n)^{3/4}``."""
    gamma = _usvt_threshold(adjacency.n, alpha, rho)
    return int((np.linalg.eigvalsh(adjacency.entries) >= gamma).sum())


def _usvt_threshold(n: int, alpha: float, rho: float) -> float:
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    if not 0 < rho < math.inf:
        raise ValueError("rho must be positive and finite")
    return rho * (alpha * n) ** 0.75

