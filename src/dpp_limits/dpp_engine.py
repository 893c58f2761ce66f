"""Existence validation, exact sampling, and a brute-force distribution oracle.

A kernel matrix ``K`` defines a point process over indices with
``P(A in sample) = det(K_A) / n^|A|`` exactly when its eigenvalues lie in
``[0, n]``.  :func:`validate_kernel` checks that condition and carries the
eigendecomposition; :func:`sample_dpp` draws exact samples with the spectral
two-phase algorithm, and :func:`sample_dpp_many` draws the same samples in
batches; :func:`enumerate_pmf` computes the full distribution for small ``n``
so the sampler can be tested against ground truth.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernel_builders import KernelMatrix
from .rng import SeededRng, as_generator

EIGENVALUE_CLAMP_RTOL = 1e-8
# eigenvalue ratios within this of {0, 1} are treated as deterministic
# selections, so fp-level projection kernels keep fixed sample cardinality
PROJECTION_SNAP = 1e-9
# conditional probabilities in [-NEGATIVE_PROB_TOL, 0) are rounded to 0;
# anything lower is a hard numerical failure
NEGATIVE_PROB_TOL = 1e-12
# working-set cap of one block of sample_dpp_many: its uniform rows and the
# lockstep chain's W and padded rows (see sample_dpp_many)
_BLOCK_BYTES = 1 << 24
# columns per block of the lockstep chain's two-level search (see _search)
_SEARCH_BLOCK = 64
# single draws up to this size run the pure-Python chain
_SMALL_N = 24
# sample_dpp_many draws a projection of rank r >= n / _PROJECTOR_DIV at
# n > _SMALL_N one draw at a time on the projector, which beats the lockstep
# chain there (crossover table in README "Sampling")
_PROJECTOR_DIV = 3


@dataclass(frozen=True)
class IndexSample:
    """One exact DPP sample: a set of distinct indices, strictly increasing."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = tuple(int(i) for i in self.indices)
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return len(self.indices)


def _unchecked(idx: tuple[int, ...]) -> IndexSample:
    # a sample made without __post_init__, from sorted indices checked for a repeat
    s = object.__new__(IndexSample)
    object.__setattr__(s, "indices", idx)
    return s


class ValidatedDpp:
    """A kernel that passed the eigenvalue existence check.

    Carries the (clamped) eigendecomposition used by the sampler.  The
    eigenvalues are ascending, all ``n`` of them; ties keep the
    decomposition order.  The eigenvectors pair with the top eigenvalues:
    all ``n`` columns for a dense kernel, the ``m`` columns of the nonzero
    part for a factored one, whose other ``n - m`` eigenvalues are 0.
    """

    def __init__(
        self, kernel: KernelMatrix, eigenvalues: np.ndarray, eigenvectors: np.ndarray
    ) -> None:
        eigenvalues = np.asarray(eigenvalues, dtype=float)
        eigenvalues.setflags(write=False)
        eigenvectors = np.asarray(eigenvectors, dtype=float)
        eigenvectors.setflags(write=False)
        self.kernel = kernel
        self.eigenvalues = eigenvalues
        self.eigenvectors = eigenvectors
        n = kernel.n
        # eigenvalue index of the first eigenvector column
        self._offset = n - eigenvectors.shape[1]
        if eigenvalues[: self._offset].any():
            raise ValueError("eigenvalues without an eigenvector must be 0")
        q = np.clip(eigenvalues / n, 0.0, 1.0) if n else np.empty(0)
        q[q > 1.0 - PROJECTION_SNAP] = 1.0
        q[q < PROJECTION_SNAP] = 0.0
        q.setflags(write=False)
        self._q = q
        self._is_projection = bool(np.all((q == 0.0) | (q == 1.0)))
        # uniforms per draw: n select eigenvectors, then one per chain step
        # up to the largest possible rank
        self._width = n + int(np.count_nonzero(q))

    @property
    def n(self) -> int:
        return self.kernel.n

    def is_projection(self) -> bool:
        """True when every eigenvalue sits at 0 or n to snap tolerance."""
        return self._is_projection

    @cached_property
    def _projector(self) -> np.ndarray:
        # for projection kernels, the rank-r projector onto the top space
        V = self._columns(self._q == 1.0)
        return V @ V.T

    def _columns(self, selected: np.ndarray) -> np.ndarray:
        """Eigenvectors of the eigenvalues flagged in a length-n mask."""
        return self.eigenvectors[:, selected[self._offset :]]


def validate_kernel(kernel: KernelMatrix) -> ValidatedDpp:
    """Check the eigenvalue-in-[0, n] existence condition.

    Eigenvalues inside ``[-tol*n, n*(1+tol)]`` with
    ``tol = EIGENVALUE_CLAMP_RTOL`` are clamped to ``[0, n]``; anything
    further out raises with the violating value.  A factored
    kernel ``K = B B^T`` is decomposed by a thin SVD of its ``n x m``
    factor, in ``O(n m^2)``: the squared singular values are the top ``m``
    eigenvalues, the rest are 0, and the reconstruction is checked on the
    factor rather than on ``K``.
    """
    n = kernel.n
    B = kernel.factor
    if B is not None:
        U, sv, Wt = np.linalg.svd(B, full_matrices=False)
        # ascending order, as eigh returns it
        eigvals = np.concatenate([np.zeros(n - sv.size), sv[::-1] ** 2])
        eigvecs, Wt = U[:, ::-1], Wt[::-1]
    else:
        eigvals, eigvecs = np.linalg.eigh(kernel.entries) if n else (np.empty(0), np.empty((0, 0)))
    slack = EIGENVALUE_CLAMP_RTOL * max(n, 1)
    if n and eigvals[0] < -slack:
        raise ValueError(
            f"eigenvalue {eigvals[0]:.6g} below 0 beyond tolerance {slack:.3g}"
        )
    if n and eigvals[-1] > n + slack:
        raise ValueError(
            f"eigenvalue {eigvals[-1]:.6g} exceeds n = {n} beyond tolerance {slack:.3g}"
        )
    clamped = np.clip(eigvals, 0.0, float(n))
    if B is not None:
        target = B
        recon = (eigvecs * np.sqrt(clamped[n - sv.size :])) @ Wt
    else:
        target = kernel.entries
        recon = (eigvecs * clamped) @ eigvecs.T
    norm = float(np.linalg.norm(target))
    err = float(np.linalg.norm(recon - target))
    if err > 1e-8 * max(norm, 1e-30) + 1e-12:
        raise ArithmeticError(
            f"eigendecomposition reconstruction error {err:.3e} too large"
        )
    return ValidatedDpp(kernel, clamped, eigvecs)


def _check_clamp(dmin: float | np.ndarray, rank: int, t: int) -> None:
    # the clamp rule of all three chains: at step t, probabilities
    # d / (rank - t) in [-NEGATIVE_PROB_TOL, 0) are clamped to 0, and the
    # first draw with a lower one raises; dmin is each draw's least d
    low = np.flatnonzero(dmin < -NEGATIVE_PROB_TOL * (rank - t))
    if low.size:
        raise ArithmeticError(
            f"conditional probability {np.ravel(dmin)[low[0]] / (rank - t):.3e} below "
            f"-{NEGATIVE_PROB_TOL:.0e} at draw step {t}"
        )


def _conditional_chain(projector: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Sample ``rank = u.size`` indices sequentially from a rank-``rank`` projector.

    Maintains the residual conditional diagonal through incremental
    Cholesky pivots; each step the residual probability vector is clamped
    (values in ``[-1e-12, 0)`` to 0) and renormalized.  Step ``t`` reads
    the uniform ``u[t]``.
    """
    n, rank = projector.shape[0], u.size
    d = projector.diagonal().astype(float, copy=True)
    C = np.empty((rank, n))
    # per-draw buffers: a step allocates no array, and calls numpy directly
    cum, sq, g = np.empty(n), np.empty(n), np.empty(n)
    chosen = np.empty(rank, dtype=np.intp)
    for t in range(rank):
        dmin = np.minimum.reduce(d)
        if dmin < 0.0:
            _check_clamp(dmin, rank, t)
            np.maximum(d, 0.0, out=d)
        np.add.accumulate(d, out=cum)
        total = cum[-1]
        if total <= 0.0:
            raise ArithmeticError(f"conditional probabilities vanished at draw step {t}")
        j = min(int(cum.searchsorted(u[t] * total, side="right")), n - 1)
        piv = d[j]
        if piv <= 0.0:
            raise ArithmeticError(f"selected index {j} has nonpositive residual mass")
        col = C[t]
        np.subtract(projector[j], np.dot(C[:t, j], C[:t], out=g), out=col)
        col /= math.sqrt(piv)
        d -= np.multiply(col, col, out=sq)
        chosen[t] = j
        d.put(chosen[: t + 1], 0.0)
    chosen.sort()
    return chosen


def _chain_small(P: np.ndarray, uniforms: list[float]) -> list[int]:
    # same sequential conditioning as _conditional_chain, on plain floats;
    # beats array dispatch overhead for tiny matrices
    rows = P.tolist()
    n, rank = len(rows), len(uniforms)
    d = [row[i] for i, row in enumerate(rows)]
    C: list[list[float]] = []
    chosen: list[int] = []
    for t in range(rank):
        dmin = min(d)
        if dmin < 0.0:
            _check_clamp(dmin, rank, t)
            d = [v if v > 0.0 else 0.0 for v in d]
        total = sum(d)
        if total <= 0.0:
            raise ArithmeticError(f"conditional probabilities vanished at draw step {t}")
        u = uniforms[t] * total
        acc = 0.0
        j = n - 1
        for i, v in enumerate(d):
            acc += v
            if u < acc:
                j = i
                break
        piv = d[j]
        if piv <= 0.0:
            raise ArithmeticError(f"selected index {j} has nonpositive residual mass")
        col = rows[j][:]
        for crow in C:
            cj = crow[j]
            if cj != 0.0:
                for i in range(n):
                    col[i] -= cj * crow[i]
        scale = piv**-0.5
        for i in range(n):
            col[i] *= scale
        C.append(col)
        for i in range(n):
            d[i] -= col[i] * col[i]
        chosen.append(j)
        for i in chosen:
            d[i] = 0.0
    chosen.sort()
    return chosen


def _draw_once(dpp: ValidatedDpp, u: np.ndarray) -> tuple[int, ...]:
    # one draw's index tuple, from its row of n + r uniforms
    n = dpp.n
    selected = u[:n] < dpp._q
    rank = int(np.count_nonzero(selected))
    if rank == 0:
        return ()
    steps = u[n : n + rank]
    if n <= _SMALL_N:
        # for a projection kernel the selection is q == 1, so this is the
        # cached projector bit for bit
        V = dpp._columns(selected)
        chosen = _chain_small(V @ V.T, steps.tolist())
    elif dpp._is_projection:
        chosen = _conditional_chain(dpp._projector, steps).tolist()
    else:
        chosen = _lockstep_chain(dpp._columns(selected), steps[None])[0].tolist()
    if len(set(chosen)) < rank:
        raise ArithmeticError("chain chose an index twice")
    return tuple(chosen)


def sample_dpp(dpp: ValidatedDpp, rng: SeededRng | np.random.Generator) -> IndexSample:
    """Draw one exact sample.

    Reads one row of ``n + r`` uniforms, where ``r`` is the number of
    nonzero eigenvalues: the first ``n`` keep each eigenvector with
    probability ``eigenvalue / n``, and the next ``rank`` (the number kept)
    drive the sequential conditioning that samples the projection onto the
    kept eigenvectors; the rest of the row is unused.  Same (seed, stream)
    reproduces the same sample.
    """
    return _unchecked(_draw_once(dpp, as_generator(rng).random(dpp._width)))


def _padded(n: int) -> int:
    return n if n <= _SEARCH_BLOCK else -(-n // _SEARCH_BLOCK) * _SEARCH_BLOCK


def _search(d: np.ndarray, u: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    # per row, searchsorted(cumsum(d[g]), u[g] * total, "right") capped at n - 1, and total.
    # One prefix within one block; past that, block sums pick the block and a prefix over it
    # the index, on positive mass where they round apart
    if d.shape[1] <= _SEARCH_BLOCK:
        cum = np.add.accumulate(d[:, :n], axis=1)
        return np.add.reduce(cum[:, :-1] <= (u * cum[:, -1])[:, None], axis=1), cum[:, -1]
    rows, blocks = np.arange(len(d)), d.reshape(len(d), -1, _SEARCH_BLOCK)
    S = np.add.accumulate(np.einsum("gkb->gk", blocks), axis=1)
    total, target = S[:, -1], u * S[:, -1]
    k = np.add.reduce(S[:, :-1] <= target[:, None], axis=1)
    cum = np.add.accumulate(blocks[rows, k], axis=1)
    rest = np.minimum(target - S[rows, k - 1] * (k > 0), np.nextafter(cum[:, -1], 0.0))
    j = k * _SEARCH_BLOCK + np.add.reduce(cum[:, :-1] <= rest[:, None], axis=1)
    return np.where(target < total, j, n - 1), total


def _lockstep_chain(V: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Sequential conditioning for a batch of draws from the projection ``V V^T``.

    Row ``g`` of ``u`` holds draw ``g``'s uniforms, one per step.  Works in
    the basis of the ``n x r`` orthonormal columns ``V``: step ``t`` of draw
    ``g`` is the column ``V W[g, t]``, so the chain holds ``W`` (``G x r x
    r``) and updates the ``G x n`` residual diagonals with one GEMM per
    step.  Each draw gets the checks of :func:`_conditional_chain`.
    Returns the chosen indices, each row ascending.
    """
    n, rank = V.shape
    G = u.shape[0]
    rows = np.arange(G)
    # residual rows and the step's product, zero-padded to whole search blocks
    d, col = np.zeros((G, _padded(n))), np.zeros((G, _padded(n)))
    d[:, :n] = np.einsum("ij,ij->i", V, V)
    W = np.empty((G, rank, rank))
    chosen = np.empty((G, rank), dtype=np.intp)
    for t in range(rank):
        if d.min() < 0.0:
            _check_clamp(d.min(axis=1), rank, t)
            np.maximum(d, 0.0, out=d)
        j, total = _search(d, u[:, t], n)
        if total.min() <= 0.0:
            raise ArithmeticError(f"conditional probabilities vanished at draw step {t}")
        piv = d[rows, j]
        if piv.min() <= 0.0:
            bad = j[np.flatnonzero(piv <= 0.0)[0]]
            raise ArithmeticError(f"selected index {bad} has nonpositive residual mass")
        w = V[j]
        if t:
            prev = W[:, :t]
            w -= np.matmul(np.matmul(prev, w[:, :, None]).transpose(0, 2, 1), prev)[:, 0]
        w /= np.sqrt(piv)[:, None]
        W[:, t] = w
        np.matmul(w, V.T, out=col[:, :n])
        col *= col
        d -= col
        chosen[:, t] = j
        d[rows[:, None], chosen[:, : t + 1]] = 0.0
    chosen.sort(axis=1)
    return chosen


class _Interned(dict):
    """Index tuple -> its one sample, made at the first lookup.

    The sample is made without its per-sample ``__post_init__``, so a
    caller looks up only tuples that are checked strictly increasing.
    """

    def __missing__(self, idx: tuple[int, ...]) -> IndexSample:
        return self.setdefault(idx, _unchecked(idx))


def _draw_block(dpp: ValidatedDpp, u: np.ndarray, interned: _Interned) -> list[IndexSample]:
    """The samples of the draws whose uniform rows are ``u``, in row order.

    Row ``i`` of the ``count x (n + r)`` array ``u`` is draw ``i``'s, read
    as :func:`_draw_once` reads it.  Each chain's rows are checked strictly
    increasing before their tuples are looked up in ``interned``.
    """
    n, q = dpp.n, dpp._q
    frac = np.flatnonzero((q > 0.0) & (q < 1.0))
    sel = u[:, frac] < q[frac]
    count = u.shape[0]
    # draws with the same selected eigenvectors share one chain; the
    # constant last key keeps lexsort defined when no value is fractional
    packed = np.packbits(sel, axis=1)
    order = np.lexsort((*packed.T, np.zeros(count, np.uint8)))
    packed = packed[order]
    cuts = np.flatnonzero((packed[1:] != packed[:-1]).any(axis=1)) + 1
    out = [interned[()]] * count  # a group that keeps no eigenvector stays so
    for rows in np.split(order, cuts):
        selected = u[rows[0], :n] < q
        if not selected.any():
            continue
        chosen = _lockstep_chain(dpp._columns(selected), u[rows, n : n + selected.sum()])
        if not (np.diff(chosen, axis=1) > 0).all():
            raise ArithmeticError("lockstep chain chose an index twice")
        # zip reuses its tuple once the lookup drops it, so a repeated draw
        # makes no new tuple
        samples = map(interned.__getitem__, zip(*chosen.T.tolist()))
        for i, sample in zip(rows.tolist(), samples):
            out[i] = sample
    return out


def sample_dpp_many(
    dpp: ValidatedDpp, rng: SeededRng | np.random.Generator, count: int
) -> list[IndexSample]:
    """Draw ``count`` samples from one stream.

    Draw ``i`` reads row ``i`` of a ``count x (n + r)`` array of uniforms,
    the row :func:`sample_dpp` reads, so the generator ends where ``count``
    sequential :func:`sample_dpp` calls leave it.  Draws go in blocks of
    equal size, to one draw, held under a fixed byte budget; within a block,
    the draws that selected the same eigenvectors advance through one chain
    in lockstep, and their samples go straight to their draws' places.  The
    samples equal :func:`sample_dpp`'s up to floating-point rounding: the
    lockstep chain computes and sums its residuals in another order, which
    may depend on the makeup of the block and of the group a draw falls in,
    so a uniform within rounding of a cumulative boundary can pick a
    neighbouring index, and a residual at the edge of the
    ``NEGATIVE_PROB_TOL`` check can trip it on one path only.  A block
    whose chain trips a numerical check is drawn again from its rows one
    sample at a time, so the error raised is the one :func:`sample_dpp`
    raises.  A call for one draw, and a projection kernel of rank at least
    ``n / 3`` at ``n > 24``, are drawn one sample at a time as
    :func:`sample_dpp` draws them, so their samples are exactly its own.
    Equal draws within one call are one shared :class:`IndexSample`, which
    is immutable: the call makes one object per distinct index set.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    gen = as_generator(rng)
    n, width = dpp.n, dpp._width
    r = width - n
    lockstep = count > 1 and not (dpp._is_projection and n > _SMALL_N and _PROJECTOR_DIV * r >= n)
    # bytes per draw: its uniform row, W, and four padded rows: d, col and the step's temporaries
    per_draw = 8 * (width + r * r + 4 * _padded(n))
    block = max(1, _BLOCK_BYTES // max(per_draw, 1))
    # equal blocks under the budget, so that no small tail runs the chain
    blocks = -(-count // block)
    block = -(-count // blocks) if blocks else 1
    interned = _Interned()
    out: list[IndexSample] = []
    for first in range(0, count, block):
        u = gen.random((min(block, count - first), width))
        if lockstep:
            with suppress(ArithmeticError):
                out += _draw_block(dpp, u, interned)
                continue
        # one draw at a time, also where a lockstep block tripped a check
        out += map(interned.__getitem__, (_draw_once(dpp, row) for row in u))
    return out


def enumerate_pmf(dpp: ValidatedDpp) -> dict[tuple[int, ...], float]:
    """Exact probability of every subset, for ``n <= 20``.

    Uses ``P(sample = A) = |det(K/n - I_{A^c})|``, which stays valid for
    projection kernels where a likelihood-matrix formulation would not
    exist.  Raises if the probabilities fail to sum to 1 within 1e-10.
    """
    n = dpp.n
    if n > 20:
        raise ValueError(f"exhaustive enumeration limited to n <= 20, got {n}")
    Kn = dpp.kernel.entries / max(n, 1)
    pmf: dict[tuple[int, ...], float] = {}
    total = 0.0
    for mask in range(1 << n):
        subset = tuple(i for i in range(n) if mask >> i & 1)
        M = Kn.copy()
        comp = [i for i in range(n) if not mask >> i & 1]
        M[comp, comp] -= 1.0
        p = abs(float(np.linalg.det(M))) if n else 1.0
        pmf[subset] = p
        total += p
    if abs(total - 1.0) > 1e-10:
        raise ArithmeticError(f"enumerated probabilities sum to {total!r}, not 1")
    return pmf


def random_valid_kernel(
    n: int,
    rng: SeededRng | np.random.Generator,
    eigenvalues: np.ndarray | None = None,
) -> KernelMatrix:
    """Random admissible kernel: Haar basis, eigenvalues uniform on [0, n].

    Intended for tests and self-checks; pass explicit eigenvalues to pin
    the spectrum.
    """
    gen = as_generator(rng)
    if eigenvalues is None:
        eigenvalues = gen.uniform(0.0, n, size=n)
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.shape != (n,):
        raise ValueError("eigenvalues must be a length-n vector")
    if lam.size and (lam.min() < 0 or lam.max() > n):
        raise ValueError("eigenvalues must lie in [0, n]")
    Q, _ = np.linalg.qr(gen.standard_normal((n, n)))
    return KernelMatrix((Q * lam) @ Q.T)
