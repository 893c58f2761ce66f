"""Linear statistics, their exact expectations, and determinant stability bounds.

The r-point linear statistic of a test function ``phi`` over a sample is the
sum of ``phi`` over all ordered r-tuples of distinct sampled points.  Its
expectation under a kernel ``K`` with uniform weight ``1/n`` is the full
r-tuple sum of ``phi * det(K_tuple) / n^r``, where tuples with repeated
indices contribute zero.  Both sums evaluate ``phi`` on blocks of tuples.
One tuple-sum core serves a ``KernelMatrix`` and the Gram restriction of a
``ContinuousKernel`` alike; at r = 1 it reads only the kernel's diagonal.
The two bound checkers measure, on explicit matrices, how far apart subset
determinants of two matrices can drift given entrywise or
Frobenius/trace-level closeness.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .dpp_engine import IndexSample
from .kernel_builders import ContinuousKernel, KernelMatrix, gram_kernel
from .point_cloud import PointCloud
from .rng import SeededRng, as_generator

logger = logging.getLogger(__name__)

# full r-tuple expectation sums are rejected beyond this n^r budget
TUPLE_SUM_BUDGET = 30_000_000
# most subsets a bound checker enumerates, and tuples or subsets a sum holds
SUBSET_ENUM_BUDGET = 1_000_000
SUBSET_SAMPLE_COUNT = 10_000


@dataclass(frozen=True)
class TestFunction:
    """An r-point test function: ``fn`` takes ``arity`` arrays of shape
    ``k x d``, the j-th holding the j-th point of each of ``k`` tuples, and
    returns the ``k`` values (a scalar broadcasts)."""

    __test__ = False  # not a pytest case despite the name

    arity: int
    fn: Callable[..., np.ndarray | float]

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError("arity must be at least 1")


def _phi_values(phi: TestFunction, *points: np.ndarray) -> np.ndarray:
    """``phi`` on the ``k`` tuples given point-wise, as a length-``k`` vector."""
    return np.full(len(points[0]), phi.fn(*points), dtype=float)


def _ordering_sums(
    phi: TestFunction, pts: np.ndarray, items: Iterable[int]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Blocks of at most ``SUBSET_ENUM_BUDGET`` r-subsets of ``items``, as ``k x r``
    index arrays, each with ``phi`` summed over the ``r!`` orderings of every row."""
    r = phi.arity
    flat = itertools.chain.from_iterable(itertools.combinations(items, r))
    while (block := np.fromiter(itertools.islice(flat, SUBSET_ENUM_BUDGET * r), np.intp)).size:
        subsets = block.reshape(-1, r)
        points = pts[subsets.T]
        yield subsets, sum(
            _phi_values(phi, *(points[j] for j in perm)) for perm in itertools.permutations(range(r))
        )


def linear_statistic(
    phi: TestFunction, cloud: PointCloud, sample: IndexSample
) -> float:
    """Sum of ``phi`` over ordered r-tuples of distinct sampled points.

    A sample smaller than the arity gives the empty sum, 0.
    """
    idx = sample.indices
    if any(i < 0 or i >= cloud.n for i in idx):
        raise ValueError("sample indices outside the cloud")
    return float(sum(sums.sum() for _, sums in _ordering_sums(phi, cloud.points, idx)))


def _tuple_sum(
    cloud: PointCloud,
    phi: TestFunction,
    diagonal: Callable[[], np.ndarray],
    entries: Callable[[], np.ndarray],
) -> float:
    """Full r-tuple sum ``sum phi * det(K_tuple) / n^r``.

    Repeated-index tuples vanish, so it sums over index subsets, each
    determinant times ``phi`` summed over the ``r!`` orderings.  Once
    the ``n^r`` tuple budget admits the sum, r = 1 gives ``phi_vals @
    diagonal() / n``, and only above is the ``n x n`` ``entries()`` built.
    """
    n, r = cloud.n, phi.arity
    if n**r > TUPLE_SUM_BUDGET:
        raise ValueError(
            f"r = {r} over n = {n} needs ~{n**r:.2e} tuple evaluations, "
            f"budget is {TUPLE_SUM_BUDGET:.0e}"
        )
    pts = cloud.points
    if r == 1:
        return float(_phi_values(phi, pts) @ diagonal()) / n
    K = entries()
    blocks = _ordering_sums(phi, pts, range(n))
    return sum(float(_batched_subset_dets(K, subsets) @ sums) for subsets, sums in blocks) / n**r


def expected_linear_statistic(
    kernel: KernelMatrix, cloud: PointCloud, phi: TestFunction
) -> float:
    """Exact expectation of the linear statistic under the kernel.

    Computed by full r-tuple summation; at r = 1 only the kernel diagonal
    is read, so a factored kernel stays unbuilt.
    """
    if kernel.n != cloud.n:
        raise ValueError("kernel size does not match the cloud")
    return _tuple_sum(cloud, phi, kernel.diagonal, lambda: kernel.entries)


def kernel_error(
    kernel: KernelMatrix,
    other: KernelMatrix,
    cloud: PointCloud,
    phi: TestFunction,
) -> float:
    """Absolute gap between the statistic expectations of two kernels.

    Equals ``|sum phi * (det K_tuple - det G_tuple) / n^r|``; identically 0
    when the kernels coincide.
    """
    if kernel.n != other.n:
        raise ValueError("kernels must have equal size")
    return abs(
        expected_linear_statistic(kernel, cloud, phi)
        - expected_linear_statistic(other, cloud, phi)
    )


def expected_statistic_continuous(
    kernel: ContinuousKernel, cloud: PointCloud, phi: TestFunction
) -> float:
    """Expectation of the statistic under the Gram restriction of ``kernel``.

    At r = 1 only ``kernel.diagonal`` is evaluated, so 1-point statistics
    stay cheap on very large clouds; above, the sum runs on the Gram matrix
    of :func:`gram_kernel`, built once the tuple budget admits it.
    """
    return _tuple_sum(
        cloud, phi, lambda: kernel.diagonal(cloud.points), lambda: gram_kernel(kernel, cloud).entries
    )


def measure_error(
    kernel: ContinuousKernel,
    cloud: PointCloud,
    phi: TestFunction,
    reference_cloud: PointCloud,
) -> float:
    """Gap between the statistic on a cloud and on a larger reference draw.

    Both sides use the Gram restriction of the same kernel function; the
    reference cloud acts as a Monte-Carlo stand-in for the underlying
    population integral.
    """
    return abs(
        expected_statistic_continuous(kernel, cloud, phi)
        - expected_statistic_continuous(kernel, reference_cloud, phi)
    )


# ---------------------------------------------------------------------------
# determinant stability bounds
# ---------------------------------------------------------------------------


def _square_pair(
    A: np.ndarray, B: np.ndarray, r: int, max_n: float = math.inf
) -> tuple[np.ndarray, np.ndarray]:
    # the bound checkers' inputs: square matrices of one shape with at most
    # max_n rows, and an order r in [1, n]
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    for name, mat in (("A", A), ("B", B)):
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"{name} must be square, got shape {mat.shape}")
    if A.shape != B.shape:
        raise ValueError("matrices must have equal shape")
    n = A.shape[0]
    if n > max_n:
        raise ValueError(f"exhaustive enumeration limited to n <= {max_n}, got {n}")
    if not 1 <= r <= n:
        raise ValueError(f"order r must be in [1, n] = [1, {n}]")
    return A, B


def _subset_array(
    n: int, r: int, rng: SeededRng | np.random.Generator | None
) -> np.ndarray:
    if math.comb(n, r) <= SUBSET_ENUM_BUDGET:
        return np.array(list(itertools.combinations(range(n), r)), dtype=np.intp)
    gen = as_generator(rng if rng is not None else SeededRng(0))
    logger.info(
        "subset budget exceeded (C(%d, %d)); sampling %d random subsets",
        n,
        r,
        SUBSET_SAMPLE_COUNT,
    )
    keys = gen.random((SUBSET_SAMPLE_COUNT, n)).argsort(axis=1)[:, :r]
    return np.sort(keys, axis=1)


def _batched_subset_dets(M: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    sub = M[subsets[:, :, None], subsets[:, None, :]]
    return np.linalg.det(sub)


def det_bound_max(
    A: np.ndarray,
    B: np.ndarray,
    r: int,
    rng: SeededRng | np.random.Generator | None = None,
) -> tuple[float, float]:
    """Worst subset-determinant gap against its entrywise-closeness bound.

    Returns ``(lhs_max, rhs)`` where ``lhs_max`` is the maximum of
    ``|det A_I - det B_I|`` over r-subsets (exhaustive up to 10^6 subsets,
    then 10^4 random ones) and
    ``rhs = r! * sum_j max|A|^{j-1} * max|A-B| * max|B|^{r-j}``.
    """
    A, B = _square_pair(A, B, r)
    subsets = _subset_array(A.shape[0], r, rng)
    lhs = float(np.abs(_batched_subset_dets(A, subsets) - _batched_subset_dets(B, subsets)).max())
    max_a = float(np.abs(A).max())
    max_b = float(np.abs(B).max())
    max_diff = float(np.abs(A - B).max())
    rhs = math.factorial(r) * sum(
        max_a ** (j - 1) * max_diff * max_b ** (r - j) for j in range(1, r + 1)
    )
    return lhs, float(rhs)


def det_bound_frobenius(
    A: np.ndarray, B: np.ndarray, r: int
) -> tuple[float, float, float]:
    """Aggregated subset-determinant gaps against the Frobenius/trace bound.

    Returns ``(lhs_signed, lhs_abs, rhs)``: the signed aggregate
    ``|sum_I (det A_I - det B_I)|``, the absolute sum
    ``sum_I |det A_I - det B_I|``, and
    ``rhs = r * r! * M^{r-1} * max(||A-B||_F, |tr A - tr B|)`` with
    ``M = max(||A||_F, ||B||_F, tr A, tr B)``.  Only the signed aggregate is
    guaranteed below ``rhs``; the absolute sum is reported for inspection.
    """
    # C(14, r) <= 3432 stays under SUBSET_ENUM_BUDGET: every subset
    A, B = _square_pair(A, B, r, max_n=14)
    subsets = _subset_array(A.shape[0], r, None)
    gaps = _batched_subset_dets(A, subsets) - _batched_subset_dets(B, subsets)
    lhs_signed = abs(float(gaps.sum()))
    lhs_abs = float(np.abs(gaps).sum())
    M = max(
        float(np.linalg.norm(A)),
        float(np.linalg.norm(B)),
        float(np.trace(A)),
        float(np.trace(B)),
    )
    growth = M ** (r - 1) if r > 1 else 1.0
    rhs = (
        r
        * math.factorial(r)
        * growth
        * max(float(np.linalg.norm(A - B)), abs(float(np.trace(A) - np.trace(B))))
    )
    return lhs_signed, lhs_abs, float(rhs)

