"""Linear statistics, their exact expectations, and determinant stability bounds.

The r-point linear statistic of a test function ``phi`` over a sample is the
sum of ``phi`` over all ordered r-tuples of distinct sampled points.  Its
expectation under a kernel ``K`` with uniform weight ``1/n`` is the full
r-tuple sum of ``phi * det(K_tuple) / n^r``, where tuples with repeated
indices contribute zero.  The two bound checkers measure, on explicit
matrices, how far apart subset determinants of two matrices can drift given
entrywise or Frobenius/trace-level closeness.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dpp_engine import IndexSample
from .kernel_builders import ContinuousKernel, KernelMatrix
from .point_cloud import PointCloud
from .rng import SeededRng, as_generator

logger = logging.getLogger(__name__)

# full r-tuple expectation sums are rejected beyond this n^r budget
TUPLE_SUM_BUDGET = 30_000_000
SUBSET_ENUM_BUDGET = 1_000_000
SUBSET_SAMPLE_COUNT = 10_000


@dataclass(frozen=True)
class TestFunction:
    """An r-point statistic with declared arity and sup bound."""

    __test__ = False  # not a pytest case despite the name

    arity: int
    fn: Callable[..., float]
    sup_bound: float
    support: str | None = None

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError("arity must be at least 1")

    def __call__(self, *points: np.ndarray) -> float:
        return float(self.fn(*points))


def linear_statistic(
    phi: TestFunction, cloud: PointCloud, sample: IndexSample
) -> float:
    """Sum of ``phi`` over ordered r-tuples of distinct sampled points.

    A sample smaller than the arity gives the empty sum, 0.  Multiplicities
    do not enter; the statistic sees the underlying index set.
    """
    idx = sample.indices
    if any(i < 0 or i >= cloud.n for i in idx):
        raise ValueError("sample indices outside the cloud")
    if phi.arity > len(idx):
        return 0.0
    pts = cloud.points
    return float(
        sum(phi(*(pts[i] for i in tup)) for tup in itertools.permutations(idx, phi.arity))
    )


def _check_tuple_budget(n: int, r: int) -> None:
    cost = n**r
    if cost > TUPLE_SUM_BUDGET:
        raise ValueError(
            f"r = {r} over n = {n} needs ~{cost:.2e} tuple evaluations, "
            f"budget is {TUPLE_SUM_BUDGET:.0e}"
        )


def _subset_det(K: np.ndarray, subset: tuple[int, ...]) -> float:
    if len(subset) == 2:
        i, j = subset
        return float(K[i, i] * K[j, j] - K[i, j] * K[j, i])
    return float(np.linalg.det(K[np.ix_(subset, subset)]))


def _tuple_sum(
    cloud: PointCloud,
    phi: TestFunction,
    diagonal_sum: Callable[[np.ndarray], float],
    subset_det: Callable[[tuple[int, ...]], float],
) -> float:
    """Full r-tuple sum ``sum phi * det(K_tuple) / n^r``.

    Repeated-index tuples vanish, so the sum runs over index subsets times
    orderings.  At r = 1 it is ``diagonal_sum(phi_vals) / n``, where
    ``diagonal_sum`` weighs the values of ``phi`` at the points by the
    diagonal of ``K``; above, ``subset_det`` gives ``det(K_subset)``.
    """
    n = cloud.n
    r = phi.arity
    _check_tuple_budget(n, r)
    pts = cloud.points
    if r == 1:
        return diagonal_sum(np.array([phi(pts[i]) for i in range(n)])) / n
    total = 0.0
    for subset in itertools.combinations(range(n), r):
        det = subset_det(subset)
        if det == 0.0:
            continue
        total += det * sum(
            phi(*(pts[i] for i in perm)) for perm in itertools.permutations(subset)
        )
    return total / n**r


def expected_linear_statistic(
    kernel: KernelMatrix, cloud: PointCloud, phi: TestFunction
) -> float:
    """Exact expectation of the linear statistic under the kernel.

    Computed by full r-tuple summation; at r = 1 only the kernel diagonal
    is read, so a factored kernel stays unbuilt.
    """
    if kernel.n != cloud.n:
        raise ValueError("kernel size does not match the cloud")
    return _tuple_sum(
        cloud,
        phi,
        lambda phi_vals: float(phi_vals @ kernel.diagonal()),
        lambda subset: _subset_det(kernel.entries, subset),
    )


def empirical_moments(
    values: Sequence[float], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample raw and central moments of orders 1..k."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("values must be nonempty")
    if k < 1:
        raise ValueError("moment order must be at least 1")
    raw = np.array([float(np.mean(v**j)) for j in range(1, k + 1)])
    centered = v - raw[0]
    central = np.array([float(np.mean(centered**j)) for j in range(1, k + 1)])
    return raw, central


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

    Evaluates kernel entries on demand, so 1-point statistics stay cheap on
    very large clouds (only the diagonal is needed).
    """
    pts = cloud.points

    def diagonal_sum(phi_vals: np.ndarray) -> float:
        if kernel.diagonal_value is not None:
            return float(phi_vals.sum()) * kernel.diagonal_value
        diag = np.array([kernel.fn(pts[i], pts[i]) for i in range(cloud.n)])
        return float(phi_vals @ diag)

    def subset_det(subset: tuple[int, ...]) -> float:
        sub = np.array([[kernel.fn(pts[i], pts[j]) for j in subset] for i in subset])
        return float(np.linalg.det(sub))

    return _tuple_sum(cloud, phi, diagonal_sum, subset_det)


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


def _as_square(mat: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


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
    A = _as_square(A, "A")
    B = _as_square(B, "B")
    if A.shape != B.shape:
        raise ValueError("matrices must have equal shape")
    n = A.shape[0]
    if not 1 <= r <= n:
        raise ValueError(f"order r must be in [1, n] = [1, {n}]")
    subsets = _subset_array(n, r, rng)
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
    A = _as_square(A, "A")
    B = _as_square(B, "B")
    if A.shape != B.shape:
        raise ValueError("matrices must have equal shape")
    n = A.shape[0]
    if n > 14:
        raise ValueError(f"exhaustive enumeration limited to n <= 14, got {n}")
    if not 1 <= r <= n:
        raise ValueError(f"order r must be in [1, n] = [1, {n}]")
    subsets = np.array(list(itertools.combinations(range(n), r)), dtype=np.intp)
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


def bound_report_csv(
    trials: int,
    n: int,
    orders: Sequence[int],
    rng: SeededRng | np.random.Generator,
    noise_scale: float = 0.3,
) -> str:
    """CSV report of both bound checkers over random matrix pairs.

    One row per (trial, order, bound) with lhs/rhs/ratio columns; the
    Frobenius rows carry the signed aggregate as lhs and the absolute sum
    in the extra column.
    """
    gen = as_generator(rng)
    lines = ["trial,r,bound,lhs,rhs,ratio,lhs_abs"]
    for t in range(trials):
        A = gen.standard_normal((n, n))
        B = A + noise_scale * gen.standard_normal((n, n))
        for r in orders:
            lhs, rhs = det_bound_max(A, B, r)
            ratio = lhs / rhs if rhs else 0.0
            lines.append(f"{t},{r},entrywise,{lhs!r},{rhs!r},{ratio!r},")
            signed, absolute, rhs_f = det_bound_frobenius(A, B, r)
            ratio = signed / rhs_f if rhs_f else 0.0
            lines.append(
                f"{t},{r},frobenius_signed,{signed!r},{rhs_f!r},{ratio!r},{absolute!r}"
            )
    return "\n".join(lines) + "\n"
