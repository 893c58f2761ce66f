import dataclasses
import hashlib
import itertools
import math
import re
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpp_limits import (
    IndexSample,
    KernelMatrix,
    SeededRng,
    ValidatedDpp,
    dpp_engine,
    enumerate_pmf,
    harmonic_kernel,
    normalized_indicator_profile,
    ope_kernel,
    random_valid_kernel,
    sample_dpp,
    sample_dpp_many,
    sample_uniform_cube,
    sample_uniform_sphere,
    validate_kernel,
)
from dpp_limits.experiments import sphere_bandwidths


# --- validate_kernel -------------------------------------------------------


def test_validate_zero_matrix():
    dpp = validate_kernel(KernelMatrix(np.zeros((4, 4))))
    assert np.allclose(dpp.eigenvalues, 0.0)


def test_validate_boundary_n_times_identity():
    n = 5
    dpp = validate_kernel(KernelMatrix(n * np.eye(n)))
    assert np.allclose(dpp.eigenvalues, n)


def test_validate_rejects_eigenvalue_above_n():
    n = 4
    bad = np.zeros((n, n))
    bad[0, 0] = n + 1
    with pytest.raises(ValueError, match="exceeds n = 4"):
        validate_kernel(KernelMatrix(bad))


def test_validate_rejects_negative_eigenvalue():
    bad = -np.eye(3)
    with pytest.raises(ValueError, match="below 0"):
        validate_kernel(KernelMatrix(bad))


def test_validate_reconstruction():
    K = random_valid_kernel(9, SeededRng(3))
    dpp = validate_kernel(K)
    recon = (dpp.eigenvectors * dpp.eigenvalues) @ dpp.eigenvectors.T
    assert np.linalg.norm(recon - K.entries) <= 1e-8 * np.linalg.norm(K.entries)


def test_validate_clamps_fp_slack():
    n = 3
    K = KernelMatrix(n * np.eye(n) * (1 + 1e-9))
    dpp = validate_kernel(K)
    assert dpp.eigenvalues.max() <= n


# --- index samples ---------------------------------------------------------


def test_index_sample_requires_increasing_indices():
    assert len(IndexSample((0, 4))) == 2
    with pytest.raises(ValueError):
        IndexSample((3, 1))
    with pytest.raises(ValueError):
        IndexSample((1, 1))


# --- enumerate_pmf ---------------------------------------------------------


def test_enumerate_zero_kernel():
    pmf = enumerate_pmf(validate_kernel(KernelMatrix(np.zeros((3, 3)))))
    assert pmf[()] == pytest.approx(1.0)
    assert sum(p for s, p in pmf.items() if s) == pytest.approx(0.0, abs=1e-12)


def test_enumerate_full_projection():
    n = 3
    pmf = enumerate_pmf(validate_kernel(KernelMatrix(n * np.eye(n))))
    assert pmf[(0, 1, 2)] == pytest.approx(1.0)


def test_enumerate_sums_to_one_and_matches_marginals():
    n = 6
    K = random_valid_kernel(n, SeededRng(4))
    pmf = enumerate_pmf(validate_kernel(K))
    assert abs(sum(pmf.values()) - 1.0) <= 1e-10
    for i in range(n):
        marginal = sum(p for s, p in pmf.items() if i in s)
        assert abs(marginal - K.entries[i, i] / n) <= 1e-8
    for pair in itertools.combinations(range(n), 2):
        marginal = sum(p for s, p in pmf.items() if set(pair) <= set(s))
        assert abs(marginal - np.linalg.det(K.entries[np.ix_(pair, pair)]) / n**2) <= 1e-8


def test_enumerate_rejects_large_n():
    K = random_valid_kernel(21, SeededRng(0))
    with pytest.raises(ValueError, match="n <= 20"):
        enumerate_pmf(validate_kernel(K))


# --- sampling --------------------------------------------------------------


def test_zero_kernel_always_empty():
    dpp = validate_kernel(KernelMatrix(np.zeros((5, 5))))
    for smp in sample_dpp_many(dpp, SeededRng(0), 20):
        assert smp.indices == ()


def test_projection_kernel_fixed_cardinality():
    cloud = sample_uniform_cube(60, 2, SeededRng(10))
    m = 7
    dpp = validate_kernel(ope_kernel(cloud, m))
    assert dpp.is_projection()
    assert all(len(s) == m for s in sample_dpp_many(dpp, SeededRng(11), 300))


def test_sampler_determinism():
    dpp = validate_kernel(random_valid_kernel(10, SeededRng(5)))
    a = sample_dpp(dpp, SeededRng(6, 3))
    b = sample_dpp(dpp, SeededRng(6, 3))
    assert a == b
    many1 = sample_dpp_many(dpp, SeededRng(6, 4), 10)
    many2 = sample_dpp_many(dpp, SeededRng(6, 4), 10)
    assert many1 == many2


def test_singleton_and_pair_frequencies():
    n, draws = 8, 50_000
    K = random_valid_kernel(n, SeededRng(14))
    dpp = validate_kernel(K)
    singles = np.zeros(n)
    pairs = np.zeros((n, n))
    for smp in sample_dpp_many(dpp, SeededRng(15), draws):
        idx = np.array(smp.indices, dtype=int)
        singles[idx] += 1
        for a, b in itertools.combinations(idx, 2):
            pairs[a, b] += 1
    singles /= draws
    pairs /= draws
    E = K.entries
    for i in range(n):
        p = E[i, i] / n
        band = 4.0 * math.sqrt(p * (1 - p) / draws)
        assert abs(singles[i] - p) <= band
    for i, j in itertools.combinations(range(n), 2):
        p = (E[i, i] * E[j, j] - E[i, j] ** 2) / n**2
        band = 4.0 * math.sqrt(p * (1 - p) / draws) + 1e-12
        assert abs(pairs[i, j] - p) <= band


def test_sampler_oracle_tv():
    # exactness: empirical distribution over 1e5 draws is close in total
    # variation to the exhaustive enumeration
    n, draws = 7, 100_000
    gen = SeededRng(20).generator()
    lam = np.zeros(n)
    lam[:3] = n * gen.uniform(0.0, 1.0, 3)
    dpp = validate_kernel(random_valid_kernel(n, gen, eigenvalues=lam))
    pmf = enumerate_pmf(dpp)
    counts: dict[tuple, int] = {}
    for smp in sample_dpp_many(dpp, SeededRng(21), draws):
        counts[smp.indices] = counts.get(smp.indices, 0) + 1
    tv = 0.5 * sum(abs(counts.get(s, 0) / draws - p) for s, p in pmf.items())
    assert tv <= 0.02


def test_cardinality_law():
    n, draws = 9, 10_000
    K = random_valid_kernel(n, SeededRng(30))
    dpp = validate_kernel(K)
    sizes = np.array([len(s) for s in sample_dpp_many(dpp, SeededRng(31), draws)])
    expected = np.trace(K.entries) / n
    band = 4.0 * sizes.std() / math.sqrt(draws)
    assert abs(sizes.mean() - expected) <= band


def test_negative_association_for_projection():
    # repulsion: joint pair frequency never beats the product of singleton
    # frequencies by more than sampling noise
    n, m, draws = 30, 5, 40_000
    cloud = sample_uniform_cube(n, 2, SeededRng(40))
    dpp = validate_kernel(ope_kernel(cloud, m))
    singles = np.zeros(n)
    pairs = np.zeros((n, n))
    for smp in sample_dpp_many(dpp, SeededRng(41), draws):
        idx = np.array(smp.indices, dtype=int)
        singles[idx] += 1
        for a, b in itertools.combinations(idx, 2):
            pairs[a, b] += 1
    singles /= draws
    pairs /= draws
    for i, j in itertools.combinations(range(n), 2):
        p = pairs[i, j]
        band = 4.0 * math.sqrt(max(p * (1 - p), 1e-9) / draws)
        assert p <= singles[i] * singles[j] + band


def test_random_valid_kernel_rejects_bad_spectrum():
    with pytest.raises(ValueError):
        random_valid_kernel(4, SeededRng(0), eigenvalues=np.array([5.0, 0, 0, 0]))


# --- factored kernels --------------------------------------------------------


def _random_factor(n, m, seed, top=0.9):
    # Gaussian n x m factor scaled so its largest eigenvalue is top * n
    B = SeededRng(seed).generator().standard_normal((n, m))
    return B * math.sqrt(top * n) / np.linalg.norm(B, 2)


def _dense_twin(kernel):
    return KernelMatrix(kernel.factor @ kernel.factor.T)


def test_factor_shape_checks():
    with pytest.raises(ValueError, match="m <= n"):
        KernelMatrix(factor=np.ones((2, 3)))
    with pytest.raises(ValueError, match="exactly one"):
        KernelMatrix()
    with pytest.raises(ValueError, match="exactly one"):
        KernelMatrix(np.eye(2), factor=np.eye(2))


def test_factored_entries_are_cached_product():
    B = _random_factor(15, 5, seed=2)
    K = KernelMatrix(factor=B)
    assert K.n == 15
    assert np.allclose(K.entries, B @ B.T, rtol=0, atol=1e-12)
    assert K.entries is K.entries
    assert np.array_equal(K.entries, K.entries.T)
    assert np.allclose(K.diagonal(), np.diag(B @ B.T), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n,m", [(9, 3), (40, 7), (30, 30)])
def test_factored_validation_matches_dense(n, m):
    K = KernelMatrix(factor=_random_factor(n, m, seed=n + m))
    fac, dense = validate_kernel(K), validate_kernel(_dense_twin(K))
    assert fac.eigenvalues.shape == (n,)
    assert fac.eigenvectors.shape == (n, m)
    assert np.abs(fac.eigenvalues - dense.eigenvalues).max() <= 1e-10 * n
    recon = (fac.eigenvectors * fac.eigenvalues[n - m :]) @ fac.eigenvectors.T
    assert np.linalg.norm(recon - K.entries) <= 1e-8 * np.linalg.norm(K.entries)


def test_factored_validation_rejects_like_dense():
    B = _random_factor(12, 4, seed=3, top=1.5)
    for K in (KernelMatrix(factor=B), KernelMatrix(B @ B.T)):
        with pytest.raises(ValueError, match="exceeds n = 12"):
            validate_kernel(K)
    B[2, 1] = np.nan
    for make in (lambda: KernelMatrix(factor=B), lambda: KernelMatrix(B @ B.T)):
        with pytest.raises(ValueError, match="non-finite"):
            validate_kernel(make())


def test_validated_dpp_rejects_eigenvalue_without_eigenvector():
    # a factored kernel's eigenvectors pair with its top m eigenvalues; the
    # other n - m must be 0
    V = np.eye(5)[:, :2]
    with pytest.raises(ValueError, match="eigenvalues without an eigenvector must be 0"):
        ValidatedDpp(KernelMatrix(factor=V), np.array([1.0, 0.0, 0.0, 1.0, 1.0]), V)


def test_factored_reconstruction_check(monkeypatch):
    real_svd = np.linalg.svd

    def sign_flipped_svd(a, *args, **kwargs):
        U, s, Wt = real_svd(a, *args, **kwargs)
        return -U, s, Wt

    monkeypatch.setattr(np.linalg, "svd", sign_flipped_svd)
    with pytest.raises(ArithmeticError, match="reconstruction"):
        validate_kernel(KernelMatrix(factor=_random_factor(10, 3, seed=4)))


@pytest.mark.parametrize("n,m", [(10, 4), (40, 7)])
def test_factored_and_dense_draw_alike(n, m):
    K = KernelMatrix(factor=_random_factor(n, m, seed=5 * n + m))
    fac, dense = validate_kernel(K), validate_kernel(_dense_twin(K))
    assert not fac.is_projection()
    assert sample_dpp_many(fac, SeededRng(8), 300) == sample_dpp_many(dense, SeededRng(8), 300)


# --- batched draws -----------------------------------------------------------


def _batch_kernel(kind, n, seed):
    # spectra as eigenvalue / n: a projection of rank 5, one of rank n / 3
    # rounded up (where sample_dpp_many's projector route starts), a mixed
    # one with a few values strictly between 0 and 1, and a diffuse one with
    # every value small
    gen = SeededRng(seed).generator()
    if kind == "zero":
        return KernelMatrix(np.zeros((n, n)))
    if kind == "diffuse":
        return random_valid_kernel(n, gen, eigenvalues=gen.uniform(0.0, min(n, 2.0), n))
    if kind.endswith("wide-projection"):
        top = np.ones(-(-n // dpp_engine._PROJECTOR_DIV))
    elif kind.endswith("projection"):
        top = np.ones(min(n, 5))
    else:
        top = np.array([1.0, 0.9, 0.6, 0.3, 0.05])[: min(n, 5)]
    if kind.startswith("dense"):
        lam = np.zeros(n)
        lam[n - top.size :] = n * top
        return random_valid_kernel(n, gen, eigenvalues=lam)
    Q, _ = np.linalg.qr(gen.standard_normal((n, top.size)))
    return KernelMatrix(factor=Q * np.sqrt(n * top))


_BATCH_KINDS = [
    "zero",
    "dense-projection",
    "factored-projection",
    "factored-wide-projection",
    "dense-mixed",
    "factored-mixed",
    "diffuse",
]


def _assert_many_matches_singles(monkeypatch, dpp, count, seed):
    batched, single = SeededRng(seed).generator(), SeededRng(seed).generator()
    draw_block = dpp_engine._draw_block

    def no_replay(*args):
        # the batched path must not lean on the single-draw fallback
        try:
            return draw_block(*args)
        except ArithmeticError as exc:
            raise AssertionError("a block was drawn again one sample at a time") from exc

    with monkeypatch.context() as patch:
        patch.setattr(dpp_engine, "_draw_block", no_replay)
        many = sample_dpp_many(dpp, batched, count)
    assert isinstance(many, list)
    assert many == [sample_dpp(dpp, single) for _ in range(count)]
    assert batched.random() == single.random()


# the wide projection routes from n = 30 on; at n = 300 its 4000 draws of
# 100 chain steps each would cost seconds
@pytest.mark.parametrize(
    "n,kind",
    [
        (n, kind)
        for n in (1, 8, 30, 300)
        for kind in _BATCH_KINDS
        if (n, kind) != (300, "factored-wide-projection")
    ],
)
def test_sample_many_matches_sequential_draws(monkeypatch, kind, n):
    dpp = validate_kernel(_batch_kernel(kind, n, seed=n))
    for count in (0, 1, 7, 2000):
        _assert_many_matches_singles(monkeypatch, dpp, count, seed=count + 3)


@pytest.mark.parametrize(
    "kind,n",
    [
        ("dense-mixed", 8),
        ("factored-projection", 30),
        ("factored-wide-projection", 30),
        ("diffuse", 300),
    ],
)
def test_sample_many_block_seams(monkeypatch, kind, n):
    monkeypatch.setattr(dpp_engine, "_BLOCK_BYTES", 1)  # one draw per block
    dpp = validate_kernel(_batch_kernel(kind, n, seed=n))
    _assert_many_matches_singles(monkeypatch, dpp, 40, seed=9)


def test_sample_many_routes_wide_projections(monkeypatch):
    # a projection of rank r >= n / 3 never enters the lockstep chain; one
    # rank lower still does
    lockstep, calls = dpp_engine._lockstep_chain, []

    def counted(V, u):
        calls.append(u.shape[0])
        return lockstep(V, u)

    monkeypatch.setattr(dpp_engine, "_lockstep_chain", counted)
    n = 60
    threshold = -(-n // dpp_engine._PROJECTOR_DIV)
    for rank, routed in ((threshold, True), (threshold - 1, False)):
        Q, _ = np.linalg.qr(SeededRng(rank).generator().standard_normal((n, rank)))
        dpp = validate_kernel(KernelMatrix(factor=Q * math.sqrt(n)))
        assert dpp.is_projection()
        calls.clear()
        _assert_many_matches_singles(monkeypatch, dpp, 30, seed=rank)
        assert (not calls) is routed


@pytest.mark.parametrize(
    "kind,n", [("dense-mixed", 8), ("factored-projection", 30), ("diffuse", 300)]
)
def test_sample_many_single_draw_is_sample_dpp(monkeypatch, kind, n):
    # a call for one draw takes sample_dpp's own route: the lockstep chain
    # only where sample_dpp takes it too (n > 24 and not a projection)
    lockstep, calls = dpp_engine._lockstep_chain, []

    def counted(V, u):
        calls.append(u.shape[0])
        return lockstep(V, u)

    monkeypatch.setattr(dpp_engine, "_lockstep_chain", counted)
    dpp = validate_kernel(_batch_kernel(kind, n, seed=n))
    for seed in range(5):
        gen, twin = SeededRng(seed).generator(), SeededRng(seed).generator()
        many = sample_dpp_many(dpp, gen, 1)
        many_calls = calls.copy()
        calls.clear()
        assert many == [sample_dpp(dpp, twin)]
        assert many_calls == calls
        assert gen.random() == twin.random()
        if n <= 24 or dpp.is_projection():
            assert not calls
        calls.clear()


# one case per spectrum and single-draw route: the pure-Python chain
# (n <= 24), the lockstep chain at one draw, the empty draw, the cached
# projector, and a projection that sample_dpp_many also draws on it
@pytest.mark.parametrize(
    "kind,n",
    [
        ("dense-mixed", 8),
        ("factored-mixed", 40),
        ("zero", 40),
        ("factored-projection", 40),
        ("factored-wide-projection", 40),
    ],
)
def test_single_draw_reads_n_plus_r_uniforms(kind, n):
    # r counts the nonzero eigenvalues, so the row is as wide whatever the
    # size of the draw
    dpp = validate_kernel(_batch_kernel(kind, n, seed=2))
    r = int(np.count_nonzero(dpp.eigenvalues > n * dpp_engine.PROJECTION_SNAP))
    sizes = set()
    for seed in range(20):
        gen, twin = SeededRng(seed).generator(), SeededRng(seed).generator()
        sizes.add(len(sample_dpp(dpp, gen)))
        twin.random(n + r)
        assert gen.random() == twin.random()
    assert len(sizes) > 1 if "mixed" in kind else sizes == {r}


def _reference_chain(projector, u):
    # the projector chain as it stood before its allocation-free rewrite,
    # kept as the oracle that pins every index and error message on any host
    n, rank = projector.shape[0], u.size
    d = projector.diagonal().astype(float, copy=True)
    C = np.empty((rank, n))
    cum, sq = np.empty(n), np.empty(n)
    chosen = np.empty(rank, dtype=np.intp)
    for t in range(rank):
        dmin = d.min()
        if dmin < 0.0:
            if dmin < -dpp_engine.NEGATIVE_PROB_TOL * (rank - t):
                raise ArithmeticError(
                    f"conditional probability {dmin / (rank - t):.3e} below "
                    f"-{dpp_engine.NEGATIVE_PROB_TOL:.0e} at draw step {t}"
                )
            np.maximum(d, 0.0, out=d)
        np.cumsum(d, out=cum)
        total = cum[-1]
        if total <= 0.0:
            raise ArithmeticError(f"conditional probabilities vanished at draw step {t}")
        j = int(np.searchsorted(cum, u[t] * total, side="right"))
        j = min(j, n - 1)
        piv = d[j]
        if piv <= 0.0:
            raise ArithmeticError(f"selected index {j} has nonpositive residual mass")
        col = C[t]
        np.subtract(projector[j], C[:t, j] @ C[:t], out=col)
        col /= np.sqrt(piv)
        d -= np.multiply(col, col, out=sq)
        chosen[t] = j
        d[chosen[: t + 1]] = 0.0
    chosen.sort()
    return chosen


def _projection_kernels():
    # the projectors sample_dpp draws on: OPE and harmonic kernels as the
    # runners build them, and the batch tests' rank-n/3 projection
    for n, m in ((40, 5), (120, 30), (300, 100)):
        yield f"ope-{n}-{m}", ope_kernel(sample_uniform_cube(n, 2, SeededRng(n)), m)
    cloud = sample_uniform_sphere(300, SeededRng(3))
    h1, h2 = sphere_bandwidths(300)
    for m in (16, 64):
        kernel = harmonic_kernel(cloud, m, h1, h2, normalized_indicator_profile(2), 2)
        yield f"harmonic-300-{m}", kernel
    for n in (40, 300):
        yield f"wide-{n}", _batch_kernel("factored-wide-projection", n, seed=n)


def test_projector_chain_matches_reference():
    for name, kernel in _projection_kernels():
        dpp = validate_kernel(kernel)
        assert dpp.is_projection(), name
        P, rank = dpp._projector, kernel.factor.shape[1]
        gen = SeededRng(7).generator()
        for _ in range(20):
            u = gen.random(rank)
            expect = _reference_chain(P, u)
            assert np.array_equal(dpp_engine._conditional_chain(P, u), expect), name


def _raised(chain, *args):
    with pytest.raises(ArithmeticError) as info:
        chain(*args)
    return str(info.value)


def test_projector_chain_errors_match_reference():
    # every chain raises the reference chain's message: the projector chain,
    # the pure-Python chain on the same projector, and the lockstep chain on
    # a factor V with V V^T = P.  Copies of one large column leave rounding
    # noise of both signs, far below -NEGATIVE_PROB_TOL, after the first step
    col = 1e6 * SeededRng(2).generator().standard_normal(40) / math.sqrt(40)
    copies = np.repeat(col[:, None], 3, axis=1)
    cases = [
        ("conditional probability .* below", copies, np.full(3, 0.5)),
        ("vanished at draw step 0", np.zeros((5, 1)), np.array([0.5])),
        # a uniform of 1 searches past the last cumulative value, and the
        # capped index has no mass left
        ("selected index 2 has nonpositive", np.eye(3)[:, :2], np.array([1.0, 0.5])),
    ]
    for pattern, V, u in cases:
        P = V @ V.T
        message = _raised(_reference_chain, P, u)
        assert re.search(pattern, message), message
        assert _raised(dpp_engine._conditional_chain, P, u) == message
        assert _raised(dpp_engine._chain_small, P, u.tolist()) == message
        assert _raised(dpp_engine._lockstep_chain, V, u[None]) == message


def test_projector_chains_clamp_a_small_negative_diagonal(monkeypatch):
    # a zero row whose diagonal reads -1e-14, inside NEGATIVE_PROB_TOL: both
    # projector chains clamp it to 0 at step 0, and only there, and draw what
    # the reference chain draws
    V, _ = np.linalg.qr(SeededRng(12).generator().standard_normal((12, 3)))
    V[5] = 0.0
    P = V @ V.T
    P[5, 5] = -1e-14
    steps = []
    check = dpp_engine._check_clamp

    def recorded(dmin, rank, t):
        steps.append(t)
        check(dmin, rank, t)

    monkeypatch.setattr(dpp_engine, "_check_clamp", recorded)
    gen = SeededRng(13).generator()
    for _ in range(50):
        u = gen.random(3)
        expect = _reference_chain(P, u)
        steps.clear()
        assert np.array_equal(dpp_engine._conditional_chain(P, u), expect)
        assert steps == [0]
        steps.clear()
        assert dpp_engine._chain_small(P, u.tolist()) == expect.tolist()
        assert steps == [0]


def test_lockstep_repeated_index_replays_one_draw_at_a_time(monkeypatch):
    # a lockstep block whose chain repeats an index is drawn again from its
    # rows one sample at a time; an OPE projection kernel at 3 r < n takes
    # the lockstep route for a batch and the projector chain for one draw
    dpp = validate_kernel(ope_kernel(sample_uniform_cube(60, 2, SeededRng(60)), 8))
    assert dpp.is_projection() and 3 * 8 < dpp.n
    calls = []

    def repeats(V, u):
        calls.append(u.shape[0])
        return np.zeros(u.shape, dtype=np.intp)

    monkeypatch.setattr(dpp_engine, "_lockstep_chain", repeats)
    gen = SeededRng(5).generator()
    assert sample_dpp_many(dpp, SeededRng(5), 20) == [sample_dpp(dpp, gen) for _ in range(20)]
    assert calls


def test_single_draw_rejects_a_repeated_index(monkeypatch):
    # the one strict-increase check that replaces IndexSample's own
    monkeypatch.setattr(dpp_engine, "_conditional_chain", lambda P, u: np.array([3, 3]))
    dpp = validate_kernel(_batch_kernel("factored-projection", 40, seed=1))
    with pytest.raises(ArithmeticError, match="chose an index twice"):
        sample_dpp(dpp, SeededRng(0))


def _search_rows(n, seed):
    # residual rows as the lockstep chain holds them, zero-padded to its
    # width: generic masses, chosen indices at exact zeros, a whole zero
    # search block, one lone mass, and masses of very different sizes
    gen = SeededRng(seed).generator()
    rows = gen.random((5, n))
    rows[0, gen.choice(n, size=n // 3, replace=False)] = 0.0
    rows[1, : min(n, dpp_engine._SEARCH_BLOCK)] = 0.0
    rows[1, -1] = 1.0
    rows[2] = 0.0
    rows[2, gen.integers(n)] = 0.5
    rows[3] *= 10.0 ** gen.integers(-12, 3, n)
    rows[4, 1::2] = 0.0
    d = np.zeros((rows.shape[0], dpp_engine._padded(n)))
    d[:, :n] = rows
    return d


def _search_targets(row, n):
    # uniforms whose targets fall at, just before and just past each search
    # block edge and each of the first 64 cumulative values, plus both ends
    cum = np.cumsum(row[:n])
    edges = np.append(cum[dpp_engine._SEARCH_BLOCK - 1 :: dpp_engine._SEARCH_BLOCK], cum[:64])
    at = edges / cum[-1]
    return np.concatenate(
        [at, np.nextafter(at, 0.0), np.nextafter(at, 2.0), [0.0, np.nextafter(1.0, 0.0), 1.0]]
    ).clip(0.0, 1.0)


@pytest.mark.parametrize("n", [1, 8, 63, 64, 65, 1000])
def test_search_matches_one_level_rule(n):
    # the search picks searchsorted(cumsum(d), u * total, "right") capped
    # at n - 1 (one prefix up to one block, two levels past that); where
    # its block sums and prefix round apart from that cumsum, the target is
    # within rounding of a cumulative value between the two picks, and the
    # pick still has positive mass
    d = _search_rows(n, seed=n)
    for row in d:
        cum = np.cumsum(row[:n])
        u = _search_targets(row, n)
        j, total = dpp_engine._search(np.repeat(row[None], u.size, axis=0), u, n)
        assert np.allclose(total, cum[-1], rtol=1e-13, atol=0.0)
        ref = np.minimum(np.searchsorted(cum, u * cum[-1], side="right"), n - 1)
        for pick, expect, x, t in zip(j.tolist(), ref.tolist(), u, total):
            if pick != expect:
                between = cum[min(pick, expect) : max(pick, expect)]
                assert np.allclose(between, x * cum[-1], rtol=1e-13, atol=0.0)
            if x * t < t:
                assert row[pick] > 0.0
            else:
                assert pick == expect == n - 1
    assert np.array_equal(dpp_engine._search(d, np.ones(len(d)), n)[0], np.full(len(d), n - 1))


def test_sample_many_across_search_blocks(monkeypatch):
    # a rank above one search block at an n that is no multiple of it: the
    # lockstep chain's draws against the projector chain's, which sums its
    # residuals in one prefix
    n, rank = 250, 70
    assert n % dpp_engine._SEARCH_BLOCK and rank > dpp_engine._SEARCH_BLOCK
    assert dpp_engine._PROJECTOR_DIV * rank < n
    Q, _ = np.linalg.qr(SeededRng(6).generator().standard_normal((n, rank)))
    dpp = validate_kernel(KernelMatrix(factor=Q * math.sqrt(n)))
    _assert_many_matches_singles(monkeypatch, dpp, 60, seed=6)


# two-sided normal 4-sigma level, the acceptance suite's per-cell level
_FOUR_SIGMA_ALPHA = 6.334e-5


def _count_law(eigenvalues):
    # Poisson-binomial law of a sum of independent Bernoulli(lambda_k)
    pmf = np.ones(1)
    for lam in np.clip(eigenvalues, 0.0, 1.0):
        pmf = np.append(pmf * (1.0 - lam), 0.0) + np.append(0.0, pmf * lam)
    return pmf


def _chi_square_z(counts, pmf):
    # chi-square over the cells expecting at least 5, each tail pooled into
    # its end cell, as a Wilson-Hilferty normal deviate
    expected = counts.sum() * pmf
    starts = np.append(0, np.flatnonzero(expected >= 5.0)[1:])
    obs, exp = np.add.reduceat(counts, starts), np.add.reduceat(expected, starts)
    chi2, df = float(((obs - exp) ** 2 / exp).sum()), len(obs) - 1
    return ((chi2 / df) ** (1 / 3) - 1 + 2 / (9 * df)) / math.sqrt(2 / (9 * df))


def test_lockstep_counts_follow_the_exact_law(monkeypatch):
    # the number of points a projection DPP puts in a region A is the sum of
    # independent Bernoullis of the eigenvalues of K_A / n, those of
    # B_A^T B_A / n for the factor B: lockstep draws at n = 250, r = 70 run
    # the two-level search and its padding, and their counts in 24 balls
    # holding 5-30% of the cloud must fit that law
    n, rank, draws = 250, 70, 2000
    cloud = sample_uniform_cube(n, 2, SeededRng(6))
    K = ope_kernel(cloud, rank)
    dpp = validate_kernel(K)
    assert n > dpp_engine._SEARCH_BLOCK and dpp_engine._PROJECTOR_DIV * rank < n

    def redraw(*args):
        # a block that trips a check is drawn again by the single-draw chain,
        # which would hide a lockstep fault from the counts
        raise AssertionError("a lockstep block was drawn again one sample at a time")

    monkeypatch.setattr(dpp_engine, "_draw_once", redraw)
    picks = np.array([s.indices for s in sample_dpp_many(dpp, SeededRng(7), draws)])
    sq = ((cloud.points[:24, None] - cloud.points) ** 2).sum(axis=2)
    sizes = np.round(np.linspace(0.05, 0.30, 24) * n).astype(int)
    z = []
    for dist, size in zip(sq, sizes):
        inside = np.zeros(n, dtype=bool)
        inside[np.argsort(dist)[:size]] = True
        B = K.factor[inside]
        pmf = _count_law(np.linalg.eigvalsh(B.T @ B / n))
        z.append(_chi_square_z(np.bincount(inside[picks].sum(axis=1), minlength=rank + 1), pmf))
    bound = NormalDist().inv_cdf(1.0 - _FOUR_SIGMA_ALPHA / len(z))
    assert max(z) <= bound


# eigenvalue / n: both ends exactly and within PROJECTION_SNAP of them, or
# anywhere in [0, 1]
_SNAP = dpp_engine.PROJECTION_SNAP
_FRACTION = st.one_of(st.sampled_from([0.0, _SNAP / 2, 1.0 - _SNAP / 2, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(
    fractions=st.lists(_FRACTION, min_size=1, max_size=10),
    count=st.integers(0, 60),
    block_bytes=st.sampled_from([1, 1 << 10, 1 << 24]),
    seed=st.integers(0, 1 << 16),
)
@example(fractions=[0.0] * 6, count=60, block_bytes=1 << 10, seed=0)
@example(fractions=[1.0] * 6, count=60, block_bytes=1 << 10, seed=0)
def test_sample_many_is_sequential_draws_property(fractions, count, block_bytes, seed):
    n = len(fractions)
    kernel = random_valid_kernel(n, SeededRng(seed), eigenvalues=n * np.array(fractions))
    dpp = validate_kernel(kernel)
    r = int(np.count_nonzero(dpp.eigenvalues / n >= _SNAP))
    batched, single = SeededRng(seed, 1).generator(), SeededRng(seed, 1).generator()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dpp_engine, "_BLOCK_BYTES", block_bytes)
        many = sample_dpp_many(dpp, batched, count)
    assert many == [sample_dpp(dpp, single) for _ in range(count)]
    twin = SeededRng(seed, 1).generator()
    twin.random(count * (n + r))
    assert batched.random() == single.random() == twin.random()


def test_sample_many_rejects_negative_count():
    dpp = validate_kernel(_batch_kernel("dense-mixed", 8, seed=1))
    with pytest.raises(ValueError, match="count"):
        sample_dpp_many(dpp, SeededRng(0), -1)


@pytest.mark.parametrize("block_bytes", [None, 1 << 19], ids=["one-block", "many-blocks"])
def test_sample_many_shares_equal_draws(monkeypatch, block_bytes):
    # the checks runner's regime: few distinct index sets among many draws;
    # sharing holds across the blocks of one call
    if block_bytes is not None:
        monkeypatch.setattr(dpp_engine, "_BLOCK_BYTES", block_bytes)
    n = 8
    lam = np.zeros(n)
    lam[:3] = n * np.array([0.9, 0.6, 0.3])
    dpp = validate_kernel(random_valid_kernel(n, SeededRng(4), eigenvalues=lam))
    many = sample_dpp_many(dpp, SeededRng(5), 5000)
    assert len({id(s) for s in many}) == len({s.indices for s in many})
    first = {}
    for s in many:
        assert first.setdefault(s.indices, s) is s
    with pytest.raises(dataclasses.FrozenInstanceError):
        many[0].indices = (0,)


# one case per single-draw route: the pure-Python chain (n <= 24), the
# cached projector, and the lockstep chain at one draw; the high-rank
# projection is also drawn on the projector by sample_dpp_many
@pytest.mark.parametrize(
    "n,fractions",
    [(8, (1.0,) * 3), (40, (1.0,) * 3), (40, (0.9, 0.8, 0.7)), (30, (1.0,) * 10)],
    ids=["small", "projector", "lockstep", "high-rank-projector"],
)
def test_sample_many_raises_like_single_draws(n, fractions):
    # copies of one large column are not orthonormal, so the chain's
    # residuals after the first step are rounding noise of order 1e-5 with
    # both signs, far below -NEGATIVE_PROB_TOL
    col = 1e6 * SeededRng(2).generator().standard_normal(n) / math.sqrt(n)
    V = np.repeat(col[:, None], len(fractions), axis=1)
    eigenvalues = np.zeros(n)
    eigenvalues[-len(fractions) :] = n * np.asarray(fractions)
    dpp = ValidatedDpp(KernelMatrix(factor=V), eigenvalues, V)
    # the first draw keeps at least two columns, so its chain has a
    # residual step
    assert np.count_nonzero(SeededRng(3).generator().random(n) < dpp._q) >= 2
    below = "conditional probability .* below"
    with pytest.raises(ArithmeticError, match=below):
        sample_dpp(dpp, SeededRng(3))
    with pytest.raises(ArithmeticError, match=below):
        sample_dpp_many(dpp, SeededRng(3), 5)
    # the lockstep chain itself trips the check, not only the replay
    with pytest.raises(ArithmeticError, match=below):
        dpp_engine._lockstep_chain(V, SeededRng(3).generator().random((5, V.shape[1])))


def test_sample_many_block_stays_within_budget(monkeypatch):
    # the n = 8 spectrum (0.9, 0.6, 0.3, 0, ...) of the checks runner's
    # scale, whose blocks hold tens of thousands of draws
    n = 8
    lam = np.zeros(n)
    lam[-3:] = n * np.array([0.3, 0.6, 0.9])
    dpp = validate_kernel(random_valid_kernel(n, SeededRng(1), eigenvalues=lam))
    draw_block = dpp_engine._draw_block
    sizes, peaks = [], []

    def measured(dpp, u, interned):
        tracemalloc.start()
        try:
            # the copy puts the block's uniform rows inside the traced peak
            out = draw_block(dpp, u.copy(), interned)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append(u.shape[0])
        return out

    monkeypatch.setattr(dpp_engine, "_draw_block", measured)
    count = 100_000
    assert len(sample_dpp_many(dpp, SeededRng(2), count)) == count
    assert sizes[0] < count  # the first block is as large as the budget allows
    assert peaks[0] <= dpp_engine._BLOCK_BYTES


# the sphere runner's batch shape: 100 draws of a rank-128 projection at
# n = 1000, whose budget of 97 draws per block splits them 50 + 50.  An OPE
# kernel: its draws read the same under other BLAS builds and thread counts,
# where the harmonic m = 128 kernel splits a near-degenerate eigenvalue
# cluster differently
@pytest.fixture(scope="module")
def batch_dpp():
    return validate_kernel(ope_kernel(sample_uniform_cube(1000, 2, SeededRng(11)), 128))


def test_sample_many_equal_blocks_keep_the_draws(monkeypatch, batch_dpp):
    draw_block, sizes = dpp_engine._draw_block, []

    def recorded(dpp, u, interned):
        sizes.append(u.shape[0])
        return draw_block(dpp, u, interned)

    monkeypatch.setattr(dpp_engine, "_draw_block", recorded)
    gen, plain = SeededRng(12).generator(), SeededRng(12).generator()
    many = sample_dpp_many(batch_dpp, gen, 100)
    # the plain split of the budget: a full block, then a 3-draw tail
    split = sample_dpp_many(batch_dpp, plain, 97) + sample_dpp_many(batch_dpp, plain, 3)
    assert sizes == [50, 50, 97, 3]
    assert many == split
    assert gen.random() == plain.random()
    draws = np.array([s.indices for s in many], dtype=np.int64)
    assert hashlib.md5(draws.tobytes()).hexdigest() == "a60c796bde911b4532cdd8eae0f42c95"


def test_sample_many_sphere_batch_traced_peak(batch_dpp):
    tracemalloc.start()
    try:
        sample_dpp_many(batch_dpp, SeededRng(3), 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20
