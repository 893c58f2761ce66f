"""Acceptance suite: one test per shipped guarantee, printed pass/fail.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to stream the
per-criterion lines).  Each criterion states its tolerance inline; nothing
is deferred to later calibration.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

import dpp_limits as dl
from dpp_limits.experiments import (
    CoresetConfig,
    SphereConfig,
    UsvtConfig,
    run_coreset,
    run_sphere,
    run_usvt,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


# two-sided normal 4-sigma level; binomial cells are tested at this same
# confidence, exactly when the normal approximation is unreliable
_FOUR_SIGMA_ALPHA = 6.334e-5


def _binom_tail_two_sided(x: int, n: int, p: float) -> float:
    if p <= 0.0:
        return 1.0 if x == 0 else 0.0
    if p >= 1.0:
        return 1.0 if x == n else 0.0
    mean = n * p
    log1mp = math.log1p(-p)
    logp = math.log(p)

    def logpmf(k: int) -> float:
        return (
            math.lgamma(n + 1)
            - math.lgamma(k + 1)
            - math.lgamma(n - k + 1)
            + k * logp
            + (n - k) * log1mp
        )

    if x <= mean:
        tail = sum(math.exp(logpmf(k)) for k in range(0, x + 1))
    else:
        tail, k = 0.0, x
        while k <= n:
            term = math.exp(logpmf(k))
            tail += term
            if term < 1e-18 * max(tail, 1e-300):
                break
            k += 1
    return min(1.0, 2.0 * tail)


def _frequency_violates(x: int, draws: int, p: float) -> bool:
    """Outside the binomial band at 4-sigma confidence."""
    band = 4.0 * math.sqrt(p * (1 - p) / draws) + 1e-12
    if abs(x / draws - p) <= band:
        return False
    if draws * p * (1 - p) >= 25.0:
        return True  # normal regime, the 4-sigma band is accurate
    return _binom_tail_two_sided(x, draws, p) < _FOUR_SIGMA_ALPHA


def _lowrank_kernel(n: int, gen: np.random.Generator, rank: int = 3) -> dl.KernelMatrix:
    lam = np.zeros(n)
    lam[:rank] = n * gen.uniform(0.0, 1.0, rank)
    return dl.random_valid_kernel(n, gen, eigenvalues=lam)


def test_criterion_1_sampler_exactness():
    # 20 random valid kernels at n = 8; TV between 1e5 draws and the
    # exhaustive distribution <= 0.02 each; singleton and pair frequencies
    # inside 4-sigma binomial bands
    n, draws = 8, 100_000
    # fixed stream; with ~720 four-sigma cells any given stream has a small
    # chance of one borderline exceedance, this one is clean with margin
    base = dl.SeededRng(505)
    worst_tv = 0.0
    band_failures = 0
    for kk in range(20):
        gen = base.substream(1, kk).generator()
        K = _lowrank_kernel(n, gen)
        dpp = dl.validate_kernel(K)
        pmf = dl.enumerate_pmf(dpp)
        counts = Counter(s.indices for s in dl.sample_dpp_many(dpp, base.substream(2, kk), draws))
        tv = 0.5 * sum(abs(counts[s] / draws - p) for s, p in pmf.items())
        worst_tv = max(worst_tv, tv)
        # singleton and pair counts from the few distinct sets
        singles, pair_counts = Counter(), Counter()
        for idx, c in counts.items():
            for i in idx:
                singles[i] += c
            for pair in itertools.combinations(idx, 2):
                pair_counts[pair] += c
        E = K.entries
        for i in range(n):
            p = E[i, i] / n
            if _frequency_violates(singles[i], draws, p):
                band_failures += 1
        for i, j in itertools.combinations(range(n), 2):
            p = (E[i, i] * E[j, j] - E[i, j] ** 2) / n**2
            if _frequency_violates(pair_counts[i, j], draws, p):
                band_failures += 1
    ok = worst_tv <= 0.02 and band_failures == 0
    _report(1, ok, f"worst TV {worst_tv:.4f} (<= 0.02), band failures {band_failures}")
    assert worst_tv <= 0.02
    assert band_failures == 0


def test_criterion_2_ope_structure():
    # trace counts the rank to 1e-8, spectrum of K/n within 1e-6 of {0,1}
    # with exactly m ones, and every draw has cardinality m
    worst_trace = 0.0
    worst_eig = 0.0
    cardinality_ok = True
    base = dl.SeededRng(202)
    for d in (1, 2):
        for n in (200, 1000):
            for m in (4, 16, 64):
                cloud = dl.sample_uniform_cube(n, d, base.substream(d, n, m))
                K = dl.ope_kernel(cloud, m)
                worst_trace = max(worst_trace, abs(np.trace(K.entries) / n - m))
                ev = np.linalg.eigvalsh(K.entries / n)
                worst_eig = max(worst_eig, float(np.abs(ev - np.round(ev)).max()))
                assert int(np.round(ev).sum()) == m
                dpp = dl.validate_kernel(K)
                sizes = {len(s) for s in dl.sample_dpp_many(dpp, base.substream(9, n, m), 25)}
                cardinality_ok = cardinality_ok and sizes == {m}
    ok = worst_trace <= 1e-8 and worst_eig <= 1e-6 and cardinality_ok
    _report(
        2,
        ok,
        f"worst |tr/n - m| {worst_trace:.2e} (<= 1e-8), worst spectrum gap "
        f"{worst_eig:.2e} (<= 1e-6), fixed cardinality {cardinality_ok}",
    )
    assert worst_trace <= 1e-8
    assert worst_eig <= 1e-6
    assert cardinality_ok


# criteria 3 and 4 take most of the suite's wall time, and criteria 3 and 5
# fail today (README "Tests and acceptance suite"); CI's unit-test step
# deselects both markers, while the full suite runs and reports all eight
@pytest.mark.slow
@pytest.mark.known_failing
def test_criterion_3_coreset_better_than_iid():
    # 90%-quantile of worst-over-theta relative loss error: the repulsive
    # curve must fall at least 0.15 faster in log-log slope and sit strictly
    # below iid for every m >= 16
    cfg = CoresetConfig(
        n=1000,
        d=2,
        m_grid=(4, 8, 16, 32, 64, 128, 256),
        draws=100,
        theta_count=100,
        realizations=20,
        quantile=0.9,
        seed=20240601,
    )
    table = run_coreset(cfg)
    dpp = table.values("dpp", "quantile_rel_error")
    iid = table.values("iid", "quantile_rel_error")
    ms = np.array(sorted(int(k) for k in dpp))
    log_m = np.log(ms)
    slope_dpp = float(np.polyfit(log_m, np.log([dpp[str(m)] for m in ms]), 1)[0])
    slope_iid = float(np.polyfit(log_m, np.log([iid[str(m)] for m in ms]), 1)[0])
    dominance = all(dpp[str(m)] < iid[str(m)] for m in ms if m >= 16)
    gap = slope_iid - slope_dpp
    ok = gap >= 0.15 and dominance
    _report(
        3,
        ok,
        f"slope dpp {slope_dpp:.3f} vs iid {slope_iid:.3f}, gap {gap:.3f} "
        f"(>= 0.15), dominance for m >= 16: {dominance}",
    )
    assert dominance
    assert gap >= 0.15


@pytest.mark.slow
def test_criterion_4_variance_dominance():
    # empirical variance of the 1-point statistic x -> x_1 under the rank-m
    # kernel stays below the Poisson benchmark with the same inclusion
    # intensities, for every m
    n = 2000
    base = dl.SeededRng(404)
    cloud = dl.sample_uniform_cube(n, 2, base.substream(1))
    phi = cloud.points[:, 0]
    details = []
    ok = True
    for m in (16, 64, 256):
        dpp = dl.validate_kernel(dl.ope_kernel(cloud, m))
        Kn = dpp.kernel.entries / n
        var_poisson = float(phi**2 @ Kn.diagonal())
        draws = 5000
        vals = np.empty(draws)
        for i, smp in enumerate(dl.sample_dpp_many(dpp, base.substream(2, m), draws)):
            vals[i] = phi[np.asarray(smp.indices, dtype=np.intp)].sum()
        var_emp = float(vals.var(ddof=1))
        details.append(f"m={m}: {var_emp:.3f} < {var_poisson:.3f}")
        ok = ok and var_emp < var_poisson
    _report(4, ok, "empirical vs Poissonized variance " + "; ".join(details))
    assert ok


@pytest.mark.known_failing
def test_criterion_5_sphere_monte_carlo():
    # n = 3000 with default bandwidths, f = z^2 against 4*pi/3, 1000 draws
    # per rank: repulsive mean relative error below iid at m = 16, and the
    # error at m = 128 above its own value at m = 16
    cfg = SphereConfig(
        n=3000, m_grid=(16, 128), draws=1000, realizations=1, seed=20240602
    )
    table = run_sphere(cfg)
    dpp = table.values("dpp", "mean_rel_error")
    iid = table.values("iid", "mean_rel_error")
    beats_iid = dpp["16"] < iid["16"]
    two_regime = dpp["128"] > dpp["16"]
    ok = beats_iid and two_regime
    _report(
        5,
        ok,
        f"m=16 dpp {dpp['16']:.4f} < iid {iid['16']:.4f}: {beats_iid}; "
        f"m=128 dpp {dpp['128']:.4f} > m=16 dpp {dpp['16']:.4f}: {two_regime}",
    )
    assert beats_iid
    assert two_regime


def test_criterion_6_usvt_rates():
    # recovery error from Bernoulli graphs: Frobenius error decreasing
    # across the size grid (at most one adjacent inversion) with final at
    # most 2/3 of initial; trace error final at most 1/2 of initial
    cfg = UsvtConfig(
        n_grid=(200, 400, 800, 1600),
        d=2,
        alpha=1.0,
        c=0.6,
        rho=0.15,
        kernel_scale=1.0,
        replicates=10,
        seed=20240603,
    )
    table = run_usvt(cfg)
    frob = table.values("usvt", "frobenius_error")
    trace = table.values("usvt", "trace_error")
    ns = sorted(int(k) for k in frob)
    f = [frob[str(n)] for n in ns]
    t = [trace[str(n)] for n in ns]
    inversions = sum(1 for a, b in zip(f, f[1:]) if b > a)
    frob_ratio = f[-1] / f[0]
    trace_ratio = t[-1] / t[0]
    ok = inversions <= 1 and frob_ratio <= 2 / 3 and trace_ratio <= 1 / 2
    _report(
        6,
        ok,
        f"frobenius {np.round(f, 4).tolist()} ratio {frob_ratio:.3f} (<= 0.667), "
        f"inversions {inversions} (<= 1); trace ratio {trace_ratio:.3f} (<= 0.5)",
    )
    assert inversions <= 1
    assert frob_ratio <= 2 / 3
    assert trace_ratio <= 1 / 2


def test_criterion_7_determinant_bounds():
    # 1000 random matrix pairs, sizes up to 12, orders 1..3: the entrywise
    # bound and the signed Frobenius/trace bound hold on every trial
    gen = dl.SeededRng(707).generator()
    max_ok = True
    frob_ok = True
    worst_margin = math.inf
    for _ in range(1000):
        n = int(gen.integers(4, 13))
        A = gen.standard_normal((n, n)) * gen.uniform(0.5, 2.0)
        B = A + gen.standard_normal((n, n)) * gen.uniform(0.01, 1.0)
        for r in (1, 2, 3):
            lhs, rhs = dl.det_bound_max(A, B, r)
            max_ok = max_ok and lhs <= rhs * (1 + 1e-12)
            signed, _, rhs_f = dl.det_bound_frobenius(A, B, r)
            frob_ok = frob_ok and signed <= rhs_f * (1 + 1e-12)
            worst_margin = min(worst_margin, rhs - lhs, rhs_f - signed)
    ok = max_ok and frob_ok
    _report(
        7,
        ok,
        f"entrywise bound {max_ok}, signed aggregate bound {frob_ok}, "
        f"worst margin {worst_margin:.3e}",
    )
    assert max_ok
    assert frob_ok


def test_criterion_8_gram_statistic_trend():
    # constant kernel (rank-one projection) Gram restriction: the 1-point
    # statistic equals the sample mean of phi, whose mean absolute gap to
    # the population integral shrinks with n; final at most initial / 3
    kern = dl.constant_kernel(1.0)
    phi = dl.TestFunction(1, lambda x: np.cos(x[:, 0]) + x[:, 1] ** 2)
    base = dl.SeededRng(808)
    reference = dl.sample_uniform_cube(1_000_000, 2, base.substream(1))
    target = dl.expected_statistic_continuous(kern, reference, phi)
    means = []
    for n in (100, 400, 1600, 6400):
        errs = [
            abs(
                dl.expected_statistic_continuous(
                    kern, dl.sample_uniform_cube(n, 2, base.substream(2, n, rep)), phi
                )
                - target
            )
            for rep in range(64)
        ]
        means.append(float(np.mean(errs)))
    decreasing = all(b < a for a, b in zip(means, means[1:]))
    ratio = means[-1] / means[0]
    ok = decreasing and ratio <= 1 / 3
    _report(
        8,
        ok,
        f"mean |gap| {np.round(means, 5).tolist()} decreasing {decreasing}, "
        f"final/initial {ratio:.3f} (<= 0.333)",
    )
    assert decreasing
    assert ratio <= 1 / 3
