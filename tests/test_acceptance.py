"""End-to-end acceptance gate.

Twelve checks, one test function each, run in file order; ``pytest -v``
prints one pass/fail line per check. Every random quantity is drawn from
streams derived from the single pre-committed master seed below.
"""
import math

import numpy as np
from scipy.special import gammaln, logsumexp
from scipy.stats import kstest, norm

from ising_infer import (
    DrawSet,
    SpinConfiguration,
    TestSpec,
    build_coupling,
    calibrate,
    count_law,
    critical_law,
    cw_log_partition,
    derive_seed,
    draw_counts,
    empirical_power,
    glauber_series,
    information_rate,
    magnetization_variance,
    mle_exact,
    mple,
    mple_counts,
    sample_mple_limit,
    spontaneous_magnetization,
    suff_stat_table,
)
from ising_infer.sampler import tilted_table
from ising_infer.streams import substream_uniforms
from oracles import (
    asymptotic_power,
    enumerate_state_distribution,
    exact_enumerate,
    glauber_sweep_kernel,
)

ACCEPT_SEED = 20260815  # committed up front; every stream derives from it


# 1 ------------------------------------------------------------------------


def test_family_spectra_are_exact():
    eigs = np.sort(np.linalg.eigvalsh(build_coupling("bipartite", 100).entries))
    want = np.sort(np.array([1.0, -1.0] + [0.0] * 98))
    assert np.max(np.abs(eigs - want)) < 1e-10

    eigs = np.sort(np.linalg.eigvalsh(build_coupling("qpartite", 12, q=3).entries))
    want = np.sort(np.array([1.0] + [-0.5] * 2 + [0.0] * 9))
    assert np.max(np.abs(eigs - want)) < 1e-10

    eigs = np.sort(
        np.linalg.eigvalsh(build_coupling("cyclic_qpartite", 20, q=5).entries)
    )
    want = np.sort(
        np.array([math.cos(2.0 * math.pi * a / 5.0) for a in range(5)] + [0.0] * 15)
    )
    assert np.max(np.abs(eigs - want)) < 1e-8


# 2 ------------------------------------------------------------------------


def test_partition_function_oracles_agree():
    # independence-limit identity, exact at double precision
    for n in range(2, 21):
        coupling = build_coupling("complete", n)
        assert abs(exact_enumerate(coupling, 0.0).log_z - n * math.log(2.0)) <= 1e-14

    # binomial-collapse normalizer vs a direct magnetization-sum oracle
    for n in range(8, 21):
        k = np.arange(n + 1)
        log_binom = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
        xbar = (2.0 * k - n) / n
        for theta in (0.5, 1.0, 1.5):
            direct = float(logsumexp(log_binom + 0.5 * n * theta * xbar**2))
            assert abs(cw_log_partition(n, theta) - direct) < 1e-9


# 3 ------------------------------------------------------------------------


def test_normalizer_expansion_converges():
    sizes = (10**3, 10**4, 10**5, 10**6)

    m_sq = spontaneous_magnetization(1.5) ** 2
    rate = information_rate(1.5)
    gaps = []
    for n in sizes:
        delta = cw_log_partition(n, 1.5 + 1.0 / math.sqrt(n)) - cw_log_partition(
            n, 1.5
        )
        gaps.append(abs(delta - 0.5 * math.sqrt(n) * m_sq - 0.5 * rate))
    assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps
    assert gaps[-1] < 0.02, gaps

    shift = critical_law(1.0).log_normalizer - critical_law(0.0).log_normalizer
    n = 10**6
    delta = cw_log_partition(n, 1.0 + 1.0 / math.sqrt(n)) - cw_log_partition(n, 1.0)
    assert abs(delta - shift) < 0.02


# 4 ------------------------------------------------------------------------


def test_critical_magnetization_matches_quartic_law():
    n, reps = 10_000, 2000
    law = count_law(build_coupling("complete", n))
    uniforms = substream_uniforms(derive_seed(ACCEPT_SEED, 401), reps, 1)[:, 0]
    counts = draw_counts(law, 1.0, uniforms)
    stats = np.sort(n**0.25 * (2.0 * counts - n) / n)
    cdf = critical_law(0.0).cdf_at(stats)
    grid = np.arange(1, reps + 1) / reps
    ks = max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / reps)))
    assert ks < 0.05, ks


# 5 ------------------------------------------------------------------------


def test_low_temperature_mple_is_gaussian():
    n, reps, theta0 = 1600, 400, 1.5
    law = count_law(build_coupling("complete", n))
    uniforms = substream_uniforms(derive_seed(ACCEPT_SEED, 501), reps, 1)[:, 0]
    counts = draw_counts(law, theta0, uniforms)
    estimates = mple_counts(law, counts)
    assert estimates.exists.all()
    scaled = math.sqrt(n) * (estimates.value - theta0)
    sd = 1.0 / math.sqrt(information_rate(theta0))
    pvalue = kstest(scaled, norm(loc=0.0, scale=sd).cdf).pvalue
    assert pvalue > 0.01, pvalue


# 6 ------------------------------------------------------------------------


def test_critical_mple_quartiles_match_limit():
    # the finite-n law is exact: the +1-count pmf at theta = 1, each count
    # mapped through the count-collapsed MPLE
    n = 10_000
    law = count_law(build_coupling("complete", n))
    _, _, pmf = tilted_table(law.values, law.log_mult, 1.0)
    counts = np.flatnonzero(pmf > 0.0)
    scaled = math.sqrt(n) * (mple_counts(law, counts).value - 1.0)
    order = np.argsort(scaled, kind="stable")
    cdf = np.cumsum(pmf[counts][order])
    limit = sample_mple_limit(
        0.0, (1.0,), 0.0, 1_000_000, derive_seed(ACCEPT_SEED, 602)
    )
    probs = (0.25, 0.5, 0.75)
    # left-continuous quantile: the smallest value whose cdf reaches p
    got = scaled[order][np.searchsorted(cdf, probs)]
    want = np.quantile(limit, probs)
    assert np.max(np.abs(got - want)) < 0.1, (got, want)


# 7 ------------------------------------------------------------------------


def _mple_root_straddles(spins, coupling) -> bool:
    t = coupling.entries @ spins.astype(np.float64)
    big = 1e6
    s_plus = float(t @ spins - t @ np.tanh(big * t))
    s_minus = float(t @ spins - t @ np.tanh(-big * t))
    return s_minus > 0.0 > s_plus


def _mle_root_straddles(t_obs, values, counts, theta=2000.0) -> bool:
    def tilted_mean(th):
        logw = np.log(counts) + 0.5 * th * values
        logw -= logw.max()
        w = np.exp(logw)
        return float(values @ w / w.sum())

    return (t_obs - tilted_mean(-theta)) > 0.0 > (t_obs - tilted_mean(theta))


def test_existence_criteria_match_root_detection():
    n = 8
    for family in ("complete", "bipartite"):
        coupling = build_coupling(family, n)
        values, counts = suff_stat_table(coupling)
        for code in range(1 << n):
            spins = np.array([1 if code >> i & 1 else -1 for i in range(n)])
            config = SpinConfiguration.from_spins(spins, coupling)
            assert mple(config).exists == _mple_root_straddles(spins, coupling), (
                family,
                code,
            )
            t_obs = float(spins @ (coupling.entries @ spins))
            direct = _mle_root_straddles(t_obs, values, counts)
            assert mle_exact(config, coupling).exists == direct, (
                family,
                code,
            )


# 8 ------------------------------------------------------------------------


def test_magnetization_derivative_identity():
    step = 1e-5
    for theta in (1.1, 1.5, 2.0, 5.0):
        fd = (
            spontaneous_magnetization(theta + step)
            - spontaneous_magnetization(theta - step)
        ) / (2.0 * step)
        product = spontaneous_magnetization(theta) * magnetization_variance(theta)
        assert abs(product - fd) < 1e-6, theta


# 9 ------------------------------------------------------------------------


def test_tilted_normalizer_derivative_identity():
    step = 1e-4
    for h in (-1.0, 0.0, 1.0, 2.0):
        fd = (
            critical_law(h + step).log_normalizer
            - critical_law(h - step).log_normalizer
        ) / (2.0 * step)
        assert abs(fd - 0.5 * critical_law(h).moment2) < 1e-6, h

    closed_form = 0.25 * math.log(12.0) + math.lgamma(0.25) - math.log(2.0)
    assert abs(critical_law(0.0).log_normalizer - closed_form) < 1e-8


# 10 -----------------------------------------------------------------------


def test_asymptotic_power_ordering():
    bipartite = dict(limit_eigs=(1.0, -1.0), kappa=0.0)
    for h in (0.5, 1.0, 2.0, 4.0):
        ms, _ = asymptotic_power("ms", 1.0, h, 0.05, **bipartite)
        npow, _ = asymptotic_power("np", 1.0, h, 0.05, **bipartite)
        assert math.isclose(ms, npow, rel_tol=1e-12), h

    ms1, _ = asymptotic_power("ms", 1.0, 1.0, 0.05, **bipartite)
    pl1, err1 = asymptotic_power(
        "pl", 1.0, 1.0, 0.05, seed=derive_seed(ACCEPT_SEED, 1001), **bipartite
    )
    assert err1 > 0.0
    assert ms1 - pl1 > 3.0 * err1, (ms1, pl1, err1)

    complete = dict(limit_eigs=(1.0,), kappa=0.0)
    for j, h in enumerate((0.5, 1.0, 2.0)):
        ms, _ = asymptotic_power("ms", 1.0, h, 0.05, **complete)
        pl, err = asymptotic_power(
            "pl", 1.0, h, 0.05, seed=derive_seed(ACCEPT_SEED, 1003 + j), **complete
        )
        assert err > 0.0
        assert abs(ms - pl) < 3.0 * err, (h, ms, pl, err)


# 11 -----------------------------------------------------------------------


def test_calibrated_tests_hold_their_level():
    alpha, reps = 0.05, 10_000
    band = 3.0 * math.sqrt(alpha * (1.0 - alpha) / reps)
    failures = []
    for r, (n, theta0) in enumerate(((400, 1.5), (2500, 1.0))):
        coupling = build_coupling("complete", n)
        for k, kind in enumerate(("ms", "np", "pl")):
            spec = TestSpec(
                kind=kind,
                theta0=theta0,
                alpha=alpha,
                n=n,
                calibration="monte_carlo",
            )
            null_seed = derive_seed(ACCEPT_SEED, 1100 + 10 * r + k)
            null = DrawSet(coupling, theta0, null_seed, reps)
            cal = calibrate(spec, coupling, null)
            h = 0.0
            draws = DrawSet(
                coupling,
                theta0 + h / math.sqrt(n),
                derive_seed(ACCEPT_SEED, 1150 + 10 * r + k),
                reps,
            )
            rate = empirical_power(cal, draws)
            if not alpha - band <= rate <= alpha + band:
                failures.append((n, theta0, kind, rate))
    assert not failures, f"null rejection rate outside {alpha}+-{band}: {failures}"


# 12 -----------------------------------------------------------------------


def test_glauber_kernel_and_sampling_are_correct():
    cases = (
        (build_coupling("complete", 12), (0.5, 1.5)),
        (build_coupling("bipartite", 12), (0.5, 1.5)),
        (build_coupling("qpartite", 9, q=3), (0.8,)),
    )
    for coupling, thetas in cases:
        for theta in thetas:
            pi = enumerate_state_distribution(coupling, theta)
            moved = glauber_sweep_kernel(coupling, theta, pi)
            assert np.max(np.abs(moved - pi)) < 1e-10, (coupling.family, theta)

    coupling = build_coupling("complete", 12)
    exact_pmf = exact_enumerate(coupling, 0.5).suff_stat_pmf
    suff, _ = glauber_series(
        coupling, 0.5, derive_seed(ACCEPT_SEED, 1201), samples=30_000
    )
    keys, observed = np.unique(np.round(suff, 10), return_counts=True)
    empirical = dict(zip(keys.tolist(), (observed / suff.size).tolist()))
    support = set(exact_pmf) | set(empirical)
    tv = 0.5 * sum(
        abs(empirical.get(v, 0.0) - exact_pmf.get(v, 0.0)) for v in support
    )
    assert tv < 0.03, tv
