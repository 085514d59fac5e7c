"""Limit-law machinery: magnetization curve, quartic family, shifts."""
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import chdtr, chdtrc, gammaln, logsumexp

from ising_infer import (
    ParameterError,
    critical_law,
    cw_log_partition,
    derive_seed,
    delta_log_partition,
    information_rate,
    limiting_spectrum,
    log_partition_shift,
    magnetization_slope,
    magnetization_variance,
    mle_critical_cdf,
    mple_limit_quantile,
    mple_limit_sf,
    quadratic_limit_mean,
    sample_mple_limit,
    sample_quadratic_limits,
    spontaneous_magnetization,
)
from ising_infer import theory
from oracles import law_quantile

M_15 = 0.8585596366401105
R_15 = 0.3199208645349059

# one spectrum per route of the quadrature survival function: D = -1,
# one chi-square group, D = -1 + N(0, 2 kappa), a zero eigenvalue pair
# dropped (q = 4), and the lattice convolution (q = 5, 6)
LIMIT_SPECTRA = (
    ("complete", {}),
    ("bipartite", {}),
    ("qpartite", {"q": 3}),
    ("random_regular", {"eta": 0.5}),
    ("cyclic_qpartite", {"q": 3}),
    ("cyclic_qpartite", {"q": 4}),
    ("cyclic_qpartite", {"q": 5}),
    ("cyclic_qpartite", {"q": 6}),
)


def test_magnetization_zero_below_transition():
    assert spontaneous_magnetization(0.0) == 0.0
    assert spontaneous_magnetization(0.7) == 0.0
    assert spontaneous_magnetization(1.0) == 0.0


def test_magnetization_fixed_point():
    for theta in (1.1, 1.5, 2.0, 5.0):
        m = spontaneous_magnetization(theta)
        assert 0.0 < m < 1.0
        assert abs(m - math.tanh(theta * m)) < 1e-14
    assert abs(spontaneous_magnetization(1.5) - M_15) < 1e-12
    assert abs(spontaneous_magnetization(5.0) - 0.9999091217152325) < 1e-12


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, -0.5])
def test_magnetization_refuses_non_finite_and_negative_theta(theta):
    # inf used to return NaN past the residual check, NaN to escape as the
    # root finder's error
    with pytest.raises(ParameterError, match="theta"):
        spontaneous_magnetization(theta)
    with pytest.raises(ParameterError):
        sample_quadratic_limits(theta, (1.0, -1.0), 0.0, 10, 0)


@pytest.mark.parametrize("kappa", [math.nan, math.inf])
def test_limit_laws_refuse_a_non_finite_kappa(kappa):
    with pytest.raises(ParameterError, match="kappa"):
        quadratic_limit_mean(1.5, (1.0,), kappa)
    with pytest.raises(ParameterError, match="kappa"):
        log_partition_shift(1.5, (1.0,), kappa)
    with pytest.raises(ParameterError, match="kappa"):
        mple_limit_quantile(0.95, 0.0, (1.0,), kappa)
    with pytest.raises(ParameterError, match="kappa"):
        sample_quadratic_limits(1.0, (1.0,), kappa, 10, 0)


def test_quartic_law_refuses_a_nan_tilt():
    with pytest.raises(ParameterError, match=r"\|h\|"):
        critical_law(math.nan)
    with pytest.raises(ParameterError, match=r"\|h\|"):
        delta_log_partition(1.0, math.nan)


def test_magnetization_monotone():
    grid = [1.05, 1.2, 1.5, 2.0, 3.0, 6.0]
    vals = [spontaneous_magnetization(t) for t in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_variance_slope_rate_values():
    assert abs(magnetization_variance(1.5) - 0.4340118929399147) < 1e-12
    assert abs(magnetization_variance(2.0) - 0.0997879781298125) < 1e-12
    assert abs(magnetization_slope(2.0) - 0.09554739061382996) < 1e-12
    assert abs(information_rate(1.5) - R_15) < 1e-12
    with pytest.raises(ParameterError):
        magnetization_variance(1.0)


def test_slope_matches_finite_difference():
    eps = 1e-5
    fd = (
        spontaneous_magnetization(3.0 + eps) - spontaneous_magnetization(3.0 - eps)
    ) / (2.0 * eps)
    assert abs(magnetization_slope(3.0) - fd) < 1e-8


def test_quartic_normalizer_closed_form():
    # at zero tilt the integral is 12^(1/4) * Gamma(1/4) / 2
    expected = 0.25 * math.log(12.0) + float(gammaln(0.25)) - math.log(2.0)
    assert abs(critical_law(0.0).log_normalizer - expected) < 1e-10


def test_quartic_law_table_consistency():
    for h in (-2.0, 0.0, 1.5):
        law = critical_law(h)
        mass = np.trapezoid(law.pdf, law.u)
        assert abs(mass - 1.0) < 1e-8
        assert law.cdf[0] == 0.0 and abs(law.cdf[-1] - 1.0) < 1e-12
        assert np.all(np.diff(law.cdf) >= 0.0)
        grid_m2 = np.trapezoid(law.u**2 * law.pdf, law.u)
        assert abs(grid_m2 - law.moment2) < 1e-6
        assert abs(law.quantile(0.5)) < 1e-8
        for p in (0.1, 0.25, 0.75, 0.9):
            assert abs(law.cdf_at(law.quantile(p)) - p) < 1e-9


def test_quartic_law_frozen_values():
    law0 = critical_law(0.0)
    assert abs(law0.moment2 - 1.170828656607529) < 1e-9
    assert abs(float(np.interp(0.0, law0.u, law0.pdf)) - 0.29638321800332307) < 1e-9


def test_quartic_law_extreme_tilt_stable():
    law = critical_law(50.0)
    assert math.isfinite(law.log_normalizer)
    # density concentrates near u^2 = 3h at strong positive tilt
    assert abs(law.moment2 - 149.97999199146992) < 1e-6
    low = critical_law(-50.0)
    assert math.isfinite(low.log_normalizer)
    assert low.moment2 < 0.2


def test_quartic_law_validation():
    with pytest.raises(ParameterError):
        critical_law(50.5)
    with pytest.raises(ParameterError):
        critical_law(0.0).quantile(0.0)


def test_quartic_sampling_matches_cdf():
    law = critical_law(0.0)
    draws = law.sample(404, 4000)
    ecdf = np.searchsorted(np.sort(draws), law.u, side="right") / draws.size
    assert np.max(np.abs(ecdf - law.cdf)) < 0.035


def test_law_quantile_order_statistic():
    samples = np.array([4.0, 1.0, 3.0, 2.0])
    assert law_quantile(samples, 0.5) == 2.0
    assert law_quantile(samples, 0.5001) == 3.0
    assert law_quantile(samples, 0.999) == 4.0
    assert law_quantile(samples, 1e-9) == 1.0
    law = critical_law(1.0)
    assert law_quantile(law, 0.3) == law.quantile(0.3)
    with pytest.raises(ParameterError):
        law_quantile(samples, 1.0)
    with pytest.raises(ParameterError):
        law_quantile(np.array([]), 0.5)


def test_quadratic_limits_complete_degenerate():
    out = sample_quadratic_limits(1.0, (1.0,), 0.0, 100, 0)
    assert np.all(out.centered_qf == -1.0)
    assert np.all(out.centered_qf_sq == 0.0)
    assert abs(quadratic_limit_mean(1.0, (1.0,), 0.0) + 1.0) < 1e-15


def test_quadratic_limits_bipartite_cancellation():
    out = sample_quadratic_limits(1.0, (1.0, -1.0), 0.0, 20_000, 7)
    # S = -Y/2 and T = Y/2 share the same chi-square draw
    assert np.max(np.abs(out.centered_qf + out.centered_qf_sq)) < 1e-12
    mean = quadratic_limit_mean(1.0, (1.0, -1.0), 0.0)
    assert abs(mean + 0.5) < 1e-15
    assert abs(out.centered_qf.mean() - mean) < 0.02


def test_quadratic_limit_mean_matches_monte_carlo():
    eigs = (1.0, -0.5, -0.5)
    out = sample_quadratic_limits(1.2, eigs, 0.0, 50_000, 11)
    mean = quadratic_limit_mean(1.2, eigs, 0.0)
    se = out.centered_qf.std() / math.sqrt(out.centered_qf.size)
    assert abs(out.centered_qf.mean() - mean) < 5.0 * se


def test_quadratic_limit_mean_keeps_long_tails():
    # qpartite at q = 100: 99 equal tail eigenvalues, all of them in the law
    eigs = (1.0,) + (-1.0 / 99,) * 99
    out = sample_quadratic_limits(1.0, eigs, 0.0, 200_000, 17)
    mean = quadratic_limit_mean(1.0, eigs, 0.0)
    assert abs(mean + 0.99) < 1e-12
    se = out.centered_qf.std() / math.sqrt(out.centered_qf.size)
    assert abs(out.centered_qf.mean() - mean) < 4.0 * se


def test_cyclic_pairs_share_one_draw():
    # cos(2 pi k/q) and cos(2 pi (q - k)/q) are equal to the bit, so each
    # pair of tail eigenvalues is one chi-square(2) draw
    for q in (5, 100, 1000):
        eigs = limiting_spectrum("cyclic_qpartite", q=q).limit_eigs
        assert np.unique(eigs[1:]).size == q // 2
        out = sample_quadratic_limits(1.5, eigs, 0.0, 4000, q)
        mean = quadratic_limit_mean(1.5, eigs, 0.0)
        se = out.centered_qf.std() / math.sqrt(out.centered_qf.size)
        assert abs(out.centered_qf.mean() - mean) < 4.0 * se, q


def test_quadratic_limits_spectral_defect():
    out = sample_quadratic_limits(1.0, (1.0,), 1.0, 40_000, 13)
    # no tail eigenvalues: T is deterministic and S is the Gaussian part
    assert np.all(out.centered_qf_sq == 1.0)
    assert abs(quadratic_limit_mean(1.0, (1.0,), 1.0)) < 1e-15
    assert abs(out.centered_qf.mean()) < 0.03
    assert abs(out.centered_qf.var() - 2.0) < 0.06


def test_quadratic_limits_validation():
    with pytest.raises(ParameterError):
        sample_quadratic_limits(0.9, (1.0,), 0.0, 10, 0)
    with pytest.raises(ParameterError):
        sample_quadratic_limits(1.0, (0.5,), 0.0, 10, 0)
    with pytest.raises(ParameterError):
        sample_quadratic_limits(1.0, (1.0,), -0.1, 10, 0)
    with pytest.raises(ParameterError):
        sample_quadratic_limits(1.0, (1.0, 1.0), 0.0, 10, 0)
    with pytest.raises(ParameterError):
        quadratic_limit_mean(1.0, (1.0, 1.0), 0.0)


def test_mple_limit_deterministic():
    a = sample_mple_limit(0.0, (1.0,), 0.0, 500, 21)
    b = sample_mple_limit(0.0, (1.0,), 0.0, 500, 21)
    c = sample_mple_limit(0.0, (1.0,), 0.0, 500, 22)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(np.isfinite(a))


def test_mple_limit_sign_probability():
    # for the pure mean-field spectrum the draw is U^2/3 - 1/U^2, so
    # P(V <= 0) = P(U^2 <= sqrt(3)); compare against the tabulated law
    draws = sample_mple_limit(0.0, (1.0,), 0.0, 100_000, 31)
    assert abs((draws <= 0.0).mean() - 0.7436776469082957) < 0.007


def test_mple_limit_quantile_inverts_the_survival_function():
    for family, kwargs in LIMIT_SPECTRA:
        lim = limiting_spectrum(family, **kwargs)
        for alpha in (0.01, 0.05, 0.2):
            v = mple_limit_quantile(1.0 - alpha, 0.0, lim.limit_eigs, lim.kappa)
            sf = mple_limit_sf(v, 0.0, lim.limit_eigs, lim.kappa)
            assert abs(sf - alpha) < 1e-10, (family, kwargs, alpha)


@pytest.mark.parametrize("index", range(len(LIMIT_SPECTRA)))
def test_mple_limit_sf_matches_monte_carlo(index):
    family, kwargs = LIMIT_SPECTRA[index]
    lim = limiting_spectrum(family, **kwargs)
    eigs, kappa, reps = lim.limit_eigs, lim.kappa, 1_000_000
    cuts = [mple_limit_quantile(p, 0.0, eigs, kappa) for p in (0.5, 0.95)]
    for j, h in enumerate((0.0, 1.0, 2.0)):
        draws = sample_mple_limit(h, eigs, kappa, reps, derive_seed(4111, 3 * index + j))
        for v in cuts:
            sf = mple_limit_sf(v, h, eigs, kappa)
            se = math.sqrt(sf * (1.0 - sf) / reps)
            assert abs(np.mean(draws > v) - sf) <= 4.0 * se, (family, kwargs, h, v)


ORACLE_SPECTRA = (
    ("complete", {}),
    ("bipartite", {}),
    ("qpartite", {"q": 3}),
    ("cyclic_qpartite", {"q": 5}),
    ("random_regular", {"eta": 0.1}),
)


@pytest.mark.parametrize("h", [0.0, 1.0])
@pytest.mark.parametrize("index", range(len(ORACLE_SPECTRA)))
def test_mple_limit_quartiles_match_monte_carlo(index, h):
    family, kwargs = ORACLE_SPECTRA[index]
    lim = limiting_spectrum(family, **kwargs)
    eigs, kappa, reps = lim.limit_eigs, lim.kappa, 200_000
    draws = sample_mple_limit(h, eigs, kappa, reps, derive_seed(5923, 2 * index + int(h)))
    for p in (0.25, 0.5, 0.75):
        v = mple_limit_quantile(p, h, eigs, kappa)
        assert abs(mple_limit_sf(v, h, eigs, kappa) - (1.0 - p)) < 1e-10
        # the sample quantile's SE: sqrt(p(1-p)/N) over the density at v,
        # the exact mass of a small cell around v divided by its width
        delta = 0.01
        mass = mple_limit_sf(v - delta, h, eigs, kappa) - mple_limit_sf(
            v + delta, h, eigs, kappa
        )
        se = math.sqrt(p * (1.0 - p) / reps) / (mass / (2.0 * delta))
        assert abs(law_quantile(draws, p) - v) <= 4.0 * se, (family, h, p)


def test_mple_limit_lattice_matches_the_chi_square_route():
    # a vanishing kappa sends one chi-square group through
    # _smoothed_chi_square instead of chdtr at the points; the two must agree
    eigs = (1.0, -0.5, -0.5)
    for alpha in (0.01, 0.05, 0.2):
        v = mple_limit_quantile(1.0 - alpha, 0.0, eigs, 0.0)
        for h in (0.0, 1.0, 2.0, 4.0):
            exact = mple_limit_sf(v, h, eigs, 0.0)
            assert abs(mple_limit_sf(v, h, eigs, 1e-12) - exact) < 1e-5, (alpha, h)
    # a chi-square_1 group smoothed by N(0, 2 kappa) moves the survival
    # function by about sqrt(sd) within sd of the cusp, which the u^4 near
    # u = 0 spreads over a u-range of sd^(1/4): the gap to kappa = 0 shrinks
    # like kappa^(3/8), 3.7e-6 at kappa = 1e-12
    eigs = (1.0, -1.0)
    for kappa, bound, grid in ((1e-12, 1e-5, (-1.0, -0.5, 0.0, 0.3, 0.5, 1.0, 2.0)),
                               (1e-20, 1e-8, (0.0, 0.5))):
        for h in (0.0, 1.0):
            for v in grid:
                gap = mple_limit_sf(v, h, eigs, kappa) - mple_limit_sf(v, h, eigs, 0.0)
                assert abs(gap) < bound, (kappa, h, v)


def test_one_group_beside_kappa_matches_adaptive_quadrature():
    # D = eig (y - m) - 1 + W: the chi-square tail against W's normal
    # density, by adaptive quad broken at the cusp w = x + 1 + eig m
    for eig, m, kappa in ((-1.0, 1.0, 1e-12), (0.7, 1.0, 1e-3), (-0.3, 2.0, 0.05),
                          (0.5, 3.0, 1.0), (-0.01, 1.0, 100.0)):
        survival = theory._d_survival((1.0,) + (eig,) * int(m), kappa)
        tail = chdtrc if eig > 0.0 else chdtr
        sd = math.sqrt(2.0 * kappa)
        for x in (-3.0, -1.0, -0.2, 0.0, 1e-7, 0.3, 2.5):
            def integrand(w):
                y = max(m + (x + 1.0 - w) / eig, 0.0)
                return math.exp(-0.5 * (w / sd) ** 2) * tail(m, y)

            cusp = x + 1.0 + eig * m
            ref = quad(integrand, -9.0 * sd, 9.0 * sd, epsabs=1e-14, epsrel=1e-13,
                       points=[cusp] if abs(cusp) < 9.0 * sd else None,
                       limit=500)[0] / (sd * math.sqrt(2.0 * math.pi))
            assert abs(survival(np.array([x]))[0] - ref) < 1e-10, (eig, m, kappa, x)


def test_lattice_matches_one_smoothed_group():
    # the lattice convolution, which serves two or more groups, against
    # the exact one-group route where kappa smooths the chi-square spike
    xs = np.linspace(-6.0, 4.0, 201)
    for eig, m in ((-1.0, 1.0), (0.5, 1.0), (-0.5, 2.0)):
        for kappa in (0.05, 0.5):
            lattice = theory._lattice_survival(np.array([eig]), np.array([m]), kappa)
            exact = theory._d_survival((1.0,) + (eig,) * int(m), kappa)
            assert np.abs(lattice(xs) - exact(xs)).max() < 2e-5, (eig, m, kappa)


def test_mple_limit_sf_complete_reads_the_quartic_law():
    # D = -1: V_h > v iff U_h^2 > t(v), so the survival function is the
    # quartic law's tail at sqrt(t), through cdf_at
    for v in (-3.0, 0.0, 1.5):
        t = 1.5 * (v + math.sqrt(v * v + 4.0 / 3.0))
        assert abs(t / 3.0 - 1.0 / t - v) < 1e-12
        for h in (0.0, 2.0):
            tail = 2.0 * (1.0 - critical_law(h).cdf_at(math.sqrt(t)))
            assert mple_limit_sf(v, h, (1.0,), 0.0) == tail


def test_mple_limit_validation():
    with pytest.raises(ParameterError):
        mple_limit_sf(1.0, 0.0, (0.5,), 0.0)
    with pytest.raises(ParameterError):
        mple_limit_sf(1.0, 0.0, (1.0,), -0.1)
    with pytest.raises(ParameterError):
        mple_limit_sf(1.0, 0.0, (1.0, 1.0), 0.0)
    with pytest.raises(ParameterError):
        mple_limit_quantile(1.0, 0.0, (1.0,), 0.0)


def test_log_partition_shift_values():
    assert abs(log_partition_shift(1.0, (1.0, -1.0), 0.0) + math.log(2.0) / 2.0) < 1e-12
    assert abs(log_partition_shift(1.5, (1.0,), 0.0) + 0.19715651274930113) < 1e-12
    assert abs(log_partition_shift(1.5, (1.0, -1.0), 0.0) + 0.16620091956895466) < 1e-12
    assert abs(log_partition_shift(1.5, (1.0,), 1.0) + 0.15828582222983578) < 1e-12
    with pytest.raises(ParameterError):
        log_partition_shift(0.9, (1.0,), 0.0)
    with pytest.raises(ParameterError):
        log_partition_shift(1.0, (1.0,), -1.0)


def _bipartite_log_partition(n: int, theta: float) -> float:
    # direct two-block binomial collapse of the 2^n state sum: x'Qx
    # depends only on the block sums s1, s2 through (4/n) s1 s2
    half = n // 2
    k = np.arange(half + 1, dtype=np.float64)
    logc = gammaln(half + 1.0) - gammaln(k + 1.0) - gammaln(half - k + 1.0)
    s = 2.0 * k - half
    expo = (
        logc[:, None]
        + logc[None, :]
        + (theta * 2.0 / n) * s[:, None] * s[None, :]
    )
    return float(logsumexp(expo))


def test_log_partition_shift_matches_enumeration_route():
    limit = log_partition_shift(1.5, (1.0, -1.0), 0.0)
    gaps = []
    for n in (512, 1024):
        shift_n = _bipartite_log_partition(n, 1.5) - cw_log_partition(n, 1.5)
        gaps.append(abs(shift_n - limit))
    assert gaps[1] < gaps[0]
    assert gaps[1] < 1e-3


def test_delta_log_partition_regimes():
    limit, drift = delta_log_partition(1.5, 1.0)
    assert abs(limit - R_15 / 2.0) < 1e-12
    assert abs(drift - M_15**2 / 2.0) < 1e-12
    limit0, drift0 = delta_log_partition(1.0, 1.0)
    assert abs(limit0 - 0.875384942595181) < 1e-9
    assert drift0 == 0.0
    with pytest.raises(ParameterError):
        delta_log_partition(0.99, 1.0)


def test_mle_critical_cdf_monotone():
    hs = [-2.0, -1.0, 0.0, 1.0, 2.0]
    vals = [mle_critical_cdf(h) for h in hs]
    assert all(0.0 < v < 1.0 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert abs(vals[2] - 0.6272004691046272) < 1e-9
    assert abs(vals[0] - 0.38271505611850515) < 1e-9
    assert abs(vals[4] - 0.9892068324869331) < 1e-9
