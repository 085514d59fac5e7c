"""The numpy and math special functions, and the roots theory solves with
the package's root finder, against scipy, their oracle.

scipy is a test dependency only. Where its own result is the less accurate
side (erfc and the chi-square tails past x ~ 500 round their exponent), a
few points are also checked against mpmath at 40 digits when it is
installed.
"""
import math

import numpy as np
import pytest
from scipy import special as sc
from scipy.integrate import quad
from scipy.optimize import brentq as sc_brentq

from ising_infer import special, theory
from ising_infer.coupling import limiting_spectrum
from ising_infer.errors import ParameterError
from ising_infer.theory import mple_limit_sf
from oracles import brent_limit_quantile

EPS = np.finfo(np.float64).eps
# below this, results are compared in absolute terms: near the subnormal
# range scipy flushes some tails to 0 that are computed here
FLOOR = 1e-290


def _assert_close(got, want, rtol, floor=FLOOR):
    """Relative error at most rtol where |want| >= floor, absolute below."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    differ = ~((got == want) | (np.isnan(got) & np.isnan(want)))
    err = np.zeros(got.shape)
    err[differ] = np.abs(got[differ] - want[differ]) / np.maximum(np.abs(want[differ]), floor)
    assert err.max() <= rtol, (err.max(), want.flat[err.argmax()])


# ---------------------------------------------------------------------------
# The roots theory solves on solve_rows, against scipy's brentq

# the critical MPLE limit quantiles an experiment reads at h = 0: the
# estimator-law quartiles and the pl cutoff at level 0.05
QUANTILE_LEVELS = (0.25, 0.5, 0.75, 0.95)
QUANTILE_SPECTRA = (
    ("complete", {}), ("bipartite", {}), ("qpartite", {"q": 3}),
    ("cyclic_qpartite", {"q": 5}),
)
# mple_limit_sf evaluations the 16 quantiles took under Brent's method
QUANTILE_EVALUATIONS = 205


def test_magnetization_matches_brent():
    thetas = np.concatenate([np.linspace(1.0 + 1e-4, 8.0, 600), [20.0, 50.0]])
    for theta in thetas:
        want = sc_brentq(lambda x, th=theta: x - math.tanh(th * x), 1e-12, 1.0, xtol=1e-16)
        assert abs(theory.spontaneous_magnetization(theta) - want) <= 1e-13, theta


def test_magnetization_near_the_critical_point():
    # the fixed point rounds coarsely this close to theta = 1, so only its
    # residual is checked
    for theta in (1.0 + 1e-12, 1.0 + 1e-8):
        m = theory.spontaneous_magnetization(theta)
        assert m > 0.0 and abs(m - math.tanh(theta * m)) <= 1e-14, theta


def test_magnetization_is_solved_once_per_theta(monkeypatch):
    solves = []

    def counted(*args):
        solves.append(args)
        return special.solve_rows(*args)

    monkeypatch.setattr(theory, "solve_rows", counted)
    theory.spontaneous_magnetization.cache_clear()
    values = {theory.spontaneous_magnetization(1.5) for _ in range(3)}
    theory.information_rate(1.5)
    theory.magnetization_slope(1.5)
    assert len(values) == 1 and len(solves) == 1


def test_limit_quantiles_match_brent(monkeypatch):
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return mple_limit_sf(*args)

    monkeypatch.setattr(theory, "mple_limit_sf", counted)
    theory._limit_quantile.cache_clear()
    for family, kwargs in QUANTILE_SPECTRA:
        lim = limiting_spectrum(family, **kwargs)
        for p in QUANTILE_LEVELS:
            got = theory.mple_limit_quantile(p, 0.0, lim.limit_eigs, lim.kappa)
            want = brent_limit_quantile(p, 0.0, lim.limit_eigs, lim.kappa)
            assert abs(got - want) <= 1e-13, (family, p, got, want)
    assert calls[0] <= QUANTILE_EVALUATIONS


# rows of kind 0 solve theta^3 = target, kind 1 -(2 - theta) = target, whose
# root at theta = 2 is -0.0, and kind 2 theta + [theta > 2.5] = target, whose
# jump at 2.5 holds no root, so its bracket closes around it
_KINDS = np.array([0, 1, 0, 2])
_TARGETS = np.array([8.0, 0.0, 5.0, 3.0])


def _recorded_rows(events):
    def g(theta, rows):
        events.append(("g", rows.tolist()))
        kind = _KINDS[rows]
        return np.select(
            [kind == 0, kind == 1], [theta**3, -(2.0 - theta)], theta + (theta > 2.5)
        )

    def gprime(theta, rows):
        events.append(("gprime", rows.tolist()))
        return np.where(_KINDS[rows] == 0, 3.0 * theta**2, 1.0)

    return g, gprime


def test_solve_rows_returns_each_rows_latest_residual():
    # a bracket root keeps the value it hit (-0.0 stays -0.0), a Newton row
    # its last evaluation, and only a row that left on a closed bracket is
    # evaluated after the loop, at the theta it moved to
    for rows, closed in (([0, 1, 2, 3], [3]), ([0, 1, 2], [])):
        events = []
        g, gprime = _recorded_rows(events)
        targets = _TARGETS[rows]
        theta, _, lo, hi, residual = special.solve_rows(
            g, gprime, targets, np.ones(len(rows))
        )
        # the loop's last call reads the slope; only g comes after it
        last = max(i for i, (name, _) in enumerate(events) if name == "gprime")
        assert events[last + 1:] == ([("g", closed)] if closed else [])
        width = hi - lo < 1e-15 * np.maximum(1.0, np.abs(theta))
        assert np.flatnonzero(width).tolist() == closed
        fresh = g(theta, np.arange(len(rows))) - targets
        assert residual.tobytes() == fresh.tobytes()
        assert theta[1] == 2.0 and np.signbit(residual[1])


# ---------------------------------------------------------------------------
# The error function and the normal law

_X = np.concatenate([
    np.linspace(-30.0, 30.0, 60001),
    np.geomspace(1e-300, 30.0, 3001),
    -np.geomspace(1e-300, 30.0, 3001),
    [0.0, -0.0, 0.46875, 4.0, 26.5, 27.0, np.inf, -np.inf, np.nan],
])


def test_erfc_matches_scipy():
    # cephes rounds x^2 in the exponent of erfc's tail, by up to 6e-14 there
    _assert_close(special.erfc(_X), sc.erfc(_X), 1e-13)
    assert special.erfc(0.0) == 1.0
    assert special.erfc(np.inf) == 0.0 and special.erfc(-np.inf) == 2.0


_NDTR_A = np.concatenate([
    np.linspace(-40.0, 40.0, 80001),
    np.geomspace(1e-300, 40.0, 3001),
    -np.geomspace(1e-300, 40.0, 3001),
    [0.0, np.inf, -np.inf, np.nan],
])


def test_ndtr_matches_scipy():
    # cephes' ndtr squares the rounded a/sqrt(2) in its exponent, which
    # costs it about a^2 eps / 4 (2e-13 past a = -30); the exponent here
    # is exact (see the mpmath check)
    got, want = special.ndtr(_NDTR_A), sc.ndtr(_NDTR_A)
    inner = _NDTR_A >= -20.0
    _assert_close(got[inner], want[inner], 1e-13)
    _assert_close(got, want, 3e-13)
    assert special.ndtr(0.0) == 0.5 and isinstance(special.ndtr(1.0), float)
    assert special.ndtr(np.zeros((2, 3))).shape == (2, 3)


def test_erfc_and_ndtr_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    xs = np.concatenate([np.linspace(-6.0, 26.5, 131), np.geomspace(1e-300, 1.0, 31)])
    want = np.array([float(mpmath.erfc(mpmath.mpf(x))) for x in xs])
    _assert_close(special.erfc(xs), want, 4 * EPS)
    a = np.concatenate([np.linspace(-37.5, 8.0, 183), -np.geomspace(1e-300, 1.0, 31)])
    want = np.array([float(mpmath.ncdf(mpmath.mpf(x))) for x in a])
    _assert_close(special.ndtr(a), want, 4 * EPS)


def test_ndtri_matches_scipy_and_inverts_ndtr():
    p = np.concatenate([
        np.linspace(0.0, 1.0, 100001),
        np.geomspace(1e-300, 0.5, 3001),
        1.0 - np.geomspace(1e-16, 0.5, 3001),
        [np.finfo(np.float64).tiny, 5e-324],
    ])
    got, want = special.ndtri(p), sc.ndtri(p)
    # relative where the quantile is away from 0, absolute near p = 1/2
    _assert_close(got, want, 1e-13, floor=1e-3)
    central = (p > 0.4) & (p < 0.6)
    _assert_close(got[central], want[central], 1e-13, floor=1e-16)
    # the round trip magnifies the quantile's rounding by about x^2, so it
    # is held to 1e-13 where |x| <= 9
    finite = (p > 1e-19) & (p < 1.0)
    _assert_close(special.ndtr(got[finite]), p[finite], 1e-13)
    assert special.ndtri(0.5) == 0.0
    assert special.ndtri(0.0) == -math.inf and special.ndtri(1.0) == math.inf
    assert np.isnan(special.ndtri([-0.1, 1.1, np.nan])).all()


# ---------------------------------------------------------------------------
# Chi-square tails at integer degree

_CHI_X = np.concatenate([np.geomspace(1e-8, 2000.0, 4001), [0.0, 1e-300, 3000.0]])


@pytest.mark.parametrize("k", range(1, 13))
def test_chi_square_tails_match_scipy(k):
    # cephes' igamc rounds its exponent a log x - x, which costs up to
    # about x eps / 2 of relative accuracy in the far tail
    _assert_close(special.chdtr(k, _CHI_X), sc.chdtr(k, _CHI_X), 4e-14)
    _assert_close(special.chdtrc(k, _CHI_X), sc.chdtrc(k, _CHI_X), 2e-13)
    near = _CHI_X < 200.0
    _assert_close(special.chdtrc(k, _CHI_X[near]), sc.chdtrc(k, _CHI_X[near]), 4e-14)


@pytest.mark.parametrize("k", [1, 2, 7, 12])
def test_chi_square_far_tail_against_mpmath(k):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    xs = np.array([1e-8, 0.3, 5.0, 40.0, 300.0, 900.0, 1300.0])
    a = mpmath.mpf(k) / 2
    upper = [float(mpmath.gammainc(a, mpmath.mpf(x) / 2, mpmath.inf, regularized=True)) for x in xs]
    lower = [float(mpmath.gammainc(a, 0, mpmath.mpf(x) / 2, regularized=True)) for x in xs]
    _assert_close(special.chdtrc(k, xs), np.array(upper), 16 * EPS)
    _assert_close(special.chdtr(k, xs), np.array(lower), 16 * EPS)


@pytest.mark.parametrize("k", [31, 99, 300])
def test_chi_square_tails_at_large_degree(k):
    # a qpartite limit has one tail group of multiplicity q - 1
    x = np.linspace(0.0, 3.0 * k, 3001)
    _assert_close(special.chdtr(k, x), sc.chdtr(k, x), 5e-13)
    _assert_close(special.chdtrc(k, x), sc.chdtrc(k, x), 5e-13)


@pytest.mark.parametrize("k", [1000, 6001])
def test_chi_square_tails_past_the_exponent_range(k):
    # there e^-x/2 underflows while the sum overflows, unless e^-x/2 is
    # spread over the product (special._gamma_term); scipy's own error
    # reaches 6e-12 here
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    xs = np.linspace(0.5 * k, 2.0 * k, 7)
    a = mpmath.mpf(k) / 2
    upper = [float(mpmath.gammainc(a, mpmath.mpf(x) / 2, mpmath.inf, regularized=True)) for x in xs]
    lower = [float(mpmath.gammainc(a, 0, mpmath.mpf(x) / 2, regularized=True)) for x in xs]
    _assert_close(special.chdtrc(k, xs), np.array(upper), 1e-13)
    _assert_close(special.chdtr(k, xs), np.array(lower), 1e-13)
    assert special.chdtrc(k, 4.0 * k + 3000.0) == 0.0


def test_chi_square_edges_and_degree_checks():
    assert special.chdtr(3, -1.0) == 0.0 and special.chdtrc(3, -1.0) == 1.0
    assert special.chdtr(2, np.inf) == 1.0 and special.chdtrc(2, np.inf) == 0.0
    assert np.isnan(special.chdtrc(2, np.nan))
    assert special.chdtr(4.0, np.ones((2, 2))).shape == (2, 2)
    for k in (0, 1.5, -2, np.nan, np.inf):
        with pytest.raises(ParameterError):
            special.chdtr(k, 1.0)


# ---------------------------------------------------------------------------
# Log-factorials


def test_gammaln_matches_scipy_on_the_count_law_range():
    # log k! for k = 0 .. 10^7, the largest complete count law, in slices
    worst = 0.0
    for start in range(0, 10**7 + 1, 10**6):
        x = np.arange(start, min(start + 10**6, 10**7 + 1), dtype=np.float64) + 1.0
        got, want = special.gammaln(x), sc.gammaln(x)
        assert (got[want == 0.0] == 0.0).all()
        live = want != 0.0
        worst = max(worst, float(np.max(np.abs(got[live] - want[live]) / want[live])))
    assert worst <= 4 * EPS


def test_gammaln_scalars_and_domain():
    assert special.gammaln(1.0) == 0.0 and special.gammaln(2.0) == 0.0
    assert special.gammaln(5) == math.log(24.0)
    assert abs(special.gammaln(13.5) - math.lgamma(13.5)) <= 4 * EPS * math.lgamma(13.5)
    for bad in (0.0, 2.5, -3.0, np.nan, np.inf):
        with pytest.raises(ParameterError):
            special.gammaln(bad)


# ---------------------------------------------------------------------------
# The quartic-tilt moments


def test_quartic_moments_match_adaptive_quadrature():
    worst = np.zeros(3)
    for h in np.linspace(-50.0, 50.0, 201):
        edge, peak = theory._support_edge(h), theory._peak_log(h)

        def f(u, power=0, h=h, peak=peak):
            return u**power * math.exp(-(u**4) / 12.0 + h * u * u / 2.0 - peak)

        kw = dict(epsabs=0.0, epsrel=1e-13, limit=500)
        total = 2.0 * quad(f, 0.0, edge, **kw)[0]
        want = (
            peak + math.log(total),
            2.0 * quad(f, 0.0, edge, args=(2,), **kw)[0] / total,
            2.0 * quad(f, 0.0, edge, args=(4,), **kw)[0] / total,
        )
        got = theory._quartic_moments(h)
        worst = np.maximum(worst, np.abs(np.subtract(got, want)) / np.abs(want))
    assert worst.max() <= 1e-13, worst
