"""Limit-law machinery: magnetization constants, the quartic critical
family, quadratic-form limits, and asymptotic log-partition expansions.

The moments of the quartic law are trapezoid sums on the interval where
the integrand exceeds e^-40 of its peak, which converge spectrally for
these even, rapidly decaying integrands; distribution tables
are dense symmetric grids with trapezoid CDFs and monotone (piecewise
linear) inverse interpolation.

The critical MPLE limit law has two routes. mple_limit_sf and
mple_limit_quantile compute it by quadrature, and every experiment reads
that route: power curves, asymptotic pl calibration, the estimator-law
quartiles and limit_law_density. sample_mple_limit draws it; it is the
Monte Carlo oracle the quadrature is tested against and the source of the
``limits`` verb's draws, and no experiment reads it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import H_MAX, ParameterError
from .special import chdtr, chdtrc, ndtr, solve_rows
from .streams import as_generator

TAIL_LOG_CUT = 40.0
CRITICAL_GRID_POINTS = 4096
# trapezoid nodes on [0, support edge] for F(h) and the moments of U_h
QUARTIC_NODES = 513
# the critical MPLE limit by quadrature: tail eigenvalues this close to zero
# are dropped, and chi-square mixtures go through a lattice of this many
# points spanning mass 1 - e^-LIMIT_TAIL_LOG
ZERO_EIG = 1e-12
LIMIT_LATTICE_POINTS = 1 << 16
LIMIT_TAIL_LOG = 40.0
# Gauss-Legendre nodes per side of the cusp when one chi-square group is
# smoothed by N(0, 2 kappa)
LIMIT_SMOOTHING_NODES = 64
# solve_rows stops a quantile at a residual of special.RESIDUAL_SCALE times
# this, 1e-15 in probability: a few rounding units of the level
QUANTILE_SCALE = 1e-3


@lru_cache(maxsize=1024)
def spontaneous_magnetization(theta: float) -> float:
    """The nonnegative root m of m = tanh(theta*m); zero for theta <= 1.

    Solved by special.solve_rows as x / tanh(x) = theta in x = atanh(m),
    whose left side rises from 1 at x = 0 (posed as m - tanh(theta m), the
    bracket would stop at the trivial root m = 0), to a residual of
    special.RESIDUAL_SCALE (theta - 1); then polished by one Newton step on
    m. The returned value has fixed-point residual below 1e-14. Cached per
    theta, so a process solves each theta once. A negative or non-finite
    theta raises ParameterError.
    """
    if not 0.0 <= theta < math.inf:
        raise ParameterError(f"theta must be finite and nonnegative, got {theta}")
    if theta <= 1.0:
        return 0.0

    def ratio(x, rows):
        # x / tanh(x), and 1 at x = 0, the lower end the bracket steps to
        return np.divide(x, np.tanh(x), out=np.ones_like(x), where=x != 0.0)

    def ratio_slope(x, rows):
        # 1 / tanh(x) - x / sinh(x)^2 through t = tanh(x), which stays finite
        # at any x; Newton runs at x > 0 only
        t = np.tanh(x)
        return 1.0 / t - x * (1.0 - t * t) / (t * t)

    x = solve_rows(ratio, ratio_slope, np.array([theta]), np.array([theta - 1.0]))[0]
    m = math.tanh(float(x[0]))
    w = m - math.tanh(theta * m)
    slope = 1.0 - theta / math.cosh(theta * m) ** 2
    if slope != 0.0:
        m -= w / slope
    if abs(m - math.tanh(theta * m)) > 1e-14:
        raise ParameterError(f"fixed point residual too large at theta={theta}")
    return m


def magnetization_variance(theta: float) -> float:
    """sigma^2 = (1 - m^2)/(1 - theta(1 - m^2)), the sqrt(n) fluctuation
    variance of the magnetization; defined for theta > 1 only."""
    if theta <= 1.0:
        raise ParameterError("magnetization_variance requires theta > 1")
    m = spontaneous_magnetization(theta)
    one_minus = 1.0 - m * m
    return one_minus / (1.0 - theta * one_minus)


def magnetization_slope(theta: float) -> float:
    """dm/dtheta = m * sigma^2 for theta > 1."""
    return spontaneous_magnetization(theta) * magnetization_variance(theta)


def information_rate(theta: float) -> float:
    """R(theta) = m^2 * sigma^2, the inverse limiting estimator variance."""
    m = spontaneous_magnetization(theta)
    return m * m * magnetization_variance(theta)


# ---------------------------------------------------------------------------
# The quartic critical family


def _support_edge(h: float) -> float:
    # positive root of u^4/12 - h u^2/2 = TAIL_LOG_CUT
    usq = 6.0 * (h / 2.0 + math.sqrt(h * h / 4.0 + TAIL_LOG_CUT / 3.0))
    return math.sqrt(usq)


def _peak_log(h: float) -> float:
    # max of -u^4/12 + h u^2/2, attained at u^2 = 3h for h > 0, else at 0
    return 0.75 * h * h if h > 0 else 0.0


@dataclass(frozen=True, eq=False)
class CriticalLaw:
    """The tilted quartic law with density proportional to
    exp(-u^4/12 + h u^2/2).

    Attributes
    ----------
    h : float
        Tilt parameter, |h| <= 50.
    log_normalizer : float
        F(h) = log of the normalizing integral over the real line.
    u, pdf, cdf : np.ndarray
        Symmetric grid spanning the support where the density exceeds
        e^-40 of its peak, with the normalized density and trapezoid CDF.
    moment2, moment4 : float
        E U^2 and E U^4 by the trapezoid rule of _quartic_moments.
    """

    h: float
    log_normalizer: float
    u: np.ndarray
    pdf: np.ndarray
    cdf: np.ndarray
    moment2: float
    moment4: float

    def quantile(self, p) -> np.ndarray | float:
        p_arr = np.asarray(p, dtype=np.float64)
        if np.any((p_arr <= 0.0) | (p_arr >= 1.0)):
            raise ParameterError("quantile levels must lie strictly in (0, 1)")
        out = np.interp(p_arr, self.cdf, self.u)
        return out if p_arr.shape else float(out)

    def cdf_at(self, x) -> np.ndarray | float:
        x_arr = np.asarray(x, dtype=np.float64)
        out = np.interp(x_arr, self.u, self.cdf, left=0.0, right=1.0)
        return out if x_arr.shape else float(out)

    def sample(self, seed, size: int) -> np.ndarray:
        rng = as_generator(seed)
        return np.interp(rng.random(size), self.cdf, self.u)


def _quartic_moments(h: float) -> tuple[float, float, float]:
    """(F(h), E U_h^2, E U_h^4) of the tilted quartic law.

    Trapezoid sums over QUARTIC_NODES nodes on [0, edge], where edge bounds
    the support on which the density exceeds e^-40 of its peak. The
    integrands are even, so the rule's error terms at 0 vanish, and they
    are e^-40 small at the edge, so the sums converge spectrally: 513 nodes
    agree with adaptive quadrature at relative tolerance 1e-13 to 3.1e-14
    on a 0.5-spaced grid of |h| <= 50.
    """
    if not abs(h) <= H_MAX:
        raise ParameterError(f"|h| is capped at {H_MAX}, got {h}")
    edge = _support_edge(h)
    peak = _peak_log(h)
    usq = np.linspace(0.0, edge, QUARTIC_NODES) ** 2
    weights = np.exp(-(usq * usq) / 12.0 + h * usq / 2.0 - peak)
    weights[[0, -1]] *= 0.5
    mass = weights.sum()
    total = 2.0 * mass * edge / (QUARTIC_NODES - 1)
    m2 = float(usq @ weights) / mass
    m4 = float((usq * usq) @ weights) / mass
    return peak + math.log(total), m2, m4


@lru_cache(maxsize=64)
def critical_law(h: float) -> CriticalLaw:
    """Build the tilted quartic law at tilt ``h``, |h| <= 50, on a grid of
    CRITICAL_GRID_POINTS points."""
    log_norm, m2, m4 = _quartic_moments(h)
    edge = _support_edge(h)
    u = np.linspace(-edge, edge, CRITICAL_GRID_POINTS)
    log_pdf = -(u**4) / 12.0 + h * u * u / 2.0 - log_norm
    pdf = np.exp(log_pdf)
    steps = np.diff(u) * 0.5 * (pdf[1:] + pdf[:-1])
    cdf = np.concatenate([[0.0], np.cumsum(steps)])
    cdf /= cdf[-1]
    for arr in (u, pdf, cdf):
        arr.flags.writeable = False
    return CriticalLaw(
        h=h, log_normalizer=log_norm, u=u, pdf=pdf, cdf=cdf, moment2=m2, moment4=m4
    )


# ---------------------------------------------------------------------------
# Quadratic-form limit laws


@dataclass(frozen=True, eq=False)
class LimitSampleSet:
    """Joint draws of the centered quadratic-form limits.

    ``centered_qf`` is the weak limit of x'Bx and ``centered_qf_sq`` that
    of x'B^2x, with B the centered coupling; rows are replications.
    """

    theta: float
    centered_qf: np.ndarray
    centered_qf_sq: np.ndarray


def _tail_eigs(limit_eigs) -> np.ndarray:
    eigs = np.asarray(limit_eigs, dtype=np.float64)
    if eigs.size == 0 or eigs[0] != 1.0:
        raise ParameterError("limit_eigs must lead with the Perron eigenvalue 1")
    return eigs[1:]


def _tail_groups(limit_eigs) -> tuple[np.ndarray, np.ndarray]:
    """The distinct tail eigenvalues, in order of first occurrence, and
    their multiplicities as floats."""
    distinct, first, mult = np.unique(
        _tail_eigs(limit_eigs), return_index=True, return_counts=True
    )
    order = np.argsort(first)
    return distinct[order], mult[order].astype(np.float64)


def _tail_spectrum(theta: float, limit_eigs, kappa: float) -> tuple[float, float]:
    """(1 - m^2, c) at ``theta``, with c = theta (1 - m^2), once finite
    theta >= 1 and kappa >= 0 and 1 - c lambda > 0 for every tail
    eigenvalue lambda hold; raises ParameterError otherwise."""
    if theta < 1.0:
        raise ParameterError("quadratic-form limits are defined for theta >= 1")
    if not 0.0 <= kappa < math.inf:
        raise ParameterError(f"kappa must be finite and nonnegative, got {kappa}")
    m = spontaneous_magnetization(theta)
    one_minus = 1.0 - m * m
    c = theta * one_minus
    if np.any(1.0 - c * _tail_eigs(limit_eigs) <= 0.0):
        raise ParameterError("spectral gap violated: 1 - theta(1-m^2)lambda <= 0")
    return one_minus, c


def sample_quadratic_limits(
    theta: float, limit_eigs, kappa: float, reps: int, seed
) -> LimitSampleSet:
    """Monte Carlo draws of the quadratic-form limit pair at ``theta``.

    The series runs over every tail eigenvalue. Exactly equal eigenvalues
    share one chi-square draw with their multiplicity as degrees of
    freedom, which is exact because S and T are linear in the draws with
    coefficients that depend on lambda alone; groups keep the order of
    first occurrence. Like quadratic_limit_mean and log_partition_shift it
    raises ParameterError unless theta >= 1, kappa >= 0 and
    1 - theta(1-m^2)*lambda > 0 for each tail eigenvalue (_tail_spectrum).

    Args:
        theta: inverse temperature, theta >= 1.
        limit_eigs: limiting eigenvalues, leading entry 1.
        kappa: spectral defect, nonnegative.
        reps: number of replications.
        seed: int seed or Generator.
    """
    one_minus, c = _tail_spectrum(theta, limit_eigs, kappa)
    rng = as_generator(seed)
    lam, mult = _tail_groups(limit_eigs)
    denom = 1.0 - c * lam
    y = rng.chisquare(mult, size=(reps, lam.size)) if lam.size else np.zeros((reps, 0))
    w = rng.normal(0.0, math.sqrt(2.0 * kappa), size=reps) if kappa > 0 else 0.0
    s = one_minus * (
        (y / denom - mult) @ lam - 1.0 + one_minus * theta * kappa + w
    )
    t = one_minus * (y @ (lam * lam / denom) + kappa)
    return LimitSampleSet(
        theta=theta, centered_qf=np.asarray(s), centered_qf_sq=np.asarray(t)
    )


def quadratic_limit_mean(theta: float, limit_eigs, kappa: float) -> float:
    """Closed-form mean of the centered quadratic-form limit at ``theta``.

    Each chi-square in the series has unit mean, so

        E S = (1-m^2) [ sum_j lambda_j (1/(1 - c lambda_j) - 1)
                        - 1 + (1-m^2) theta kappa ],  c = theta (1-m^2).

    Reduces to -(1-m^2) when the tail spectrum is empty and kappa = 0.
    Needs theta >= 1, kappa >= 0 and 1 - c lambda_j > 0 (_tail_spectrum).
    """
    one_minus, c = _tail_spectrum(theta, limit_eigs, kappa)
    lam = _tail_eigs(limit_eigs)
    tail = float(np.sum(lam * (1.0 / (1.0 - c * lam) - 1.0)))
    return one_minus * (tail - 1.0 + one_minus * theta * kappa)


def sample_mple_limit(
    h: float, limit_eigs, kappa: float, reps: int, seed
) -> np.ndarray:
    """Draws of the critical MPLE limit U_h^2/3 + (S - T)/U_h^2.

    U_h follows the tilted quartic law, independent of the quadratic-form
    pair (S, T) taken at theta = 1.
    """
    rng = as_generator(seed)
    law = critical_law(h)
    u = law.sample(rng, reps)
    st = sample_quadratic_limits(1.0, limit_eigs, kappa, reps, rng)
    usq = u * u
    return usq / 3.0 + (st.centered_qf - st.centered_qf_sq) / usq


# ---------------------------------------------------------------------------
# The critical MPLE limit by quadrature
#
# At theta = 1 the draws above give S - T = D with
# D = sum_j lambda_j (y_j - mult_j) - 1 + W, W ~ N(0, 2 kappa), independent
# of U_h, so P(U_h^2/3 + D/U_h^2 > v) = E P(D > v U_h^2 - U_h^4/3).


def _limit_key(limit_eigs, kappa) -> tuple[tuple, float]:
    return tuple(float(v) for v in limit_eigs), float(kappa)


@lru_cache(maxsize=16)
def _d_survival(limit_eigs: tuple, kappa: float):
    """x -> P(D > x) as a vectorized function, or None when D = -1.

    Tail eigenvalues within ZERO_EIG of zero (the float cos(pi/2) of a
    cyclic_qpartite with 4 | q) are left out. Without a tail D is -1 or
    -1 + N(0, 2 kappa) (ndtr). One chi-square group is read through chdtr
    at the points themselves when kappa = 0, and through
    _smoothed_chi_square when kappa > 0, so its cusp stays exact either
    way; two or more groups go through _lattice_survival. A negative kappa
    or a tail eigenvalue >= 1 raises (_tail_spectrum at theta = 1).
    """
    _tail_spectrum(1.0, limit_eigs, kappa)
    lam, mult = _tail_groups(limit_eigs)
    keep = np.abs(lam) > ZERO_EIG
    lam, mult = lam[keep], mult[keep]
    if lam.size == 0:
        if kappa == 0.0:
            return None
        sd = math.sqrt(2.0 * kappa)
        return lambda x: ndtr(-(x + 1.0) / sd)
    if lam.size == 1:
        (eig,), (m,) = lam, mult
        tail = chdtrc if eig > 0.0 else chdtr
        if kappa > 0.0:
            return _smoothed_chi_square(tail, eig, m, kappa)
        return lambda x: _chi_square_at(tail, eig, m, x + 1.0)
    return _lattice_survival(lam, mult, kappa)


def _chi_square_at(fn, eig: float, m: float, z):
    """fn(m, y) at the y >= 0 where eig (y - m) = z, y ~ chi^2_m.

    With fn = chdtr this is P(eig (y - m) <= z) for eig > 0 and
    P(eig (y - m) > z) for eig < 0; chdtrc gives the complements.
    """
    return fn(m, np.maximum(m + z / eig, 0.0))


def _smoothed_chi_square(tail, eig: float, m: float, kappa: float):
    """P(D > x) for D = eig (y - m) - 1 + W, y ~ chi^2_m, W = sd s ~ N(0, 2 kappa).

    The chi-square survival _chi_square_at(tail, eig, m, x + 1 - sd s) is
    integrated against the normal density of s on |s| <= sqrt(2
    LIMIT_TAIL_LOG), which leaves out less than e^-LIMIT_TAIL_LOG of its
    mass. The range is broken at the chi-square cusp, s = (x + 1 + eig m) /
    sd clipped to it; each side runs in t with s = cusp -+ t^2, where the
    integrand is smooth in t, by LIMIT_SMOOTHING_NODES Gauss-Legendre nodes.
    """
    sd, reach = math.sqrt(2.0 * kappa), math.sqrt(2.0 * LIMIT_TAIL_LOG)
    nodes, weights = np.polynomial.legendre.leggauss(LIMIT_SMOOTHING_NODES)

    def survival(x):
        z = np.asarray(x, dtype=np.float64)[..., None] + 1.0
        cusp = np.clip((z + eig * m) / sd, -reach, reach)
        total = 0.0
        for sign in (-1.0, 1.0):
            half = 0.5 * np.sqrt(reach - sign * cusp)
            t = half * (nodes + 1.0)
            s = cusp + sign * t * t
            chi = _chi_square_at(tail, eig, m, z - sd * s)
            total = total + (np.exp(-0.5 * s * s) * chi * t * half) @ weights
        return total * math.sqrt(2.0 / math.pi)

    return survival


def _lattice_survival(lam: np.ndarray, mult: np.ndarray, kappa: float):
    """P(D > x) of a chi-square mixture, by FFT convolution on a lattice.

    Every component, lambda_j (y_j - mult_j) and W, puts the exact mass of
    each cell [(k - 1/2) step, (k + 1/2) step) (chdtr or ndtr differences
    at the cell edges) on its lattice point k step; the lattice masses of
    D - E D = D + 1 are their circular convolution by numpy.fft, and
    P(D > x) interpolates linearly between the cell edges. The lattice
    spans E D -+ half with
    half = 2 sqrt(2 LIMIT_TAIL_LOG sum_j mult_j lambda_j^2 + kappa)
    + 2 LIMIT_TAIL_LOG max|lambda|, so by the chi-square tail bound of
    Laurent and Massart (2000, Lemma 1) every component, and their sum,
    leaves less than e^-LIMIT_TAIL_LOG of its mass outside. The cataloged
    cyclic_qpartite laws agree with a 16 times finer lattice to 1e-8 in
    power. A lone group never comes here (_d_survival reads it exactly);
    a chi-square_1 group whose spike no other component widens past one
    cell, as beside a group of eigenvalue 1e-9, still costs about 1e-3.
    """
    size, x = LIMIT_LATTICE_POINTS, LIMIT_TAIL_LOG
    half = 2.0 * math.sqrt(2.0 * x * (mult @ (lam * lam) + kappa))
    half += 2.0 * x * float(np.abs(lam).max())
    step = 2.0 * half / size
    components = []  # (reach, z -> P(component <= z))
    for eig, m in zip(lam, mult):
        cdf = partial(_chi_square_at, chdtr if eig > 0.0 else chdtrc, eig, m)
        components.append((2.0 * abs(eig) * (math.sqrt(m * x) + x), cdf))
    if kappa > 0.0:
        sd = math.sqrt(2.0 * kappa)
        components.append((sd * math.sqrt(2.0 * x), lambda z: ndtr(z / sd)))
    spectrum = np.ones(size // 2 + 1, dtype=np.complex128)
    for reach, cdf in components:
        cells = min(math.ceil(reach / step), size // 2 - 1)
        edges = (np.arange(-cells, cells + 2) - 0.5) * step
        masses = np.zeros(size)
        masses[np.arange(-cells, cells + 1) % size] = np.diff(cdf(edges))
        spectrum *= np.fft.rfft(masses)
    pmf = np.roll(np.fft.irfft(spectrum, size), size // 2)
    # P(D > upper edge of cell i), summed from the right end
    survival = np.clip(np.append(np.cumsum(pmf[:0:-1])[::-1], 0.0), 0.0, 1.0)
    edges = -1.0 + (np.arange(size) - size // 2 + 0.5) * step
    return lambda x: np.interp(x, edges, survival, left=1.0, right=0.0)


def mple_limit_sf(v: float, h: float, limit_eigs, kappa: float) -> float:
    """P(V_h > v) for the critical MPLE limit V_h = U_h^2/3 + D/U_h^2.

    Integrates P(D > v u^2 - u^4/3) against critical_law(h).pdf by the
    trapezoid rule on the law's u grid. When D = -1 (no tail spectrum,
    kappa = 0), V_h > v iff U_h^2 > t = (3/2)(v + sqrt(v^2 + 4/3)), read
    through cdf_at.
    """
    survival = _d_survival(*_limit_key(limit_eigs, kappa))
    law = critical_law(h)
    if survival is None:
        root = math.sqrt(1.5 * (v + math.sqrt(v * v + 4.0 / 3.0)))
        return float(2.0 * (1.0 - law.cdf_at(root)))
    usq = law.u * law.u
    integrand = survival(v * usq - usq * usq / 3.0) * law.pdf
    return float(np.trapezoid(integrand, law.u) / np.trapezoid(law.pdf, law.u))


def mple_limit_quantile(p: float, h: float, limit_eigs, kappa: float) -> float:
    """The level-p quantile of the critical MPLE limit V_h.

    The root of mple_limit_sf(., h) = 1 - p by special.solve_rows, which
    brackets it by doubling from v = 1, with the secant through its latest
    two evaluations as the slope, to a residual of 1e-15 in probability
    (QUANTILE_SCALE); cached per (p, h, limit_eigs, kappa).
    """
    if not 0.0 < p < 1.0:
        raise ParameterError("quantile levels must lie strictly in (0, 1)")
    return _limit_quantile(float(p), float(h), *_limit_key(limit_eigs, kappa))


@lru_cache(maxsize=64)
def _limit_quantile(p: float, h: float, limit_eigs: tuple, kappa: float) -> float:
    # the root of -P(V_h > v) = p - 1, whose slope is taken as the secant
    # through the latest two evaluations, so a step costs one evaluation
    seen = []  # (v, -P(V_h > v)), the latest last

    def minus_sf(v, rows):
        seen.append((float(v[0]), -mple_limit_sf(float(v[0]), h, limit_eigs, kappa)))
        return np.array([seen[-1][1]])

    def secant(v, rows):
        (v0, g0), (v1, g1) = seen[-2:]
        return np.array([(g1 - g0) / (v1 - v0) for _ in rows])

    target, scale = np.array([p - 1.0]), np.array([QUANTILE_SCALE])
    return float(solve_rows(minus_sf, secant, target, scale)[0][0])


# ---------------------------------------------------------------------------
# Log-partition asymptotics


def log_partition_shift(theta0: float, limit_eigs, kappa: float) -> float:
    """Limit of [log-partition of the coupling model] minus [mean-field
    log-partition in its nx̄²/2 convention] along theta_n -> theta0.

    Equals the log moment generating function of the theta = 0
    quadratic-form limit at argument theta0(1-m^2)/2:

        -c/2 + kappa c^2/4 - (1/2) sum_j [log(1 - c lambda_j) + c lambda_j]

    with c = theta0 (1 - m^2), defined when theta0 >= 1, kappa >= 0 and
    1 - c lambda_j > 0 (_tail_spectrum). Matrix-convention comparisons must
    add theta0/2 on the mean-field side.
    """
    c = _tail_spectrum(theta0, limit_eigs, kappa)[1]
    lam = _tail_eigs(limit_eigs)
    tail = float(np.sum(np.log1p(-c * lam) + c * lam))
    return -0.5 * c + 0.25 * kappa * c * c - 0.5 * tail


def delta_log_partition(theta0: float, h: float) -> tuple[float, float]:
    """Asymptotics of Z_n(theta0 + h/sqrt(n)) - Z_n(theta0) (mean field).

    Returns (limit, drift) where the full expansion is
    drift * sqrt(n) + limit + o(1): at theta0 > 1 the pair is
    (R(theta0) h^2/2, h m^2/2); at theta0 = 1 it is (F(h) - F(0), 0),
    with F read from _quartic_moments, so no critical_law grid is built.
    """
    if theta0 < 1.0:
        raise ParameterError("asymptotics cover theta0 >= 1 only")
    if theta0 == 1.0:
        return _quartic_moments(h)[0] - _quartic_moments(0.0)[0], 0.0
    m = spontaneous_magnetization(theta0)
    return information_rate(theta0) * h * h / 2.0, h * m * m / 2.0


def mle_critical_cdf(h: float) -> float:
    """P(U_0^2 <= E U_h^2): the limiting distribution function, at ``h``,
    of the centered and rescaled maximum-likelihood point estimate at
    criticality."""
    e = _quartic_moments(h)[1]
    law0 = critical_law(0.0)
    root = math.sqrt(e)
    return float(law0.cdf_at(root) - law0.cdf_at(-root))
