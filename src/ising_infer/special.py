"""The special functions of the limit laws and estimators, and the one root
finder, in numpy and math.

* ``solve_rows``: the package's root finder, for any number of equations
  increasing in their unknown at once: a bracket doubled outward from 1,
  then safeguarded Newton inside it. It solves both likelihood equations
  (``inference``), the spontaneous magnetization and the critical MPLE
  limit quantiles (``theory``).
* ``erfc``, ``ndtr``: W. J. Cody's rational Chebyshev approximations
  (Cody 1969, Math. Comp. 23:631-637, as in his CALERF), vectorised;
  ``ndtr`` takes exp(-a^2/2) from a itself, so its far tail keeps a few
  ulp of relative accuracy.
* ``ndtri``: the normal quantile, a rational starting guess refined by
  Newton steps on ``erf`` near the centre and on log ``ndtr`` in the tails.
* ``chdtr``, ``chdtrc``: the chi-square distribution function and its
  complement at integer degree: the incomplete gamma function's power
  series below the mean and its finite closed form at integer and
  half-integer order from the mean on.
* ``gammaln``: log Gamma at positive integers (the log-factorials), for
  whole arrays at once.

Each special function keeps the name and argument order of the usual
special-function library routine, and takes arrays or floats; the tests
check every one, and the roots the package solves, against an independent
implementation.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NumericError, ParameterError

_EPS = np.finfo(np.float64).eps


# ---------------------------------------------------------------------------
# The root finder

RESIDUAL_SCALE = 1e-12


def solve_rows(g, gprime, targets, scale):
    """Roots of g(theta, rows) = targets[rows], each increasing in theta.

    g and gprime take the thetas and indices of some rows; gprime is only
    called right after g at the same thetas (perhaps with no rows), so it
    may read g's pass. Each row runs its own iteration, independent of the
    other rows: the bracket doubles outward from 1, and an end where g meets
    its target exactly is the root; else Newton runs inside it with a
    bisection fallback until the residual is at most RESIDUAL_SCALE * scale,
    the bracket is narrower than 1e-15 relative, or a Newton step is, within
    200 evaluations.
    Returns (theta, iterations, lo, hi, residual) per row, ``iterations``
    counting the bracket steps and Newton evaluations. A row's residual is
    g - target at its returned theta: the loop's latest evaluation, and one
    more after the loop only for the rows that left on a closed bracket,
    whose theta moved after it.
    """
    def f(theta, rows):
        return g(theta, rows) - targets[rows]

    every = np.arange(targets.size)
    theta = np.ones(targets.size)
    b_lo, b_hi, step = theta.copy(), theta.copy(), np.ones(targets.size)
    iters = np.zeros(targets.size, dtype=np.int64)
    residual = f(theta, every)  # each row's latest, kept as evaluated
    solved = residual == 0.0
    # rows with f(1) > 0 move the lower end down, rows below 0
    # the upper end up, doubling the step each time; an end where f is
    # exactly 0 is the root (theta = 0 at x'Qx = 0, say), which Newton
    # could only approach by bisecting toward it
    sides = ((b_lo, -1.0, residual > 0.0), (b_hi, 1.0, residual < 0.0))
    for edge, sign, moving in sides:
        moving = np.flatnonzero(moving)
        while moving.size:
            edge[moving] += sign * step[moving]
            step[moving] *= 2.0
            iters[moving] += 1
            if (iters[moving] > 80).any():
                raise NumericError("bracketing ran away")
            val = f(edge[moving], moving)
            hit = val == 0.0
            root = moving[hit]
            theta[root], solved[root], residual[root] = edge[root], True, val[hit]
            moving = moving[sign * val < 0.0]

    active = np.flatnonzero(~solved)
    theta[active] = 0.5 * (b_lo[active] + b_hi[active])
    # rows whose latest Newton step moved theta by less than the closing
    # width: once evaluated there they stop, for the residual is down to the
    # rounding of g, and bisecting toward the far end would only close a
    # bracket around the same root
    settled = np.zeros(targets.size, dtype=bool)
    closed = np.zeros(targets.size, dtype=bool)
    for _ in range(200):
        if not active.size:
            break
        val = f(theta[active], active)
        iters[active] += 1
        residual[active] = val
        going = (np.abs(val) > RESIDUAL_SCALE * scale[active]) & ~settled[active]
        rows, val, th = active[going], val[going], theta[active[going]]
        high = val > 0.0
        b_hi[rows[high]] = th[high]
        b_lo[rows[~high]] = th[~high]
        r_lo, r_hi, deriv = b_lo[rows], b_hi[rows], gprime(th, rows)
        # a nonpositive slope bisects; the quotient overflows to inf quietly
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            candidate = np.where(deriv > 0.0, th - val / deriv, math.inf)
        inside = (r_lo < candidate) & (candidate < r_hi)
        # a step that rounds to nothing lands on the end just set, not inside
        small = np.abs(candidate - th) < 1e-15 * np.maximum(1.0, np.abs(th))
        th = np.where(inside | small, candidate, 0.5 * (r_lo + r_hi))
        theta[rows], settled[rows] = th, small
        still = r_hi - r_lo >= 1e-15 * np.maximum(1.0, np.abs(th))
        closed[rows[~still]] = True
        active = rows[still]
    if active.size:
        raise NumericError("Newton did not converge")
    moved = np.flatnonzero(closed)
    if moved.size:
        residual[moved] = f(theta[moved], moved)
    return theta, iters, b_lo, b_hi, residual


# ---------------------------------------------------------------------------
# The error function (Cody's CALERF)

_THRESH = 0.46875
_SQRT1_2 = 0.70710678118654752440
_INV_SQRT_PI = 5.6418958354775628695e-1
_ERF_A = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
          3.20937758913846947e03, 1.85777706184603153e-1)
_ERF_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
          2.84423683343917062e03)
_ERFC_C = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
           2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
           2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_ERFC_D = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
           1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
           3.43936767414372164e03, 1.23033935480374942e03)
_ERFC_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
           1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_ERFC_Q = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
           6.05183413124413191e-2, 2.33520497626869185e-3)


def _ratio(coef_num, coef_den, z, steps):
    # Cody's nested evaluation of (num(z) + c_last) / (den(z) + d_last)
    num, den = coef_num[-1] * z, z
    for c, d in zip(coef_num[:steps], coef_den[:steps]):
        num, den = (num + c) * z, (den + d) * z
    return num, den


def _erf_small(x: np.ndarray) -> np.ndarray:
    # erf(x) for |x| <= _THRESH
    ysq = x * x
    num, den = _ratio(_ERF_A, _ERF_B, ysq, 3)
    return x * (num + _ERF_A[3]) / (den + _ERF_B[3])


def _erfcx_big(y: np.ndarray) -> np.ndarray:
    # exp(y^2) erfc(y) for y > _THRESH (NaN stays NaN, inf gives 0)
    out = np.empty_like(y)
    mid = y <= 4.0
    ym = y[mid]
    num, den = _ratio(_ERFC_C, _ERFC_D, ym, 7)
    out[mid] = (num + _ERFC_C[7]) / (den + _ERFC_D[7])
    yt = y[~mid]
    ysq = 1.0 / (yt * yt)
    num, den = _ratio(_ERFC_P, _ERFC_Q, ysq, 4)
    out[~mid] = (_INV_SQRT_PI - ysq * (num + _ERFC_P[4]) / (den + _ERFC_Q[4])) / yt
    return out


def _exp_minus_square(v: np.ndarray, scale: float = 1.0) -> np.ndarray:
    # exp(-scale v^2), with v^2 split at a multiple of 1/16, whose square is
    # exact, so the exponent carries no rounding of v^2
    head = np.trunc(v * 16.0) / 16.0
    return np.exp(-scale * (head * head)) * np.exp(-scale * ((v - head) * (v + head)))


def _unary(fn, x):
    arr = np.asarray(x, dtype=np.float64)
    out = fn(arr.reshape(-1)).reshape(arr.shape)
    return out if arr.shape else float(out)


def _erfc_flat(x: np.ndarray) -> np.ndarray:
    y = np.abs(x)
    out = np.empty_like(x)
    small = y <= _THRESH
    out[small] = 1.0 - _erf_small(x[small])
    yb = y[~small]
    r = np.zeros_like(yb)
    live = yb != np.inf
    yl = yb[live]
    r[live] = _exp_minus_square(yl) * _erfcx_big(yl)
    out[~small] = np.where(x[~small] < 0.0, 2.0 - r, r)
    return out


def _erf_flat(x: np.ndarray) -> np.ndarray:
    small = np.abs(x) <= _THRESH
    out = np.empty_like(x)
    out[small] = _erf_small(x[small])
    xb = x[~small]
    one = (0.5 - _erfc_flat(np.abs(xb))) + 0.5
    out[~small] = np.where(xb < 0.0, -one, one)
    return out


def erfc(x):
    """The complementary error function, to a few ulp where it is normal."""
    return _unary(_erfc_flat, x)


def _ndtr_flat(a: np.ndarray) -> np.ndarray:
    # cephes' split: 1/2 + erf/2 inside |a| < 1, erfc/2 outside, where
    # exp(-a^2/2) is formed from a itself so the rounding of a/sqrt 2 never
    # enters the exponent
    z = np.abs(a) * _SQRT1_2
    out = np.empty_like(a)
    central = z < _SQRT1_2
    out[central] = 0.5 + 0.5 * _erf_flat(a[central] * _SQRT1_2)
    ab = np.abs(a[~central])
    y = np.zeros_like(ab)
    live = ab != np.inf
    y[live] = 0.5 * _exp_minus_square(ab[live], 0.5) * _erfcx_flat(z[~central][live])
    out[~central] = np.where(a[~central] > 0.0, 1.0 - y, y)
    return out


def ndtr(a):
    """The standard normal distribution function Phi(a)."""
    return _unary(_ndtr_flat, a)


def _erfcx_flat(y: np.ndarray) -> np.ndarray:
    # exp(y^2) erfc(y) for y >= 0
    out = np.empty_like(y)
    small = y <= _THRESH
    ys = y[small]
    out[small] = np.exp(ys * ys) * (1.0 - _erf_small(ys))
    out[~small] = _erfcx_big(y[~small])
    return out


# ---------------------------------------------------------------------------
# The normal quantile

_NEWTON_STEPS = 5
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _ndtri_flat(p: np.ndarray) -> np.ndarray:
    out = np.full_like(p, np.nan)
    out[p == 0.0] = -np.inf
    out[p == 1.0] = np.inf
    # |p - 1/2| <= 1/4, where p - 1/2 is exact: Newton on erf from the line
    central = (p >= 0.25) & (p <= 0.75)
    d = p[central] - 0.5
    y = d * _SQRT_2PI
    for _ in range(_NEWTON_STEPS):
        y -= (0.5 * _erf_flat(y * _SQRT1_2) - d) * _SQRT_2PI * np.exp(0.5 * y * y)
    out[central] = y
    # the tails, on q = min(p, 1 - p) (exact for p > 1/2): Newton on
    # log Phi(-y) = -y^2/2 + log(erfcx(y/sqrt 2)/2), which never underflows,
    # from Abramowitz and Stegun 26.2.23
    tail = ((p > 0.0) & (p < 0.25)) | ((p > 0.75) & (p < 1.0))
    pt = p[tail]
    q = np.minimum(pt, 1.0 - pt)
    t = np.sqrt(-2.0 * np.log(q))
    y = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))
    )
    log_q = np.log(q)
    for _ in range(_NEWTON_STEPS):
        half_erfcx = 0.5 * _erfcx_flat(y * _SQRT1_2)
        # Phi(-y)/phi(y), the Mills ratio
        mills = half_erfcx * _SQRT_2PI
        y += (-0.5 * y * y + np.log(half_erfcx) - log_q) * mills
    out[tail] = np.where(pt < 0.5, -y, y)
    return out


def ndtri(p):
    """The standard normal quantile: x with ndtr(x) = p; NaN outside [0, 1]."""
    return _unary(_ndtri_flat, p)


# ---------------------------------------------------------------------------
# Chi-square tails at integer degree
#
# With a = k/2, f = a mod 1 and t = x/2, P = chdtr(k, x) is the regularized
# lower incomplete gamma function P(a, t) and Q = chdtrc(k, x) = 1 - P. With
# the terms T_b = e^-t t^b / Gamma(b + 1), below the mean (t < a)
#     P = T_a * sum_n t^n / ((a + 1) ... (a + n)),
# and from the mean on Q is the finite sum
#     Q = T_(a-1) + T_(a-2) + ... + T_f + [erfc(sqrt t) for odd k],
# nested from T_(a-1) down. Each side sums positive terms, so the smaller
# of P and Q keeps its relative accuracy and the larger is one minus it.
# Past t = 2a + 1500, Q is below e^-750 and rounds to 0.


def _degree(k) -> tuple[float, float, int]:
    kf = float(k)
    if math.isinf(kf) or not (kf >= 1.0 and kf == math.floor(kf)):
        raise ParameterError(f"chi-square degree must be a positive integer, got {k}")
    a = 0.5 * kf
    f = a - math.floor(a)
    return a, f, int(a - f)


def _gamma_term(f: float, j: int, t: np.ndarray) -> np.ndarray:
    # T_(f + j) as a product that stays in range: e^-t enters as s factors
    # e^-(t/s), s a power of two with t/s <= 512, one each time the product
    # passes 1e100 and the rest at the end
    s = np.exp2(np.ceil(np.log2(np.maximum(t, 512.0) / 512.0)))
    c = np.exp(-t / s)
    term = 2.0 * np.sqrt(t / math.pi) if f else np.ones_like(t)
    left = s.copy()
    for i in range(1, j + 1):
        term *= t / (f + i)
        big = (term > 1e100) & (left > 0.0)
        term[big] *= c[big]
        left[big] -= 1.0
    while np.any(left > 0.0):
        due = left > 0.0
        term[due] *= c[due]
        left[due] -= 1.0
    return term


def _lower_series(a: float, f: float, whole: int, t: np.ndarray) -> np.ndarray:
    # P(a, t) for t < a
    step = np.ones_like(t)
    total = np.ones_like(t)
    n = 0
    while True:
        n += 1
        step *= t / (a + n)
        total += step
        if not np.any(step > _EPS * 0.125 * total):
            break
    return _gamma_term(f, whole, t) * total


def _upper_sum(f: float, whole: int, t: np.ndarray) -> np.ndarray:
    # Q(a, t) for a <= t < 2a + 1500
    q = np.zeros_like(t)
    if whole:
        nest = np.ones_like(t)
        for i in range(1, whole):
            nest = 1.0 + (f + i) / t * nest
        q = _gamma_term(f, whole - 1, t) * nest
    if f:
        half = np.exp(-0.5 * t)
        q += half * _erfcx_flat(np.sqrt(t)) * half
    return q


def _chi_square(k, x, upper: bool):
    a, f, whole = _degree(k)
    arr = np.asarray(x, dtype=np.float64)
    t = 0.5 * np.maximum(arr.reshape(-1), 0.0)
    small = np.full_like(t, np.nan)  # min(P, Q)
    below = t < a
    small[below] = _lower_series(a, f, whole, t[below])
    above = (t >= a) & (t < 2.0 * a + 1500.0)
    small[above] = _upper_sum(f, whole, t[above])
    small[t >= 2.0 * a + 1500.0] = 0.0
    # P is the small side below the mean, Q from it on
    out = np.where(below == upper, 1.0 - small, small).reshape(arr.shape)
    return out if arr.shape else float(out)


def chdtr(k, x):
    """P(chi^2_k <= x) for integer degree k >= 1; 0 for x <= 0."""
    return _chi_square(k, x, upper=False)


def chdtrc(k, x):
    """P(chi^2_k > x) for integer degree k >= 1; 1 for x <= 0."""
    return _chi_square(k, x, upper=True)


# ---------------------------------------------------------------------------
# Log-factorials

_LOG_2PI_HALF = 0.91893853320467274178
# log Gamma(x) = log((x - 1)!) for x = 1, ..., 12, from exact factorials
_SMALL_LOG_GAMMA = np.array([math.log(math.factorial(j)) for j in range(12)])
# Stirling's series: log Gamma(x) = (x - 1/2) log x - x + log(2 pi)/2
# + sum_j B_2j / (2j (2j - 1) x^(2j - 1)); three terms reach below 1e-24
# from x = 1000 on, seven below 1e-18 from x = 13 on
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
# elements per slice of the whole-array pass, so its temporaries stay in cache
_GAMMALN_SLICE = 1 << 14


def _stirling_tail(x: np.ndarray, terms: int) -> np.ndarray:
    # sum_j _STIRLING[j] / x^(2j + 1) for j < terms, by Horner in 1/x^2
    p = x * x
    np.reciprocal(p, out=p)
    series = p * _STIRLING[terms - 1]
    for c in _STIRLING[terms - 2 : 0 : -1]:
        series += c
        series *= p
    series += _STIRLING[0]
    series /= x
    return series


def _stirling(x: np.ndarray, terms: int) -> np.ndarray:
    # (x - 1/2) log x - x + log(2 pi)/2 plus ``terms`` terms of the series
    out = np.log(x)
    out *= x - 0.5
    out -= x
    out += _LOG_2PI_HALF
    out += _stirling_tail(x, terms)
    return out


def _gammaln_flat(x: np.ndarray) -> np.ndarray:
    near = np.flatnonzero(x < 1000.0)
    xn = x[near]
    small = xn < 13.0
    xs = xn[small]
    if (x.size and not x.max() < np.inf) or np.any((xs < 1.0) | (xs != np.floor(xs))):
        raise ParameterError("gammaln takes positive integers, or finite reals >= 13")
    out = np.empty_like(x)
    for start in range(0, x.size, _GAMMALN_SLICE):
        part = slice(start, start + _GAMMALN_SLICE)
        out[part] = _stirling(x[part], 3)
    values = _stirling(xn, len(_STIRLING))
    values[small] = _SMALL_LOG_GAMMA[xs.astype(np.int64) - 1]
    out[near] = values
    return out


def gammaln(x):
    """log Gamma(x) for positive integers x (and any finite real x >= 13),
    to a few ulp, in whole-array passes.

    Below 13 it reads log((x - 1)!) from a table; from 13 on it sums
    Stirling's series, from x = 1000 on as cephes' lgam does. Other x raise
    ParameterError.
    """
    return _unary(_gammaln_flat, x)
