"""Point estimation of the inverse temperature.

The pseudlikelihood estimate solves x'Qx = sum_i t_i tanh(theta t_i), a
strictly increasing equation in theta whenever any local field is nonzero;
we bracket by doubling outward from theta = 1 and run safeguarded Newton
inside the bracket. The likelihood estimate solves dlog Z/dtheta = x'Qx / 2.
Where the model is exactly summable it has one solver, ``_table_mle``, on
the sampler's exact tables: the 2^n enumeration for n <= 24 (``mle_exact``)
and the complete family's binomial table at any n (``mle_complete_large_n``).
Otherwise it runs confidence-gated bisection on Glauber chain means.

Existence is decided before any iteration: the pseudolikelihood equation
has a real root iff -sum|t_i| < x'Qx < sum|t_i| strictly, and the
likelihood equation iff x'Qx lies strictly between the attainable extremes
of the sufficient statistic. Nonexistent estimates carry a signed infinity
and exists=False rather than raising.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .coupling import CouplingMatrix
from .errors import NumericError, ParameterError
from .sampler import (
    SpinConfiguration,
    complete_log_table,
    log_table,
    suff_stat_table,
    tilted_table,
)
from .streams import derive_seed

RESIDUAL_SCALE = 1e-12
# The likelihood residual must be at most 1e-10, or MLE_RESIDUAL_ULPS rounding
# units of the table's range of x'Qx where that is coarser (complete family
# past n = 1760): there the O(n) log weights themselves round above 1e-10.
MLE_RESIDUAL = 1e-10
MLE_RESIDUAL_ULPS = 256
# Existence is an open-interval condition on quantities that arrive through
# floating point; a statistic within this relative distance of an attainable
# extreme is treated as sitting on it (the coupling entries themselves are
# rounded, so finer distinctions are noise).
BOUNDARY_GUARD = 1e-9

logger = logging.getLogger(__name__)


def _inside_bounds(s: float, lower: float, upper: float) -> bool:
    tol = BOUNDARY_GUARD * max(1.0, abs(lower), abs(upper))
    return lower + tol < s < upper - tol


@dataclass(frozen=True)
class EstimateResult:
    """Outcome of one estimation run.

    ``value`` is the estimate, +-inf when the defining equation has no real
    root (sign indicates the divergence side), NaN only in the fully
    degenerate all-zero-fields case. ``bracket`` is the final enclosing
    interval for existing roots.
    """

    value: float
    exists: bool
    method: str
    iterations: int
    bracket: tuple | None
    diagnostics: dict = field(default_factory=dict)


def _fields_and_stat(x, coupling: CouplingMatrix | None):
    if isinstance(x, SpinConfiguration):
        t = x.local_fields
        spins = x.spins
    else:
        if coupling is None:
            raise ParameterError("raw spins need an explicit coupling")
        spins = np.asarray(x)
        t = coupling.local_fields(spins)
    s = float(spins.astype(np.float64) @ t)
    return spins, t, s


def _pl_root(
    t_values: np.ndarray,
    weights: np.ndarray,
    target: float,
    theta_init: float = 1.0,
    max_iter: int = 200,
) -> tuple[float, int, tuple]:
    """Solve sum_i w_i t_i tanh(theta t_i) = target for theta.

    Assumes a root exists (caller checked the strict bounds). Returns
    (root, iterations, bracket).
    """
    t = np.asarray(t_values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    scale = float(np.sum(w * np.abs(t)))

    def g(theta):
        return float(np.sum(w * t * np.tanh(theta * t))) - target

    def gprime(theta):
        sech_sq = 1.0 / np.cosh(theta * t) ** 2
        return float(np.sum(w * t * t * sech_sq))

    iters = 0
    lo = hi = theta_init
    g0 = g(theta_init)
    step = 1.0
    if g0 > 0.0:
        while g(lo) > 0.0:
            lo -= step
            step *= 2.0
            iters += 1
            if iters > 80:
                raise NumericError("pseudolikelihood bracketing ran away")
    elif g0 < 0.0:
        while g(hi) < 0.0:
            hi += step
            step *= 2.0
            iters += 1
            if iters > 80:
                raise NumericError("pseudolikelihood bracketing ran away")
    else:
        return theta_init, iters, (theta_init, theta_init)

    theta = 0.5 * (lo + hi)
    for _ in range(max_iter):
        val = g(theta)
        iters += 1
        if abs(val) <= RESIDUAL_SCALE * scale:
            return theta, iters, (lo, hi)
        if val > 0.0:
            hi = theta
        else:
            lo = theta
        deriv = gprime(theta)
        candidate = theta - val / deriv if deriv > 0.0 else math.inf
        if lo < candidate < hi:
            theta = candidate
        else:
            theta = 0.5 * (lo + hi)
        if hi - lo < 1e-15 * max(1.0, abs(theta)):
            return theta, iters, (lo, hi)
    raise NumericError("pseudolikelihood Newton did not converge")


def mple(x, coupling: CouplingMatrix | None = None) -> EstimateResult:
    """Maximum pseudolikelihood estimate of theta.

    Args:
        x: SpinConfiguration (preferred; carries local fields) or a +-1
           vector, in which case ``coupling`` is required.
        coupling: matrix used to derive fields for raw spin input.

    The diagnostics record the attainable bound sum|t_i|, the residual at
    the root, and whether the simple sign-pattern reading of the existence
    rule (all-plus or all-minus on the support of t) agrees with the
    boundary criterion actually used.
    """
    spins, t, s = _fields_and_stat(x, coupling)
    sum_abs = float(np.sum(np.abs(t)))
    support = t != 0.0
    aligned_plus = bool(np.all(spins[support] == 1)) if support.any() else True
    aligned_minus = bool(np.all(spins[support] == -1)) if support.any() else True
    pattern_nonexistent = aligned_plus or aligned_minus
    diagnostics = {"sum_abs_fields": sum_abs}
    if sum_abs == 0.0:
        diagnostics["degenerate"] = True
        return EstimateResult(
            value=math.nan,
            exists=False,
            method="mple",
            iterations=0,
            bracket=None,
            diagnostics=diagnostics,
        )
    boundary_nonexistent = not _inside_bounds(s, -sum_abs, sum_abs)
    if boundary_nonexistent != pattern_nonexistent:
        diagnostics["existence_phrasings_disagree"] = True
        logger.info(
            "existence phrasings disagree: boundary=%s pattern=%s spins=%s",
            boundary_nonexistent, pattern_nonexistent,
            np.array2string(spins, max_line_width=200),
        )
    if boundary_nonexistent:
        return EstimateResult(
            value=math.inf if s > 0.0 else -math.inf,
            exists=False,
            method="mple",
            iterations=0,
            bracket=None,
            diagnostics=diagnostics,
        )
    value, iters, bracket = _pl_root(t, np.ones_like(t), s)
    diagnostics["residual"] = float(
        np.sum(t * np.tanh(value * t)) - s
    )
    return EstimateResult(
        value=value,
        exists=True,
        method="mple",
        iterations=iters,
        bracket=bracket,
        diagnostics=diagnostics,
    )


def mple_from_counts(n: int, plus_count: int) -> EstimateResult:
    """Complete-family MPLE from the number of +1 spins alone.

    Under the complete coupling every pseudolikelihood quantity is a
    function of k = #{+1}: fields take the two values xbar -+ 1/n with
    multiplicities (k, n-k) and x'Qx = n xbar^2 - 1. Runs in O(1) memory
    at any n.
    """
    if not 0 <= plus_count <= n:
        raise ParameterError("plus_count must lie in [0, n]")
    k = plus_count
    xbar = (2.0 * k - n) / n
    t_vals = np.array([xbar - 1.0 / n, xbar + 1.0 / n])
    weights = np.array([k, n - k], dtype=np.float64)
    s = n * xbar * xbar - 1.0
    sum_abs = float(np.sum(weights * np.abs(t_vals)))
    if sum_abs == 0.0:
        return EstimateResult(
            value=math.nan, exists=False, method="mple", iterations=0,
            bracket=None, diagnostics={"degenerate": True},
        )
    if not _inside_bounds(s, -sum_abs, sum_abs):
        return EstimateResult(
            value=math.inf if s > 0.0 else -math.inf,
            exists=False, method="mple", iterations=0, bracket=None,
            diagnostics={"sum_abs_fields": sum_abs},
        )
    value, iters, bracket = _pl_root(t_vals, weights, s)
    return EstimateResult(
        value=value, exists=True, method="mple", iterations=iters,
        bracket=bracket, diagnostics={"sum_abs_fields": sum_abs},
    )


def suff_stat_bounds(
    coupling: CouplingMatrix, table: tuple | None = None
) -> tuple[float, float]:
    """Attainable (min, max) of x'Qx over all configurations.

    Closed forms for the complete and bipartite families; exhaustive
    enumeration otherwise (n <= 24).
    """
    n = coupling.n
    if coupling.family == "complete":
        low = -1.0 if n % 2 == 0 else (1.0 - n) / n
        return low, float(n - 1)
    if coupling.family == "bipartite":
        return -float(n), float(n)
    if table is None:
        table = suff_stat_table(coupling)
    values = table[0]
    return float(values[0]), float(values[-1])


def _table_mle(s: float, values: np.ndarray, log_mult: np.ndarray) -> EstimateResult:
    """Solve dlog Z/dtheta = s / 2 on an exact (x'Qx, log multiplicity) table.

    The root exists iff s lies strictly between the table's extremes. Brent
    runs on a bracket doubled outward from (-1, 1), and the residual at the
    root must be at most 1e-10 (or MLE_RESIDUAL_ULPS rounding units of the
    table's range).
    """
    a_n, b_n = float(values.min()), float(values.max())
    diagnostics = {"a_n": a_n, "b_n": b_n}
    if not _inside_bounds(s, a_n, b_n):
        value = math.inf if s >= 0.5 * (a_n + b_n) else -math.inf
        return EstimateResult(
            value=value, exists=False, method="mle_exact", iterations=0,
            bracket=None, diagnostics=diagnostics,
        )
    half = 0.5 * s

    def g(theta):
        return tilted_table(values, log_mult, theta)[1] - half

    lo, hi, iters = -1.0, 1.0, 0
    while g(lo) > 0.0:
        lo *= 2.0
        iters += 1
        if iters > 80:
            raise NumericError("likelihood bracketing ran away low")
    while g(hi) < 0.0:
        hi *= 2.0
        iters += 1
        if iters > 80:
            raise NumericError("likelihood bracketing ran away high")
    value = brentq(g, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200)
    residual = abs(g(value))
    tol = max(MLE_RESIDUAL, MLE_RESIDUAL_ULPS * np.finfo(float).eps * (b_n - a_n))
    if residual > tol:
        raise NumericError(f"likelihood residual {residual:.2e} above {tol:.2e}")
    diagnostics["residual"] = residual
    return EstimateResult(
        value=float(value), exists=True, method="mle_exact",
        iterations=iters, bracket=(lo, hi), diagnostics=diagnostics,
    )


def mle_exact(
    x,
    coupling: CouplingMatrix,
    table: tuple | None = None,
) -> EstimateResult:
    """Maximum likelihood estimate from a full enumeration table (n <= 24).

    Args:
        x: SpinConfiguration or +-1 vector.
        coupling: the coupling matrix.
        table: optional reuse of suff_stat_table(coupling) across calls.
    """
    _, _, s = _fields_and_stat(x, coupling)
    return _table_mle(s, *log_table(coupling, table))


def mle_stochastic(
    x,
    coupling: CouplingMatrix,
    *,
    chains: int = 4,
    sweeps: int = 200,
    burn_in: int | None = None,
    tol: float = 0.01,
    seed: int = 0,
    max_iter: int = 60,
    z_crit: float = 3.0,
) -> EstimateResult:
    """Monte Carlo maximum likelihood via confidence-gated bisection.

    At each candidate theta, ``chains`` independent Glauber chains estimate
    the stationary mean of the sufficient statistic. The bracket is
    narrowed only when the chain-mean confidence interval excludes the
    observed value; an interval that straddles it ends the search at the
    current midpoint, with the interval width recorded in diagnostics and
    an ``inconclusive`` flag whenever the bracket is still wider than
    ``tol`` at that point.

    Boundary cases skip MCMC entirely: for matrices with nonnegative
    entries the attainable maximum of x'Qx is the total entry sum, and the
    minimum comes from a family closed form or enumeration when n <= 24.
    When the minimum is unknown (custom matrix, large n) existence is
    assumed as long as the pseudolikelihood-style strict bound holds and
    ``existence_assumed`` is flagged.

    Args:
        x: SpinConfiguration or +-1 vector.
        coupling: the coupling matrix.
        chains: independent chains per evaluation, at least 4.
        sweeps: post burn-in sweeps averaged per chain.
        burn_in: sweeps to discard (defaults per sampler policy).
        tol: bracket width at which to declare convergence.
        seed: master seed; chain c of evaluation k uses the derived
            stream hash(seed, k * chains + c).
        max_iter: total mean evaluations before giving up.
        z_crit: half-width multiplier for the exclusion test.
    """
    from .sampler import glauber_series

    if chains < 4:
        raise ParameterError("mle_stochastic needs at least 4 chains")
    _, t, s = _fields_and_stat(x, coupling)
    upper = float(coupling.entries.sum())
    guard = BOUNDARY_GUARD * max(1.0, upper)
    diagnostics = {"target": s, "b_n": upper}
    if s >= upper - guard:
        return EstimateResult(
            value=math.inf, exists=False, method="mle_stochastic",
            iterations=0, bracket=None, diagnostics=diagnostics,
        )
    lower = None
    if coupling.family in ("complete", "bipartite") or coupling.n <= 24:
        lower = suff_stat_bounds(coupling)[0]
    if lower is not None:
        diagnostics["a_n"] = lower
        if s <= lower + guard:
            return EstimateResult(
                value=-math.inf, exists=False, method="mle_stochastic",
                iterations=0, bracket=None, diagnostics=diagnostics,
            )
    else:
        sum_abs = float(np.sum(np.abs(t)))
        if s <= -sum_abs + guard:
            diagnostics["existence_heuristic"] = True
            return EstimateResult(
                value=-math.inf, exists=False, method="mle_stochastic",
                iterations=0, bracket=None, diagnostics=diagnostics,
            )
        diagnostics["existence_assumed"] = True

    trajectory = []

    def estimate_mean(theta, evaluation):
        means = np.empty(chains)
        for c in range(chains):
            stream = derive_seed(seed, evaluation * chains + c)
            suff, _ = glauber_series(
                coupling, theta, stream, samples=sweeps,
                burn_in=burn_in, init="random",
            )
            means[c] = suff.mean()
        err = float(means.std(ddof=1) / math.sqrt(chains))
        trajectory.append((float(theta), float(means.mean()), err))
        return float(means.mean()), err

    lo, hi = 0.0, 2.0
    iters = 0
    while iters < max_iter // 3:
        mean, err = estimate_mean(hi, iters)
        iters += 1
        if mean - z_crit * err > s:
            break
        hi *= 2.0
    while s < 0.0 and iters < 2 * max_iter // 3:
        mean, err = estimate_mean(lo, iters)
        iters += 1
        if mean + z_crit * err < s:
            break
        lo = 2.0 * lo - 1.0

    theta = 0.5 * (lo + hi)
    inconclusive = True
    while iters < max_iter:
        if hi - lo < tol:
            inconclusive = False
            break
        mean, err = estimate_mean(theta, iters)
        iters += 1
        if mean + z_crit * err < s:
            lo = theta
        elif mean - z_crit * err > s:
            hi = theta
        else:
            diagnostics["ci_width"] = 2.0 * z_crit * err
            inconclusive = hi - lo >= tol
            break
        theta = 0.5 * (lo + hi)
    if inconclusive:
        diagnostics["inconclusive"] = True
    diagnostics["trajectory"] = trajectory
    return EstimateResult(
        value=theta, exists=True, method="mle_stochastic", iterations=iters,
        bracket=(lo, hi), diagnostics=diagnostics,
    )


def mle_complete_large_n(n: int, plus_count: int) -> EstimateResult:
    """Exact complete-family MLE at any n from the +1 count alone.

    Solves on the binomial table complete_log_table(n), whose entries are
    the values n xbar^2 - 1 that x'Qx takes under the complete coupling.
    """
    if not 0 <= plus_count <= n:
        raise ParameterError("plus_count must lie in [0, n]")
    xbar = (2.0 * plus_count - n) / n
    return _table_mle(n * xbar * xbar - 1.0, *complete_log_table(n))
