"""Oracles that only the tests read: the per-code x'Qx table, both a half
table mirrored and a full doubling over all 2^n codes, the 2^n
state law, its exact one-sweep Glauber kernel, the per-sweep Glauber
loop, the conditional flip probability, the enumerated sufficient-statistic
pmf, the Brent MLE on an unsorted table, the Brent critical MPLE limit
quantile, the Monte Carlo limiting power and the sample quantile.

They build on the package's enumeration (``_double``, ``suff_stat_table``,
``tilted_table``), Glauber start (``_initial_spins``) and limit laws
(``limit_power``, ``_limit_cutoff``, ``sample_mple_limit``, ``CriticalLaw``),
and on scipy's ``brentq``; no package code calls them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from ising_infer.coupling import CouplingMatrix
from ising_infer.errors import CapacityError, NumericError, ParameterError
from ising_infer.htests import _limit_cutoff, limit_power
from ising_infer.inference import (
    MLE_RESIDUAL,
    MLE_RESIDUAL_ULPS,
    EstimateResult,
    _inside_bounds,
)
from ising_infer.sampler import (
    ENUMERATION_MAX_N,
    _double,
    _initial_spins,
    suff_stat_table,
    tilted_table,
)
from ising_infer.streams import derive_seed
from ising_infer.theory import CriticalLaw, mple_limit_sf, sample_mple_limit

# state-indexed laws and kernels hold 2^n floats, or 2^n x n spins
STATE_LAW_MAX_N = 20
#: Codes per scratch chunk of the half table's last step
HALF_TABLE_CHUNK = 1 << 14


@dataclass(frozen=True)
class EnumerationResult:
    """Exact partition data at one inverse temperature.

    suff_stat_pmf maps attainable x'Qx values (keys rounded to 10 decimal
    places) to exact probabilities; log_z and dlog_z are computed from the
    unrounded enumeration.
    """

    n: int
    theta: float
    log_z: float
    dlog_z: float
    suff_stat_pmf: dict


def exact_enumerate(coupling: CouplingMatrix, theta: float) -> EnumerationResult:
    """Exact log_z, dlog_z and sufficient-statistic pmf at ``theta`` (n <= 24)."""
    values, counts = suff_stat_table(coupling)
    log_z, dlog_z, probs = tilted_table(values, np.log(counts), theta)
    pmf: dict = {}
    for v, p in zip(np.round(values, 10), probs):
        pmf[v] = pmf.get(v, 0.0) + float(p)
    return EnumerationResult(
        n=coupling.n, theta=theta, log_z=log_z, dlog_z=dlog_z, suff_stat_pmf=pmf
    )


def half_suff_stats(coupling: CouplingMatrix) -> np.ndarray:
    """x'Qx for the 2^(n-1) configurations with spin n-1 at -1, by bit code.

    The oracle of ``enumerate_suff_stats``, which must fold exactly these
    floats.

    State code s encodes spin i as +1 when bit i of s is set, so these are
    the codes s < 2^(n-1). Code 2^n - 1 - s, the global flip of s, has the
    same value bit for bit, so the table over all 2^n codes is
    ``np.concatenate((half, half[::-1]))``.

    The table is built by doubling over the spins: after step k,
    ``out[:2^(k+1)]`` holds x'Qx over spins 0..k for each code. Step k
    builds g(s) = 2 sum_{i<k} Q(i, k) x_i(s) for the 2^k codes of the lower
    spins (``_double``) and sets out[m:2m] = out[:m] + g and out[:m] -= g,
    m = 2^k. Q has a zero diagonal, so no Q(k, k) term enters. Each step is
    one correctly rounded IEEE add per code with no BLAS call, so the table
    does not depend on the BLAS kernel or thread count. g is antisymmetric
    under the flip and each earlier table symmetric, which makes the flip
    symmetry exact; so the last step, k = n-1, only computes out[:m] -= g.

    Only the memory layout differs from a full 2^n doubling, not the adds:
    for k < n-1, g is built in the still-unwritten out[m:2m] and combined
    through a chunk of scratch. The last g is built depth-first in chunks of
    HALF_TABLE_CHUNK codes: the low spins are doubled into one base chunk,
    and each higher spin is added into a chunk buffer of its own. That is
    about 3.5 * 2^n adds, and memory of the 2^(n-1) floats of the table
    plus max(1, n - 14) chunks (1.3 MB at n = 24).
    """
    n = coupling.n
    if n > ENUMERATION_MAX_N:
        raise CapacityError(
            f"exact enumeration is capped at n={ENUMERATION_MAX_N}, got {n}"
        )
    if n < 1:
        raise ParameterError("exact enumeration needs n >= 1")
    half = 1 << (n - 1)
    out = np.empty(half, dtype=np.float64)
    out[0] = 0.0
    q2 = 2.0 * coupling.entries
    chunk = min(half, HALF_TABLE_CHUNK)
    low = chunk.bit_length() - 1  # the spins a chunk's codes range over
    # levels[0] is the combine scratch, then the base chunk of the last g;
    # levels[j] adds spin low+j-1 to it
    levels = np.empty((n - low, chunk), dtype=np.float64)
    for k in range(n - 1):
        m = 1 << k
        g = out[m : 2 * m]
        _double(g, q2[:k, k])
        w = min(chunk, m)
        tmp = levels[0, :w]
        for c in range(0, m, w):
            np.copyto(tmp, g[c : c + w])
            np.add(out[c : c + w], tmp, out=g[c : c + w])
            out[c : c + w] -= tmp
    q = q2[: n - 1, n - 1]
    _double(levels[0], q[:low])

    def descend(j: int, start: int) -> None:
        if j == n - 1 - low:
            out[start : start + chunk] -= levels[j]
            return
        np.subtract(levels[j], q[low + j], out=levels[j + 1])
        descend(j + 1, start)
        np.add(levels[j], q[low + j], out=levels[j + 1])
        descend(j + 1, start + (chunk << j))

    descend(0, 0)
    return out


def suff_stats_by_code(coupling: CouplingMatrix) -> np.ndarray:
    """x'Qx of every state code: the half table and its mirror."""
    half = half_suff_stats(coupling)
    return np.concatenate((half, half[::-1]))


def doubling_suff_stats(coupling: CouplingMatrix) -> np.ndarray:
    """x'Qx of every state code by a doubling over all 2^n codes.

    The per-code order of adds is the package's, in a full 2^n table with
    a 2^(n-1) buffer of g: step k builds g(s) = 2 sum_{i<k} Q(i, k) x_i(s)
    (g[w:2w] = g[:w] + 2Q(i, k), then g[:w] -= 2Q(i, k), w = 2^i), then
    sets out[m:2m] = out[:m] + g and out[:m] -= g, m = 2^k.
    """
    n = coupling.n
    out = np.empty(1 << n, dtype=np.float64)
    out[0] = 0.0
    field = np.empty(1 << max(n - 1, 0), dtype=np.float64)
    q2 = 2.0 * coupling.entries
    for k in range(n):
        m = 1 << k
        g = field[:m]
        g[0] = 0.0
        for i in range(k):
            w = 1 << i
            np.add(g[:w], q2[i, k], out=g[w : 2 * w])
            g[:w] -= q2[i, k]
        np.add(out[:m], g, out=out[m : 2 * m])
        out[:m] -= g
    return out


def brent_table_mle(s: float, values, log_mult) -> EstimateResult:
    """Solve dlog Z/dtheta = s / 2 on an (x'Qx, log multiplicity) table in any order.

    The oracle of ``inference._table_mle``. The root exists iff s lies
    strictly between the table's min and max. Brent runs on a bracket
    doubled outward from (-1, 1), to xtol 1e-14 and rtol 8.9e-16, and the
    residual at the root must be at most the package's likelihood bound.
    """
    a_n, b_n = float(values.min()), float(values.max())
    diagnostics = {"a_n": a_n, "b_n": b_n}
    if not _inside_bounds(s, a_n, b_n):
        value = math.inf if s >= 0.5 * (a_n + b_n) else -math.inf
        return EstimateResult(value, False, "mle_exact", 0, None, diagnostics)
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
    return EstimateResult(value, True, "mle_exact", iters, (lo, hi), diagnostics)


def brent_limit_quantile(p: float, h: float, limit_eigs, kappa: float) -> float:
    """The level-p quantile of the critical MPLE limit, by Brent's method.

    The oracle of ``theory.mple_limit_quantile``: the root of
    mple_limit_sf(., h) = 1 - p, on a bracket doubled outward from (-1, 1),
    to xtol 1e-15.
    """
    def excess(v):
        return mple_limit_sf(v, h, limit_eigs, kappa) - (1.0 - p)

    lo, hi = -1.0, 1.0
    while excess(lo) <= 0.0:
        lo *= 2.0
    while excess(hi) >= 0.0:
        hi *= 2.0
    return brentq(excess, lo, hi, xtol=1e-15)


def per_sweep_run_sweeps(entries, theta, spins, t, sweeps, rng) -> None:
    """``sweeps`` systematic-scan sweeps, updating ``spins`` and ``t`` in place.

    The reference loop of the package's ``_run_sweeps``: one ``random(n)``
    and one ``arctanh`` pass per sweep, where the package maps a block of
    sweeps at once.

    Site i turns +1 when its uniform u falls below its conditional
    probability P(x_i = +1 | rest) = (1 + tanh(theta t_i)) / 2, that is when
    atanh(2u - 1) < theta t_i. Each sweep maps its ``random(n)`` to the
    thresholds g = atanh(2u - 1) in one numpy pass; 2u - 1 is exact on the
    2^-53 grid of u, and u = 0 gives g = -inf, so that site turns +1 as the
    exact rule says. The loop compares each g with 2 theta times the halved
    field, read through a memoryview as a Python float. The fields stay halved
    during the sweeps, so a flip of site i is one in-place
    ``t += entries[i]`` or ``t -= entries[i]``: Q is symmetric, so row i is
    column i, and nothing is allocated. Halving changes no bit while every
    half is normal or zero, which holds whenever the nonzero entries are at
    least 2^-969 (fl(t + 2q) = 2 fl(t/2 + q), and 2 theta t/2 is theta t).

    Neither numpy's ``arctanh`` (its SIMD kernels are within about 4 ulp)
    nor ``tanh`` is taken as correctly rounded. With v = 2u - 1 and
    |atanh(v)| (1 - v^2) < 0.45, a threshold off by 4 ulp moves the
    decision only for u within 1.8 * 2^-53 of the exact probability, and
    the rounded probability of the numpy-tanh rule only for u within 2^-53
    of it. So the two rules can differ on at most four grid points of u:
    probability at most 2^-51 per site update.
    """
    field, theta2 = memoryview(t), 2.0 * theta
    s = spins.tolist()
    n = len(s)
    t *= 0.5
    with np.errstate(divide="ignore"):
        for _ in range(sweeps):
            g = rng.random(n)
            g *= 2.0
            g -= 1.0
            # both iterators read as the scan reaches site i, so f sees the
            # flips made earlier in the sweep; only site i writes s[i]
            for i, gi, f, si in zip(range(n), np.arctanh(g, out=g).tolist(), field, s):
                if gi < theta2 * f:
                    if si < 0:
                        s[i] = 1
                        t += entries[i]
                elif si > 0:
                    s[i] = -1
                    t -= entries[i]
    t *= 2.0
    spins[:] = s


def per_sweep_glauber_sample(
    coupling: CouplingMatrix, theta: float, rng: np.random.Generator, sweeps: int, init
) -> np.ndarray:
    """The spins of ``glauber_sample`` by the per-sweep loop, drawn from ``rng``."""
    spins = _initial_spins(coupling.n, init, rng)
    t = coupling.local_fields(spins)
    per_sweep_run_sweeps(coupling.entries, float(theta), spins, t, sweeps, rng)
    return spins


def enumerate_state_distribution(coupling: CouplingMatrix, theta: float) -> np.ndarray:
    """Normalized probability of every state code at ``theta`` (n <= 20)."""
    if coupling.n > STATE_LAW_MAX_N:
        raise CapacityError(f"state distributions are capped at n={STATE_LAW_MAX_N}")
    stats = suff_stats_by_code(coupling)
    return tilted_table(stats, np.zeros_like(stats), theta)[2]


def flip_probability(theta: float, t) -> np.ndarray | float:
    """P(X_i = +1 | rest) = e^{theta t}/(e^{theta t} + e^{-theta t})."""
    return 0.5 * (1.0 + np.tanh(theta * np.asarray(t, dtype=np.float64)))


def glauber_sweep_kernel(
    coupling: CouplingMatrix, theta: float, pi: np.ndarray
) -> np.ndarray:
    """Apply the exact one-sweep transition kernel to a state distribution.

    States are bit codes as in enumerate_suff_stats. Used to assert exact
    stationarity of the enumerated Gibbs law at small n.
    """
    n = coupling.n
    if n > STATE_LAW_MAX_N:
        raise CapacityError(f"exact kernels are capped at n={STATE_LAW_MAX_N}")
    total = 1 << n
    if pi.shape != (total,):
        raise ParameterError("distribution length must be 2^n")
    bits = np.arange(n, dtype=np.int64)
    idx = np.arange(total, dtype=np.int64)
    x = (((idx[:, None] >> bits) & 1) * 2 - 1).astype(np.float64)
    out = pi.astype(np.float64).copy()
    for i in range(n):
        t_i = x @ coupling.entries[:, i]
        p_plus = 0.5 * (1.0 + np.tanh(theta * t_i))
        own = np.where(x[:, i] > 0, p_plus, 1.0 - p_plus)
        out = (out + out[idx ^ (1 << i)]) * own
    return out


def asymptotic_power(
    kind: str,
    theta0: float,
    h: float,
    alpha: float,
    *,
    limit_eigs=None,
    kappa: float | None = None,
    reps: int = 1_000_000,
    seed: int = 1729,
) -> tuple[float, float]:
    """Limiting power against theta0 + h/sqrt(n), with its MC standard error.

    The Monte Carlo oracle of limit_power. Critical pl draws ``reps``
    ratio-law values at h from derive_seed(seed, 0) and reports the
    fraction above the _limit_cutoff null quantile with its binomial
    standard error; every other case is (limit_power(...), 0.0).
    """
    # limit_power also checks the arguments
    exact = limit_power(kind, theta0, h, alpha, limit_eigs=limit_eigs, kappa=kappa)
    if kind != "pl" or theta0 != 1.0:
        return exact, 0.0
    cut = _limit_cutoff(kind, theta0, alpha, lambda: (limit_eigs, kappa))
    draws = sample_mple_limit(h, limit_eigs, kappa, reps, derive_seed(seed, 0))
    power = float(np.mean(draws > cut))
    stderr = math.sqrt(max(power * (1.0 - power), 0.0) / reps)
    return power, stderr


def law_quantile(law_or_samples, p: float) -> float:
    """Left-continuous quantile of a CriticalLaw table or a sample array.

    Tables interpolate monotonically; samples return the ceil(p*N) order
    statistic.
    """
    if not 0.0 < p < 1.0:
        raise ParameterError("quantile levels must lie strictly in (0, 1)")
    if isinstance(law_or_samples, CriticalLaw):
        return float(law_or_samples.quantile(p))
    samples = np.sort(np.asarray(law_or_samples, dtype=np.float64))
    if samples.size == 0:
        raise ParameterError("cannot take a quantile of an empty sample")
    rank = math.ceil(p * samples.size)
    return float(samples[max(rank, 1) - 1])
