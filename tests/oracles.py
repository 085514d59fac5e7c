"""Oracles that only the tests read: the per-code x'Qx table, both the
package's half mirrored and a full doubling over all 2^n codes, the 2^n
state law, its exact one-sweep Glauber kernel, the conditional flip
probability, the enumerated sufficient-statistic pmf, the Monte Carlo
limiting power and the sample quantile.

They build on the package's enumeration (``enumerate_suff_stats``,
``suff_stat_table``, ``tilted_table``) and limit laws (``limit_power``,
``_limit_cutoff``, ``sample_mple_limit``, ``CriticalLaw``); no package
code calls them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ising_infer.coupling import CouplingMatrix
from ising_infer.errors import CapacityError, ParameterError
from ising_infer.htests import _limit_cutoff, limit_power
from ising_infer.sampler import enumerate_suff_stats, suff_stat_table, tilted_table
from ising_infer.streams import derive_seed
from ising_infer.theory import CriticalLaw, sample_mple_limit

# state-indexed laws and kernels hold 2^n floats, or 2^n x n spins
STATE_LAW_MAX_N = 20


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


def suff_stats_by_code(coupling: CouplingMatrix) -> np.ndarray:
    """x'Qx of every state code: the package's half table and its mirror."""
    half = enumerate_suff_stats(coupling)
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
