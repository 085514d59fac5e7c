"""Exact oracles that only the tests read: the 2^n state law, its exact
one-sweep Glauber kernel, the conditional flip probability and the
enumerated sufficient-statistic pmf.

They build on the package's enumeration (``enumerate_suff_stats``,
``suff_stat_table``, ``tilted_table``); no package code calls them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ising_infer.coupling import CouplingMatrix
from ising_infer.errors import CapacityError, ParameterError
from ising_infer.sampler import enumerate_suff_stats, suff_stat_table, tilted_table

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


def enumerate_state_distribution(coupling: CouplingMatrix, theta: float) -> np.ndarray:
    """Normalized probability of every state code at ``theta`` (n <= 20)."""
    if coupling.n > STATE_LAW_MAX_N:
        raise CapacityError(f"state distributions are capped at n={STATE_LAW_MAX_N}")
    stats = enumerate_suff_stats(coupling)
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
