"""Point estimation of the inverse temperature.

Both estimates are roots of an equation increasing in theta, and the
package's one root finder solves them, ``special.solve_rows``: for any
number of rows at once it brackets by doubling outward from theta = 1 and
runs safeguarded Newton inside the bracket. Its ``iterations`` count the
bracket steps and Newton evaluations.

The pseudolikelihood estimate solves x'Qx = sum_i t_i tanh(theta t_i),
strictly increasing whenever any local field is nonzero (``_pl_rows``).
On a coupling with a count law the estimate depends on the atom (the
plus count of each class) alone, symmetrically under the global flip
k <-> m - k: ``mple_counts`` solves each distinct folded atom of an atom
array once.

The likelihood estimate solves dlog Z/dtheta = x'Qx / 2 (``_table_mle``)
on an exact table of sorted distinct x'Qx floats with log multiplicities
that the sampler caches; g' is Var(x'Qx)/4 under the same tilted
weights. ``_mle_table`` picks the table of a coupling and names its route:

* ``exact``: the count law's merged table of a block coupling under the
  atom cap, at any n, else the 2^n enumeration for n <= 24;
* ``plugin``: past both, for a regular coupling (coupling.regularity) that
  is dense (n * max entry at most PLUGIN_ENTRY_BOUND), the merged table of
  the complete coupling's count law of the same n. There log Z is the
  mean-field log Z plus an O(1) smooth term, while above theta = 1 its
  second derivative is of order n, so a plug-in root above
  PLUGIN_MIN_ROOT moves by O(1/n);
* none otherwise: a sparse regular graph's dropped term grows with n/d.

``mle_suff_stats`` solves each distinct value of a column of x'Qx once on
that table; ``mle_exact`` stays the one-configuration enumeration oracle.

Existence is decided before any iteration: the pseudolikelihood equation
has a real root iff -sum|t_i| < x'Qx < sum|t_i| strictly, and the
likelihood equation iff x'Qx lies strictly between the attainable extremes
of the sufficient statistic. Nonexistent estimates carry a signed infinity
and exists=False rather than raising. A plug-in statistic whose
complete-table root is missing or at most PLUGIN_MIN_ROOT (every s <= 0
among them), and every statistic without a table, is NaN with
exists=False: no estimate, not a claim that the MLE does not exist.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .coupling import CouplingMatrix, regularity
from .errors import NumericError
from .sampler import (
    ENUMERATION_MAX_N,
    CountLaw,
    SpinConfiguration,
    complete_law,
    count_law,
    suff_stat_table,
    tilted_table,
)
from .special import solve_rows

# The likelihood residual must be at most 1e-10, or MLE_RESIDUAL_ULPS rounding
# units of the table's range of x'Qx where that is coarser (complete family
# past n = 1760): there the O(n) log weights themselves round above 1e-10.
MLE_RESIDUAL = 1e-10
MLE_RESIDUAL_ULPS = 256
# solve_rows stops at a residual of special.RESIDUAL_SCALE times a row's
# scale: sum|t_i| for the pseudolikelihood, MLE_SCALE |s| for the
# likelihood. That is 1e-15 |s|, a few rounding units of s/2; where the
# tilted mean rounds coarser, the loop runs on until its bracket closes
MLE_SCALE = 1e-3
# Existence is an open-interval condition on quantities that arrive through
# floating point; a statistic within this relative distance of an attainable
# extreme is treated as sitting on it (the coupling entries themselves are
# rounded, so finer distinctions are noise).
BOUNDARY_GUARD = 1e-9
# The plug-in drops a log Z term that grows with kappa = n * max entry - 1
# (n/d - 1 on a d-regular graph) and whose derivative is O(1), so its root
# moves by O(1) / A''. It serves couplings with n * max entry at most
# PLUGIN_ENTRY_BOUND, the range its gap is measured on (bipartite and a
# random regular graph of degree n/2 sit at 2, qpartite q = 3 at 1.5), and
# only roots above PLUGIN_MIN_ROOT, the mean-field critical point: past it
# A'' grows with n, below it A'' is O(1) and the root would move by O(1).
PLUGIN_ENTRY_BOUND = 2.0
PLUGIN_MIN_ROOT = 1.0
# mple_counts solves its folded atoms this many rows at a time, so its
# working memory stays bounded however many atoms a law has
PL_BLOCK_ROWS = 1 << 15


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


class PLRows(NamedTuple):
    """Per-row outcome of _pl_rows; ``lo``/``hi`` is the final bracket."""

    value: np.ndarray
    exists: np.ndarray
    iterations: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    sum_abs: np.ndarray
    residual: np.ndarray


def _pl_rows(t, w, s) -> PLRows:
    """Pseudolikelihood estimates for rows of field values, weights, targets.

    Row i solves sum_j w_ij t_ij tanh(theta t_ij) = s_i. It has a root iff
    s_i lies strictly inside (-sum_j w_ij|t_ij|, sum_j w_ij|t_ij|); all-zero
    fields are the degenerate case (NaN), and other rows without a root get
    the signed infinity of s_i. The rows with a root go to solve_rows at
    scale sum_j w_ij|t_ij|.
    """
    t = np.asarray(t, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    sum_abs = np.add.reduce(w * np.abs(t), axis=1)
    tol = BOUNDARY_GUARD * np.maximum(1.0, sum_abs)
    exists = (sum_abs != 0.0) & (-sum_abs + tol < s) & (s < sum_abs - tol)
    value = np.where(s > 0.0, math.inf, -math.inf)
    value[sum_abs == 0.0] = math.nan
    iterations = np.zeros(s.size, dtype=np.int64)
    lo, hi, residual = (np.full(s.size, math.nan) for _ in range(3))

    # solve the rows with a root; g and g' form w*t and w*t*t before any
    # other product, so forming them once changes no bit
    idx = np.flatnonzero(exists)
    t = t[idx]
    wt = w[idx] * t
    wtt = wt * t

    def g(theta, rows):
        return np.add.reduce(wt[rows] * np.tanh(theta[:, None] * t[rows]), axis=1)

    def gprime(theta, rows):
        sech_sq = 1.0 / np.cosh(theta[:, None] * t[rows]) ** 2
        return np.add.reduce(wtt[rows] * sech_sq, axis=1)

    value[idx], iterations[idx], lo[idx], hi[idx], residual[idx] = solve_rows(
        g, gprime, s[idx], sum_abs[idx]
    )
    return PLRows(value, exists, iterations, lo, hi, sum_abs, residual)


def mple_counts(law: CountLaw, counts) -> PLRows:
    """MPLE for each atom in a 1-D integer array ``counts`` under a count law.

    Each atom's fields and x'Qx come from the law. An atom and its global
    flip give the same equation, so each distinct folded atom is one row,
    solved in _pl_rows calls of PL_BLOCK_ROWS rows and mirrored back to its
    atoms. Each row iterates on its own, so the blocks do not change a bit.
    Other input raises ParameterError.
    """
    k, inverse = law.fold(counts)
    blocks = [
        _pl_rows(*law.fields(part), law.values[part])
        for part in np.split(k, range(PL_BLOCK_ROWS, k.size, PL_BLOCK_ROWS))
    ]
    return PLRows(*(np.concatenate(column)[inverse] for column in zip(*blocks)))


def mple(x, coupling: CouplingMatrix | None = None) -> EstimateResult:
    """Maximum pseudolikelihood estimate of theta.

    Args:
        x: SpinConfiguration (preferred; carries local fields) or a +-1
           vector, checked against ``coupling`` (then required).
        coupling: matrix used to derive fields for raw spin input.

    The diagnostics record the attainable bound sum|t_i|, ``degenerate``
    for all-zero fields, the residual at the root, and whether the simple
    sign-pattern reading of the existence rule (all-plus or all-minus on
    the support of t) agrees with the boundary criterion actually used.
    """
    config = SpinConfiguration.of(x, coupling)
    spins, t, s = config.spins, config.local_fields, config.suff_stat()
    row = _pl_rows(t[None, :], np.ones((1, t.size)), [s])
    diagnostics = {"sum_abs_fields": float(row.sum_abs[0])}
    if row.sum_abs[0] == 0.0:
        diagnostics["degenerate"] = True
        return EstimateResult(math.nan, False, "mple", 0, None, diagnostics)
    exists = bool(row.exists[0])
    if exists:
        diagnostics["residual"] = float(row.residual[0])
    result = EstimateResult(
        value=float(row.value[0]), exists=exists, method="mple",
        iterations=int(row.iterations[0]),
        bracket=(float(row.lo[0]), float(row.hi[0])) if exists else None,
        diagnostics=diagnostics,
    )
    support = t != 0.0
    pattern_nonexistent = bool(
        np.all(spins[support] == 1) or np.all(spins[support] == -1)
    )
    if pattern_nonexistent == result.exists:
        result.diagnostics["existence_phrasings_disagree"] = True
        import logging

        logging.getLogger(__name__).info(
            "existence phrasings disagree: boundary=%s pattern=%s spins=%s",
            not result.exists, pattern_nonexistent,
            np.array2string(spins, max_line_width=200),
        )
    return result


def _exact_table(coupling: CouplingMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The sorted (x'Qx, log multiplicity) table of a count law or the enumeration."""
    law = count_law(coupling)
    if law is not None:
        return law.merged()
    values, counts = suff_stat_table(coupling)
    return values, np.log(counts)


def suff_stat_bounds(coupling: CouplingMatrix) -> tuple[float, float]:
    """Attainable (min, max) of x'Qx over all configurations.

    The ends of the count law's merged table, and of the exhaustive
    enumeration otherwise (n <= 24).
    """
    values = _exact_table(coupling)[0]
    return float(values[0]), float(values[-1])


def _table_mle(s: float, values: np.ndarray, log_mult: np.ndarray) -> EstimateResult:
    """Solve dlog Z/dtheta = s / 2 on a sorted exact (x'Qx, log multiplicity) table.

    The root exists iff s lies strictly between the table's ends. It is the
    one row of solve_rows, whose g' is Var(x'Qx)/4 under the weights of
    the same tilted pass as g, and the residual at the root must be at most
    1e-10 (or MLE_RESIDUAL_ULPS rounding units of the table's range).
    """
    a_n, b_n = float(values[0]), float(values[-1])
    diagnostics = {"a_n": a_n, "b_n": b_n}
    if not _inside_bounds(s, a_n, b_n):
        value = math.inf if s >= 0.5 * (a_n + b_n) else -math.inf
        return EstimateResult(value, False, "mle_exact", 0, None, diagnostics)
    tilt = [None]

    def mean(theta, rows):
        # the one row's tilted pass, kept for the slope at the same theta
        tilt[0] = tilted_table(values, log_mult, float(theta[0]))
        return np.array([tilt[0][1]])

    def variance(theta, rows):
        _, m, pmf = tilt[0]
        return np.array([pmf @ (0.5 * values - m) ** 2 for _ in rows])

    tol = max(MLE_RESIDUAL, MLE_RESIDUAL_ULPS * np.finfo(float).eps * (b_n - a_n))
    theta, iters, lo, hi, residual = solve_rows(
        mean, variance, np.array([0.5 * s]), np.array([MLE_SCALE * abs(s)])
    )
    residual = abs(float(residual[0]))
    if residual > tol:
        raise NumericError(f"likelihood residual {residual:.2e} above {tol:.2e}")
    diagnostics["residual"] = residual
    return EstimateResult(
        value=float(theta[0]), exists=True, method="mle_exact",
        iterations=int(iters[0]), bracket=(float(lo[0]), float(hi[0])),
        diagnostics=diagnostics,
    )


def mle_exact(x, coupling: CouplingMatrix) -> EstimateResult:
    """Maximum likelihood estimate from the enumeration table (n <= 24).

    ``x`` is a SpinConfiguration or a +-1 vector under ``coupling``.
    """
    s = SpinConfiguration.of(x, coupling).suff_stat()
    values, counts = suff_stat_table(coupling)
    return _table_mle(s, values, np.log(counts))


class MLERows(NamedTuple):
    """Per-statistic outcome of mle_suff_stats and the route it took.

    ``iterations`` is 0 and ``residual`` NaN without a root; ``route`` is
    ``exact``, ``plugin`` or None (no table).
    """

    value: np.ndarray
    exists: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray
    route: str | None


def _mle_table(coupling: CouplingMatrix) -> tuple | None:
    """(route, values, log_mult) of the table the MLE of ``coupling`` solves on.

    The count law, else the enumeration (n <= ENUMERATION_MAX_N), is
    ``exact``; past both a regular coupling with n * max entry at most
    PLUGIN_ENTRY_BOUND solves on complete_law(n), the ``plugin`` route. Any
    other coupling has no table: None.
    """
    if count_law(coupling) is not None or coupling.n <= ENUMERATION_MAX_N:
        return ("exact", *_exact_table(coupling))
    entry_bound = coupling.n * coupling.max_entry()
    dense = entry_bound <= PLUGIN_ENTRY_BOUND * (1.0 + BOUNDARY_GUARD)
    if dense and regularity(coupling)[1]:
        return ("plugin", *complete_law(coupling.n).merged())
    return None


def mle_suff_stats(coupling: CouplingMatrix, stats) -> MLERows:
    """MLE for each x'Qx in a 1-D array ``stats`` drawn on ``coupling``.

    Each distinct value is solved once on the table _mle_table picks. A
    plug-in value without a root above PLUGIN_MIN_ROOT, and every value
    without a table, is NaN and does not exist.
    """
    stats = np.asarray(stats, dtype=np.float64)
    table = _mle_table(coupling)
    if table is None:
        nan = np.full(stats.shape, math.nan)
        none = np.zeros(stats.shape, dtype=np.int64)
        return MLERows(nan, none.astype(bool), none, nan.copy(), None)
    route, values, log_mult = table
    targets, index = np.unique(stats, return_inverse=True)
    solved = [_table_mle(float(s), values, log_mult) for s in targets]
    value = np.array([r.value for r in solved], dtype=np.float64)
    exists = np.array([r.exists for r in solved], dtype=bool)
    iterations = np.array([r.iterations for r in solved], dtype=np.int64)
    residual = np.array(
        [r.diagnostics.get("residual", math.nan) for r in solved], dtype=np.float64
    )
    if route == "plugin":
        withheld = ~(exists & (value > PLUGIN_MIN_ROOT))
        value[withheld], exists[withheld] = math.nan, False
        iterations[withheld], residual[withheld] = 0, math.nan
    return MLERows(
        value[index], exists[index], iterations[index], residual[index], route
    )
