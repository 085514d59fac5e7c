"""Samplers and exact partition-function evaluators for the Ising models.

Three sampling routes with different validity/scale trade-offs:

* exact enumeration of all 2^n configurations (n <= 24), which is the
  ground-truth oracle for everything else;
* single-site Glauber dynamics with a systematic scan, valid for every
  coupling; each returned configuration carries local fields recomputed
  from its spins;
* the auxiliary-field decomposition of the mean-field (complete) model,
  which is exact and runs in O(n) per draw at any n, so the large-n
  critical experiments never touch a matrix.

Every exactly summable model is one table of attainable x'Qx values with
log multiplicities: the 2^n enumeration for n <= 24 (``log_table``) and,
for the complete family at any n, the binomial table over the +1 count
(``complete_log_table``). ``tilted_table`` turns a table into log Z, its
derivative and the tilted pmf; ``exact_enumerate`` and the mean-field
``cw_log_partition``/``cw_dlog_partition`` are thin callers of it, and the
exact MLE solves on the same tables. The tables are in matrix convention;
the mean-field nx̄²/2 convention differs from it by exactly theta/2.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammaln

from .coupling import CouplingMatrix
from .errors import CapacityError, ParameterError
from .streams import as_generator, substream

ENUMERATION_MAX_N = 24
CW_PARTITION_MAX_N = 10_000_000
FIELD_CONSISTENCY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SpinConfiguration:
    """A +-1 configuration with cached local fields.

    ``local_fields[i]`` always equals sum_j Q(i,j)*spins[j] for the coupling
    the configuration was generated under; ``check`` re-derives the fields
    and enforces consistency to 1e-12.
    """

    spins: np.ndarray
    local_fields: np.ndarray
    xbar: float

    @classmethod
    def from_spins(cls, spins, coupling: CouplingMatrix) -> "SpinConfiguration":
        s = _as_spins(spins)
        if s.shape[0] != coupling.n:
            raise ParameterError("spin vector length does not match coupling")
        t = coupling.entries @ s.astype(np.float64)
        return cls.from_parts(s, t)

    @classmethod
    def from_parts(cls, spins, local_fields) -> "SpinConfiguration":
        s = _as_spins(spins)
        t = np.asarray(local_fields, dtype=np.float64).copy()
        s.flags.writeable = False
        t.flags.writeable = False
        return cls(spins=s, local_fields=t, xbar=float(s.mean()))

    @property
    def n(self) -> int:
        return self.spins.shape[0]

    def suff_stat(self) -> float:
        """x'Qx, via the cached fields (x'Qx = sum_i x_i t_i)."""
        return float(self.spins @ self.local_fields)

    def check(self, coupling: CouplingMatrix) -> None:
        t = coupling.entries @ self.spins.astype(np.float64)
        err = float(np.max(np.abs(t - self.local_fields))) if self.n else 0.0
        if err > FIELD_CONSISTENCY_TOL:
            raise ParameterError(
                f"cached local fields deviate by {err:.3e} (tol 1e-12)"
            )


def _as_spins(values) -> np.ndarray:
    s = np.asarray(values)
    if not np.all(np.abs(s) == 1):
        raise ParameterError("spins must be +-1")
    return s.astype(np.int8).copy()


@dataclass(frozen=True)
class AuxiliaryMagnetization:
    """The latent Gaussian field behind one auxiliary-sampler draw."""

    phi: float
    n: int
    theta: float


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

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "theta": self.theta,
            "log_z": self.log_z,
            "dlog_z": self.dlog_z,
            "suff_stat_pmf": {f"{k:.10f}": v for k, v in self.suff_stat_pmf.items()},
        }


def _check_enumerable(n: int) -> None:
    if n > ENUMERATION_MAX_N:
        raise CapacityError(
            f"exact enumeration is capped at n={ENUMERATION_MAX_N}, got {n}"
        )


def enumerate_suff_stats(coupling: CouplingMatrix) -> np.ndarray:
    """Return x'Qx for every configuration, indexed by the state's bit code.

    State code s encodes spin i as +1 when bit i of s is set. Evaluation is
    chunked so memory stays flat regardless of n.
    """
    n = coupling.n
    _check_enumerable(n)
    total = 1 << n
    out = np.empty(total, dtype=np.float64)
    bits = np.arange(n, dtype=np.int64)
    q = coupling.entries
    chunk = 1 << min(n, 14)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        x = (((idx[:, None] >> bits) & 1) * 2 - 1).astype(np.float64)
        out[start : start + idx.shape[0]] = np.einsum("ij,ij->i", x @ q, x)
    return out


def suff_stat_table(coupling: CouplingMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Unique attainable x'Qx values with multiplicities."""
    values, counts = np.unique(enumerate_suff_stats(coupling), return_counts=True)
    return values, counts


def log_table(
    coupling: CouplingMatrix, table: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(attainable x'Qx, log multiplicity) from the 2^n enumeration (n <= 24).

    ``table`` is an optional precomputed suff_stat_table(coupling).
    """
    _check_enumerable(coupling.n)
    values, counts = suff_stat_table(coupling) if table is None else table
    return values, np.log(counts)


@lru_cache(maxsize=4)
def complete_log_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(x'Qx, log multiplicity) of the complete coupling, one entry per +1 count.

    k plus spins give x'Qx = n xbar^2 - 1 with xbar = (2k - n)/n, in C(n, k)
    configurations. The arrays are cached per n and read-only.
    """
    if n < 1 or n > CW_PARTITION_MAX_N:
        raise CapacityError(f"n must lie in [1, {CW_PARTITION_MAX_N}]")
    k = np.arange(n + 1, dtype=np.float64)
    xbar = (2.0 * k - n) / n
    values = n * xbar * xbar - 1.0
    log_mult = gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)
    values.flags.writeable = False
    log_mult.flags.writeable = False
    return values, log_mult


def tilted_table(
    values: np.ndarray, log_mult: np.ndarray, theta: float
) -> tuple[float, float, np.ndarray]:
    """log Z, dlog Z/dtheta and the probability of each table entry at ``theta``.

    Z(theta) = sum over entries of exp(log_mult + theta * value / 2), and
    dlog Z/dtheta is the tilted mean of value / 2. The weights are shifted
    by their maximum and normalized by their own sum.
    """
    logw = 0.5 * theta * values + log_mult
    shift = logw.max()
    w = np.exp(logw - shift)
    total = w.sum()
    return float(shift + np.log(total)), float(0.5 * (values @ w) / total), w / total


def exact_enumerate(
    coupling: CouplingMatrix,
    theta: float,
    table: tuple[np.ndarray, np.ndarray] | None = None,
) -> EnumerationResult:
    """Exact log_z, dlog_z and sufficient-statistic pmf at ``theta``.

    Args:
        coupling: the coupling matrix, n <= 24.
        theta: inverse temperature (any finite real).
        table: optional precomputed suff_stat_table, reused across calls.
    """
    values, log_mult = log_table(coupling, table)
    log_z, dlog_z, probs = tilted_table(values, log_mult, theta)
    pmf: dict = {}
    for v, p in zip(np.round(values, 10), probs):
        pmf[v] = pmf.get(v, 0.0) + float(p)
    return EnumerationResult(
        n=coupling.n, theta=theta, log_z=log_z, dlog_z=dlog_z, suff_stat_pmf=pmf
    )


def enumerate_state_distribution(coupling: CouplingMatrix, theta: float) -> np.ndarray:
    """Normalized probability of every state code at ``theta`` (n <= 20)."""
    if coupling.n > 20:
        raise CapacityError("state distributions are capped at n=20")
    stats = enumerate_suff_stats(coupling)
    return tilted_table(stats, np.zeros_like(stats), theta)[2]


# ---------------------------------------------------------------------------
# Glauber dynamics


def flip_probability(theta: float, t) -> np.ndarray | float:
    """P(X_i = +1 | rest) = e^{theta t}/(e^{theta t} + e^{-theta t})."""
    return 0.5 * (1.0 + np.tanh(theta * np.asarray(t, dtype=np.float64)))


def default_burn_in(n: int, theta: float) -> int:
    """Sweep count before samples are trusted: 10n, or 50n past theta=1.2."""
    return 50 * n if theta > 1.2 else 10 * n


def _initial_spins(n: int, init, rng: np.random.Generator) -> np.ndarray:
    if init is None or init == "random":
        return (rng.integers(0, 2, size=n) * 2 - 1).astype(np.int8)
    if init == "plus":
        return np.ones(n, dtype=np.int8)
    if init == "minus":
        return -np.ones(n, dtype=np.int8)
    return _as_spins(init)


def _run_sweeps(entries, theta, spins, t, sweeps, rng) -> None:
    n = spins.shape[0]
    for _ in range(sweeps):
        u = rng.random(n)
        for i in range(n):
            p = 0.5 * (1.0 + np.tanh(theta * t[i]))
            new = 1 if u[i] < p else -1
            if new != spins[i]:
                spins[i] = new
                t += (2.0 * new) * entries[:, i]


def glauber_sample(
    coupling: CouplingMatrix,
    theta: float,
    seed,
    *,
    sweeps: int | None = None,
    init=None,
) -> SpinConfiguration:
    """One configuration after ``sweeps`` full systematic-scan sweeps.

    ``sweeps`` defaults to default_burn_in(n, theta). ``init`` is "random"
    (default), "plus", "minus", or an explicit +-1 vector; replication-level
    sign stratification at low temperature is the caller's concern.
    """
    rng = as_generator(seed)
    n = coupling.n
    if sweeps is None:
        sweeps = default_burn_in(n, theta)
    spins = _initial_spins(n, init, rng)
    t = coupling.entries @ spins.astype(np.float64)
    _run_sweeps(coupling.entries, theta, spins, t, sweeps, rng)
    # fresh fields, so statistics agree with those computed from the spins
    return SpinConfiguration.from_spins(spins, coupling)


def glauber_series(
    coupling: CouplingMatrix,
    theta: float,
    seed,
    *,
    samples: int,
    burn_in: int | None = None,
    init=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sweep (x'Qx, xbar) series after burn-in, one entry per sweep."""
    rng = as_generator(seed)
    n = coupling.n
    if burn_in is None:
        burn_in = default_burn_in(n, theta)
    spins = _initial_spins(n, init, rng)
    t = coupling.entries @ spins.astype(np.float64)
    _run_sweeps(coupling.entries, theta, spins, t, burn_in, rng)
    suff = np.empty(samples)
    xbar = np.empty(samples)
    for k in range(samples):
        _run_sweeps(coupling.entries, theta, spins, t, 1, rng)
        suff[k] = float(spins @ t)
        xbar[k] = float(spins.mean())
    return suff, xbar


def glauber_sweep_kernel(
    coupling: CouplingMatrix, theta: float, pi: np.ndarray
) -> np.ndarray:
    """Apply the exact one-sweep transition kernel to a state distribution.

    States are bit codes as in enumerate_suff_stats. Used to assert exact
    stationarity of the enumerated Gibbs law at small n.
    """
    n = coupling.n
    if coupling.n > 20:
        raise CapacityError("exact kernels are capped at n=20")
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


# ---------------------------------------------------------------------------
# Mean-field (complete family) machinery


def cw_log_partition(n: int, theta: float) -> float:
    """log sum_x exp(n*theta*xbar^2/2), from the complete family's table.

    This is the nx̄²/2 convention: the table's matrix-convention log Z plus
    theta/2.
    """
    if theta < 0:
        raise ParameterError("theta must be nonnegative")
    return tilted_table(*complete_log_table(n), theta)[0] + 0.5 * theta


def cw_dlog_partition(n: int, theta: float) -> float:
    """d/dtheta of cw_log_partition: the tilted mean of n*xbar^2/2."""
    return tilted_table(*complete_log_table(n), theta)[1] + 0.5


def mean_field_rate(theta: float, phi) -> np.ndarray | float:
    """The large-deviation rate q(phi) = theta*phi^2/2 - log cosh(theta*phi)."""
    tp = theta * np.asarray(phi, dtype=np.float64)
    # log cosh without overflow: |x| + log1p(exp(-2|x|)) - log 2
    abs_tp = np.abs(tp)
    log_cosh = abs_tp + np.log1p(np.exp(-2.0 * abs_tp)) - np.log(2.0)
    return 0.5 * theta * np.asarray(phi) ** 2 - log_cosh


@dataclass(frozen=True, eq=False)
class AuxiliaryFieldGrid:
    """Tabulated density of the auxiliary magnetization field.

    phi / density / cdf are parallel arrays; density is the unnormalized
    e^{-n q(phi)} rescaled so its maximum is 1, cdf is normalized. Support
    splits into two islands past the phase transition; ``segments`` holds
    (start, stop) index pairs, and sampling is inverse-CDF per island.
    """

    n: int
    theta: float
    phi: np.ndarray
    density: np.ndarray
    cdf: np.ndarray
    segments: tuple

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        u = rng.random(size if size is not None else 1)
        out = np.interp(u, self.cdf, self.phi)
        return out if size is not None else float(out[0])

    def moment(self, k: int) -> float:
        pdf = self.density / np.trapezoid(self.density, self.phi)
        return float(np.trapezoid(self.phi**k * pdf, self.phi))


def phi_density_grid(
    n: int, theta: float, grid_points: int = 4096
) -> AuxiliaryFieldGrid:
    """Tabulate the auxiliary-field density exp(-n q(phi)) for sampling.

    The support is cut where the density falls below e^{-40} of its peak
    (relative mass below 1e-14), grid points are spent only on the
    high-mass islands, and the CDF is a cumulative trapezoid per island.

    Args:
        n: number of spins (n >= 1).
        theta: inverse temperature, strictly positive.
        grid_points: total tabulation points, at least 256.
    """
    if theta <= 0:
        raise ParameterError("the auxiliary decomposition needs theta > 0")
    if grid_points < 256:
        raise ParameterError("grid_points must be at least 256")
    if n < 1:
        raise ParameterError("n must be positive")
    cut = 40.0 / n
    mode = _rate_minimizer(theta)
    q_min = float(mean_field_rate(theta, mode))

    def excess(phi):
        return float(mean_field_rate(theta, phi)) - q_min - cut

    hi = max(2.0 * mode, 1.0)
    while excess(hi) < 0:
        hi *= 2.0
    outer = brentq(excess, mode, hi, xtol=1e-15)
    two_islands = mode > 0 and (float(mean_field_rate(theta, 0.0)) - q_min) > cut
    if two_islands:
        inner = brentq(excess, 0.0, mode, xtol=1e-15)
        half = grid_points // 2
        right = np.linspace(inner, outer, half)
        phi = np.concatenate([-right[::-1], right])
        segments = ((0, half), (half, 2 * half))
    else:
        phi = np.linspace(-outer, outer, grid_points)
        segments = ((0, grid_points),)

    log_density = -n * np.asarray(mean_field_rate(theta, phi))
    log_density -= log_density.max()
    density = np.exp(log_density)
    cdf = np.zeros_like(phi)
    total = 0.0
    for start, stop in segments:
        seg = np.concatenate(
            [[0.0], np.cumsum(np.diff(phi[start:stop]) * 0.5
                              * (density[start:stop][1:] + density[start:stop][:-1]))]
        )
        cdf[start:stop] = total + seg
        total += seg[-1]
    cdf /= total
    return AuxiliaryFieldGrid(
        n=n, theta=theta, phi=phi, density=density, cdf=cdf, segments=segments
    )


def _rate_minimizer(theta: float) -> float:
    """Location of the positive minimizer of the rate (0 when theta <= 1)."""
    if theta <= 1:
        return 0.0
    return brentq(
        lambda x: x - np.tanh(theta * x), 1e-12, 1.0, xtol=1e-16, rtol=8.9e-16
    )


def complete_local_fields(spins: np.ndarray) -> np.ndarray:
    """Local fields t_i = xbar - x_i/n under the complete coupling."""
    x = np.asarray(spins, dtype=np.float64)
    return x.mean() - x / x.shape[0]


def cw_aux_sample(
    n: int,
    theta: float,
    seed,
    grid: AuxiliaryFieldGrid | None = None,
) -> tuple[SpinConfiguration, AuxiliaryMagnetization]:
    """Exact draw from the complete-coupling model via the auxiliary field.

    Draw phi from its marginal (inverse CDF on the tabulated grid), then
    spins i.i.d. with P(X_j = +1 | phi) = e^{theta phi}/(2 cosh(theta phi)).
    The returned configuration carries complete-family local fields.

    Args:
        n: number of spins.
        theta: inverse temperature, strictly positive.
        seed: int seed or Generator.
        grid: optional reusable phi_density_grid(n, theta).
    """
    rng = as_generator(seed)
    if grid is None:
        grid = phi_density_grid(n, theta)
    elif grid.n != n or grid.theta != theta:
        raise ParameterError("grid was tabulated for different (n, theta)")
    phi = float(grid.sample(rng))
    p_plus = 0.5 * (1.0 + np.tanh(theta * phi))
    spins = np.where(rng.random(n) < p_plus, 1, -1).astype(np.int8)
    config = SpinConfiguration.from_parts(spins, complete_local_fields(spins))
    return config, AuxiliaryMagnetization(phi=phi, n=n, theta=theta)


def cw_aux_counts(
    n: int,
    theta: float,
    master_seed: int,
    reps: int,
    grid: AuxiliaryFieldGrid | None = None,
    index_offset: int = 0,
    *,
    tie_breaks: bool = False,
) -> tuple[np.ndarray, ...]:
    """Plus-spin counts and fields for many replications, one stream each.

    Replication r consumes substream(master_seed, index_offset + r): one
    uniform for phi, one binomial for the count of +1 spins. Everything a
    complete-family statistic needs is a function of that count, so the
    batch path is distribution-identical to cw_aux_sample per replication.

    With ``tie_breaks`` each replication then draws one more uniform from
    its stream, returned as a third array (the randomized tests' tie-break);
    it comes after the draw, so phis and counts are unchanged.
    """
    if grid is None:
        grid = phi_density_grid(n, theta)
    phis = np.empty(reps)
    counts = np.empty(reps, dtype=np.int64)
    uniforms = np.empty(reps) if tie_breaks else None
    for r in range(reps):
        rng = substream(master_seed, index_offset + r)
        phi = float(grid.sample(rng))
        p_plus = 0.5 * (1.0 + np.tanh(theta * phi))
        phis[r] = phi
        counts[r] = rng.binomial(n, p_plus)
        if tie_breaks:
            uniforms[r] = rng.random()
    if tie_breaks:
        return phis, counts, uniforms
    return phis, counts


# ---------------------------------------------------------------------------
# Sample dumps

DUMP_COLUMNS = ("seed", "n", "theta", "xbar", "xqx", "xbx", "xb2x", "spins")


def encode_spins(spins: np.ndarray) -> str:
    return "".join("+" if s > 0 else "-" for s in spins)


def decode_spins(text: str) -> np.ndarray:
    if not text or set(text) - {"+", "-"}:
        raise ParameterError("spin strings must be nonempty over '+'/'-'")
    return np.array([1 if c == "+" else -1 for c in text], dtype=np.int8)


def write_sample_dump(path, rows) -> None:
    """Write replication rows as CSV with the DUMP_COLUMNS header.

    Each row is a mapping with keys matching DUMP_COLUMNS; floats are
    rendered with 17 significant digits.
    """
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(DUMP_COLUMNS)
        for row in rows:
            spins = row["spins"]
            if not isinstance(spins, str):
                spins = encode_spins(np.asarray(spins))
            writer.writerow(
                [
                    row["seed"],
                    row["n"],
                    f"{row['theta']:.17g}",
                    f"{row['xbar']:.17g}",
                    f"{row['xqx']:.17g}",
                    f"{row['xbx']:.17g}",
                    f"{row['xb2x']:.17g}",
                    spins,
                ]
            )


def read_sample_dump(path) -> list:
    """Parse a sample dump back into a list of dicts (spins decoded)."""
    out = []
    with open(path, "r", newline="", encoding="ascii") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != DUMP_COLUMNS:
            raise ParameterError(f"expected columns {DUMP_COLUMNS}")
        for rec in reader:
            out.append(
                {
                    "seed": int(rec["seed"]),
                    "n": int(rec["n"]),
                    "theta": float(rec["theta"]),
                    "xbar": float(rec["xbar"]),
                    "xqx": float(rec["xqx"]),
                    "xbx": float(rec["xbx"]),
                    "xb2x": float(rec["xb2x"]),
                    "spins": decode_spins(rec["spins"]),
                }
            )
    return out
