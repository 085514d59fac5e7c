"""Samplers and exact partition-function evaluators for the Ising models.

Three sampling routes with different validity/scale trade-offs:

* exact enumeration of all 2^n configurations (n <= 24), which is the
  ground-truth oracle for everything else. x'Qx is computed by doubling
  over the spins, about 3.5 * 2^n additions and no BLAS call, for the
  2^(n-1) configurations with spin n-1 at -1 (each global flip has the
  same value bit for bit). A depth-first walk makes them in blocks of
  ENUMERATION_CHUNK codes, which are folded into the distinct values and
  their counts as they come, so memory is the blocks plus the distinct
  table, not a per-configuration table (see ``enumerate_suff_stats``);
* single-site Glauber dynamics with a systematic scan, valid for every
  coupling; each returned configuration carries local fields recomputed
  from its spins. It draws for dense couplings and for block couplings
  past the atom cap, and is an oracle elsewhere. A block of sweeps draws
  its uniforms at once and maps them to thresholds atanh(2u - 1) in one
  numpy pass, the same doubles as one draw per sweep; a site update
  is one Python-float comparison with theta times the field, and a flip
  of site i is one in-place add of row i of the symmetric Q to the
  halved fields. That gives numpy-tanh sweeps' spins except with
  probability at most 2^-51 per site update (see ``_run_sweeps``). A draw
  runs ``default_burn_in(n, theta)`` = 20 ceil(sqrt(n)) sweeps at every
  theta, the O(sqrt(n)) mixing of the critical window with a measured
  safety factor of at least 14 (tools/burn_in_probe.py);
* exact draws from the count law of a block coupling (``draw_counts``):
  one atom, the plus count of each class, by inverse CDF on the law's
  table, so the experiments on a block coupling never touch a matrix.

Every exactly summable model is one table of attainable x'Qx values with
log multiplicities: the 2^n enumeration for n <= 24 (``suff_stat_table``,
built once per coupling and cached) and, for a block coupling whose
Π(m_a + 1) class-count vectors fit under COUNT_LAW_MAX_ATOMS, the table
over those vectors (``count_law``, cached per class sizes and weights).
``tilted_table`` turns a table into log Z, its derivative and the tilted
pmf, which a count law keeps for its latest theta; the mean-field
``cw_log_partition`` is a thin caller of it on ``complete_law(n)``. The
MLE solves on one kind of table, sorted distinct floats: the enumeration
is one already, and a count law merges its atoms' equal values once, on
the first read (``CountLaw.merged``). The tables are in matrix
convention; the mean-field nx̄²/2 convention differs from it by exactly
theta/2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coupling import CouplingMatrix, as_spins
from .errors import CapacityError, NumericError, ParameterError, as_integer
from .special import gammaln
from .streams import as_generator

ENUMERATION_MAX_N = 24
#: Codes per block of the enumeration walk
ENUMERATION_CHUNK = 1 << 12
#: Codes sorted and folded at once while the enumerated floats fold
ENUMERATION_FOLD = 1 << 16
FIELD_CONSISTENCY_TOL = 1e-12
#: Most Glauber uniforms drawn and mapped to thresholds at once
SWEEP_BLOCK_UNIFORMS = 4096


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
        s = as_spins(spins, coupling.n)
        return cls.from_parts(s, coupling.local_fields(s))

    @classmethod
    def of(cls, x, coupling: CouplingMatrix | None) -> "SpinConfiguration":
        """``x`` itself if it is a configuration, else from_spins(x, coupling).

        Either way its size must match the coupling, when one is given.
        """
        if not isinstance(x, cls):
            if coupling is None:
                raise ParameterError("a +-1 vector needs its coupling")
            return cls.from_spins(x, coupling)
        if coupling is not None and x.n != coupling.n:
            raise ParameterError(f"{x.n} spins under a coupling of {coupling.n}")
        return x

    @classmethod
    def from_parts(cls, spins, local_fields) -> "SpinConfiguration":
        t = np.array(local_fields, dtype=np.float64)
        s = as_spins(spins, t.size)
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
        t = coupling.local_fields(as_spins(self.spins, coupling.n))
        err = float(np.max(np.abs(t - self.local_fields))) if self.n else 0.0
        if err > FIELD_CONSISTENCY_TOL:
            raise ParameterError(
                f"cached local fields deviate by {err:.3e} (tol 1e-12)"
            )


def _double(g: np.ndarray, q: np.ndarray) -> None:
    """Fill ``g`` (2^len(q) floats) with sum_i q[i] x_i(s) for every code s.

    Spin i is doubled in at step i: g[w:2w] = g[:w] + q[i], then
    g[:w] -= q[i], w = 2^i, from g[0] = 0. Rows of a 2-D ``g`` are filled
    at once, each from its own column of q[i] (shape (rows, 1)).
    """
    g[..., 0] = 0.0
    for i, q_i in enumerate(q):
        w = 1 << i
        np.add(g[..., :w], q_i, out=g[..., w : 2 * w])
        g[..., :w] -= q_i


def _half_blocks(coupling: CouplingMatrix, size: int):
    """Yield (v, g) per block of ``size`` codes s < 2^(n-1); x'Qx is v - g.

    A block fixes the spins from low = log2(size) up and runs over the
    low ones. v is x'Qx over spins 0..n-2 and g the field 2 sum_{i<n-1}
    Q(i, n-1) x_i of spin n-1, at -1 here. The walk decides spins low..n-2
    depth first and carries down each higher spin j's partial field
    g_j = 2 sum_{i<k} Q(i, j) x_i, so every code gets the adds of the full
    doubling in its order. The yielded rows are overwritten on resumption.
    """
    n = coupling.n
    low = size.bit_length() - 1
    q2 = 2.0 * coupling.entries
    # the state at depth k (spins below k decided): g_{n-1}, ..., g_k, then v
    top = np.empty((n - low + 1, size))
    _double(top[:-1], q2[:low, low:, None][:, ::-1])
    # g_k of each low spin k over its 2^k codes, doubled at once: past step
    # k, 0.0 is subtracted from g_k's entries, which is exact
    g = np.empty((low, max(size >> 1, 1)))
    _double(g, np.triu(q2[:low, :low], 1)[:-1, :, None])
    v = top[-1]
    v[0] = 0.0
    for k, g_k in enumerate(g):
        m = 1 << k
        np.add(v[:m], g_k[:m], out=v[m : 2 * m])
        v[:m] -= g_k[:m]
    del g
    states = [top, *(np.empty((n - k + 1, size)) for k in range(low + 1, n))]

    def walk(k: int, state: np.ndarray):
        if k == n - 1:
            yield state[1], state[0]
            return
        q = q2[k, n - 1 : k : -1, None]  # spin k's couplings to g_{n-1}..g_{k+1}
        child = states[k + 1 - low]
        np.subtract(state[-1], state[-2], out=child[-1])
        np.subtract(state[:-2], q, out=child[:-1])
        yield from walk(k + 1, child)
        # spin k at +1 in place: v + g_k goes to g_k's row, which it replaces
        np.add(state[-1], state[-2], out=state[-2])
        state[:-2] += q
        yield from walk(k + 1, state[:-1])

    yield from walk(low, states[0])


def _run_starts(table: np.ndarray) -> np.ndarray:
    """Where each run of equal floats starts in a sorted array."""
    first = np.empty(table.size, dtype=bool)
    first[:1] = True
    np.not_equal(table[1:], table[:-1], out=first[1:])
    return first.nonzero()[0]


def _merge_runs(tables) -> tuple[np.ndarray, np.ndarray]:
    """One sorted table of distinct floats with summed counts, from several."""
    values = np.concatenate([v for v, _ in tables])
    counts = np.concatenate([c for _, c in tables])
    order = values.argsort()
    values = values[order]
    starts = _run_starts(values)
    return values[starts], np.add.reduceat(counts[order], starts)


def enumerate_suff_stats(coupling: CouplingMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Distinct x'Qx floats of the 2^n configurations, with multiplicities.

    The result equals ``np.unique(full, return_counts=True)`` of the per-code
    table ``full`` of a doubling over the spins (code s has spin i at +1
    when bit i of s is set): after step k, x'Qx over spins 0..k is known for
    each code. Step k builds g(s) = 2 sum_{i<k} Q(i, k) x_i(s) by adding the
    +-2Q(i, k) in order of i, and sets the value of each code with spin k at
    +1 to value + g and at -1 to value - g. Q has a zero diagonal, so no
    Q(k, k) term enters. Each add is one correctly rounded IEEE add with no
    BLAS call, so the table does not depend on the BLAS kernel or thread
    count. g is antisymmetric under the global flip and each earlier table
    symmetric, so a code and its flip get the same float bit for bit: only
    the 2^(n-1) codes with spin n-1 at -1 are built, and each count is
    doubled.

    Those codes are made in blocks of ENUMERATION_CHUNK by a depth-first
    walk (``_half_blocks``), about 3.5 * 2^n adds in all. ENUMERATION_FOLD
    codes at a time are sorted and folded into runs of equal floats, which
    are merged into the distinct table. A fold with more than half its
    codes distinct does not compress: its floats and every code left go
    into one region, touched only as written, which is sorted and folded
    once. So memory is the blocks plus the distinct table (3.9 MB traced
    at n = 24 on random_regular d = 10), and when the floats do not fold,
    the codes left and their runs.
    """
    n = coupling.n
    if n > ENUMERATION_MAX_N:
        raise CapacityError(
            f"exact enumeration is capped at n={ENUMERATION_MAX_N}, got {n}"
        )
    if n < 1:
        raise ParameterError("exact enumeration needs n >= 1")
    half = 1 << (n - 1)
    size = min(half, ENUMERATION_CHUNK)
    blocks = _half_blocks(coupling, size)

    def fill(region: np.ndarray) -> None:
        for start, (v, g) in zip(range(0, region.size, size), blocks):
            np.subtract(v, g, out=region[start : start + size])

    buffer = np.empty(min(half, ENUMERATION_FOLD))
    table = np.empty(0), np.empty(0, dtype=np.intp)
    # the runs of folds not merged into the table yet, merged once they
    # outnumber a block's codes and the table's floats
    folds, held = [], 0
    done = 0
    while done < half:
        fill(buffer)
        done += buffer.size
        buffer.sort()
        starts = _run_starts(buffer)
        if 2 * starts.size > buffer.size and done < half:
            break
        folds.append((buffer[starts], np.diff(starts, append=buffer.size)))
        held += starts.size
        if held > max(size, table[0].size):
            table, folds, held = _merge_runs([table, *folds]), [], 0
    values, counts = _merge_runs([table, *folds])
    if done < half:
        # the floats do not fold: sort this fold's, the codes left's and the
        # table's at once; each table float is then one entry of its run,
        # which its count replaces
        rest = np.empty(buffer.size + half - done + values.size)
        rest[: buffer.size] = buffer
        fill(rest[buffer.size : rest.size - values.size])
        rest[rest.size - values.size :] = values
        rest.sort()
        starts = _run_starts(rest)
        table, total = rest[starts], rest.size
        del rest
        lengths = np.diff(starts, append=total)
        del starts
        lengths[np.searchsorted(table, values)] += counts - 1
        values, counts = table, lengths
    counts *= 2
    return values, counts


@lru_cache(maxsize=4)
def suff_stat_table(coupling: CouplingMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Distinct enumerated x'Qx floats with multiplicities (n <= 24).

    The values are the distinct floats of the full 2^n enumeration, not the
    distinct exact values of x'Qx: sums rounded in different orders split
    one true value into several floats. On random_regular with d = 10 and
    n = 20 (graph seed 7) there are 238 floats for 25 true values. They come
    from ``enumerate_suff_stats``, so memory is its blocks plus the distinct
    table. The arrays are cached per coupling and read-only, so every exact
    consumer in a process enumerates a coupling once.
    """
    values, counts = enumerate_suff_stats(coupling)
    values.flags.writeable = False
    counts.flags.writeable = False
    return values, counts


def tilted_table(
    values: np.ndarray, log_mult: np.ndarray, theta: float
) -> tuple[float, float, np.ndarray]:
    """log Z, dlog Z/dtheta and the probability of each table entry at ``theta``.

    Z(theta) = sum over entries of exp(log_mult + theta * value / 2), and
    dlog Z/dtheta is the tilted mean of value / 2. The weights are shifted
    by their maximum and normalized by their own sum. A theta so large that
    the largest log weight is not finite raises NumericError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        logw = 0.5 * theta * values
        logw += log_mult
    shift = logw.max()
    if not math.isfinite(shift):
        raise NumericError(f"theta={float(theta)!r}: the tilted log weights overflow")
    logw -= shift
    w = np.exp(logw, out=logw)
    total = w.sum()
    return float(shift + np.log(total)), float(0.5 * (values @ w) / total), w / total


# ---------------------------------------------------------------------------
# Glauber dynamics


def default_burn_in(n: int, theta: float) -> int:
    """Sweeps before a Glauber draw is taken: 20 ceil(sqrt(n)), at every theta.

    Glauber on the mean-field model mixes in O(log n) sweeps away from
    theta = 1 and in O(sqrt(n)) at theta = 1 (Levin, Luczak & Peres 2010),
    so one sqrt(n) rule covers the critical window and exceeds c log n
    elsewhere. The factor 20 comes from tools/burn_in_probe.py: with
    independent chains against the exact count laws, the 2^20 enumeration
    and reference chains of 20n sweeps, x'Qx and |2K - n| were in law after
    at most 1.4 ceil(sqrt(n)) sweeps on every probed family, n and theta,
    so 20 is a safety factor of at least 14. ``theta`` does not change the
    count; callers pass it with n as the chain's parameters.
    """
    root = math.isqrt(n)
    return 20 * (root + (root * root < n))


def _initial_spins(n: int, init, rng: np.random.Generator) -> np.ndarray:
    if init is None or isinstance(init, str) and init == "random":
        return (rng.integers(0, 2, size=n) * 2 - 1).astype(np.int8)
    if isinstance(init, str) and init in ("plus", "minus"):
        return np.full(n, 1 if init == "plus" else -1, dtype=np.int8)
    # an explicit vector; any other name fails the same check
    return as_spins(init, n)


def _check_chain(theta, **counts) -> float:
    """``theta`` as a float, after refusing a non-finite one or a bad count.

    Every count must be a nonnegative integer (a bool is not one). theta
    may be negative; 2 theta must be finite, since the sweeps multiply the
    halved fields by it.
    """
    theta = float(theta)
    if not math.isfinite(2.0 * theta):
        raise ParameterError(
            f"theta must be finite with |theta| < 2^1023, got {theta!r}"
        )
    for name, value in counts.items():
        if as_integer(value, name) < 0:
            raise ParameterError(f"{name} must be nonnegative, got {value}")
    return theta


def _run_sweeps(entries, theta, spins, t, sweeps, rng) -> None:
    """``sweeps`` systematic-scan sweeps, updating ``spins`` and ``t`` in place.

    Site i turns +1 when its uniform u falls below its conditional
    probability P(x_i = +1 | rest) = (1 + tanh(theta t_i)) / 2, that is when
    atanh(2u - 1) < theta t_i. The uniforms of up to SWEEP_BLOCK_UNIFORMS / n
    sweeps are drawn as one ``random(k * n)``, which gives the doubles of k
    calls of ``random(n)`` and leaves the stream where they would, and are
    mapped to the thresholds g = atanh(2u - 1) in one numpy pass; 2u - 1 is
    exact on the 2^-53 grid of u, and u = 0 gives g = -inf, so that site
    turns +1 as the exact rule says. The loop compares each g with 2 theta
    times the halved field, both read through memoryviews as Python floats,
    so a block holds its thresholds as 8-byte doubles.
    The fields stay halved during the sweeps, so a flip of site i is one
    in-place ``t += entries[i]`` or ``t -= entries[i]``: Q is symmetric, so
    row i is column i, and nothing is allocated. Halving changes no bit
    while every half is normal or zero, which holds whenever the nonzero
    entries are at least 2^-969 (fl(t + 2q) = 2 fl(t/2 + q), and
    2 theta t/2 is theta t).

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
    per_block = max(SWEEP_BLOCK_UNIFORMS // max(n, 1), 1)
    t *= 0.5
    with np.errstate(divide="ignore"):
        for first in range(0, sweeps, per_block):
            k = min(per_block, sweeps - first)
            g = rng.random(k * n)
            g *= 2.0
            g -= 1.0
            thresholds = iter(memoryview(np.arctanh(g, out=g)))
            for _ in range(k):
                # range(n) runs out first, so each sweep takes n thresholds;
                # field is read as the scan reaches site i, so it sees the
                # flips made earlier in the sweep; only site i writes s[i]
                for i, gi, f, si in zip(range(n), thresholds, field, s):
                    if gi < theta2 * f:
                        if si < 0:
                            s[i] = 1
                            t += entries[i]
                    elif si > 0:
                        s[i] = -1
                        t -= entries[i]
    t *= 2.0
    spins[:] = s


def glauber_sample(
    coupling: CouplingMatrix,
    theta: float,
    seed,
    *,
    sweeps: int | None = None,
    init=None,
) -> SpinConfiguration:
    """One configuration after ``sweeps`` full systematic-scan sweeps.

    ``sweeps`` defaults to default_burn_in(n, theta), 20 ceil(sqrt(n)) at
    every theta. ``init`` is "random" (default), "plus", "minus", or an
    explicit +-1 vector; replication-level sign stratification at low
    temperature is the caller's concern. A non-finite theta, or a
    ``sweeps`` that is not a nonnegative integer, raises ParameterError.
    Each site update costs one comparison of Python floats and, when the
    spin flips, one in-place add of a row of Q (see _run_sweeps for why
    that gives the numpy-tanh spins).
    """
    if sweeps is None:
        sweeps = default_burn_in(coupling.n, theta)
    theta = _check_chain(theta, sweeps=sweeps)
    rng = as_generator(seed)
    spins = _initial_spins(coupling.n, init, rng)
    t = coupling.local_fields(spins)
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
    """Per-sweep (x'Qx, xbar) series after burn-in, one entry per sweep.

    The checks are glauber_sample's, on ``samples`` and ``burn_in``.
    """
    if burn_in is None:
        burn_in = default_burn_in(coupling.n, theta)
    theta = _check_chain(theta, samples=samples, burn_in=burn_in)
    rng = as_generator(seed)
    spins = _initial_spins(coupling.n, init, rng)
    t = coupling.local_fields(spins)
    _run_sweeps(coupling.entries, theta, spins, t, burn_in, rng)
    suff = np.empty(samples)
    xbar = np.empty(samples)
    for k in range(samples):
        _run_sweeps(coupling.entries, theta, spins, t, 1, rng)
        suff[k] = float(spins @ t)
        xbar[k] = float(spins.mean())
    return suff, xbar


# ---------------------------------------------------------------------------
# Count laws

#: Most atoms a count law holds: every complete coupling to n = 10^7,
#: bipartite to n = 6322 and qpartite at q = 3 to n = 642.
COUNT_LAW_MAX_ATOMS = 10_000_001


class CountLaw:
    """The law of the class-count vector k of a block coupling.

    Class a of size m_a holds k_a plus spins, 0 <= k_a <= m_a. The atoms
    are the vectors k flattened in C order, so the global flip k -> m - k
    takes atom i to atom size - 1 - i. With S = 2k - m, read-only
    ``values[i]`` is x'Qx = S'WS - sum_a W_aa m_a and ``log_mult[i]`` is
    sum_a log C(m_a, k_a); every statistic is a function of the atom.
    ``sizes`` and ``weights`` default to the complete coupling on n spins,
    one class of weight 1/n. n < 1 or more than COUNT_LAW_MAX_ATOMS atoms
    raises CapacityError.

    The sums run over y = S/n and C = nW, so at q = 1 they are n xbar^2 - 1
    and xbar -+ 1/n bit for bit wherever n (1/n) == 1.
    """

    def __init__(self, n: int, sizes=None, weights=None) -> None:
        if n < 1:
            raise CapacityError("a count law needs n >= 1")
        self.sizes = np.array([n] if sizes is None else sizes, dtype=np.int64)
        w = np.array([[1.0 / n]] if weights is None else weights, dtype=np.float64)
        if int(self.sizes.sum()) != n or w.shape != (self.sizes.size,) * 2:
            raise ParameterError(f"class sizes and weights do not fit n={n}")
        self.shape = tuple(int(m) + 1 for m in self.sizes)
        self.size = math.prod(self.shape)
        if self.size > COUNT_LAW_MAX_ATOMS:
            raise CapacityError(
                f"a count law is capped at {COUNT_LAW_MAX_ATOMS} atoms, got {self.size}"
            )
        self.n = n
        self._c = n * w
        # class a's counts 0..m_a along axis a of the atom grid
        k = np.ix_(*map(np.arange, self.shape))
        self.values = self._values(k).reshape(-1)
        self.log_mult = np.zeros(self.shape)
        for k_a in k:
            # log C(m_a, k_a) from log k_a!, whose reverse is log (m_a - k_a)!
            log_fact = gammaln(k_a + 1.0)
            self.log_mult += log_fact.flat[-1] - log_fact - np.flip(log_fact)
        self.log_mult = self.log_mult.reshape(-1)
        self.values.flags.writeable = False
        self.log_mult.flags.writeable = False
        # caches that live and die with the law: the latest (theta, tilted
        # table), the merged table and the statistic columns by kind
        self._tilted = self._merged = None
        self.statistics: dict = {}

    def _values(self, k) -> np.ndarray:
        # x'Qx = sum_a (n y_a)(C y)_a - sum_a C_aa m_a / n over the atom grid
        y = self._y(k)
        values = np.zeros(self.shape)
        for y_a, cy_a in zip(y, self._cy(y, ())):
            values += (self.n * y_a) * cy_a
        values -= float(np.diagonal(self._c) @ self.sizes) / self.n
        return values

    def _y(self, k) -> list:
        # S_a / n of each class count
        return [(2.0 * k_a - m_a) / self.n for k_a, m_a in zip(k, self.sizes)]

    def _cy(self, y, shape) -> list:
        # (WS)_a = sum_b C_ab y_b, broadcast against the zeros of ``shape``
        return [
            sum((c * y_b for c, y_b in zip(row, y) if c), np.zeros(shape))
            for row in self._c
        ]

    def class_counts(self, atoms) -> tuple:
        """The plus count k_a of each class at each atom, one array per class."""
        return np.unravel_index(atoms, self.shape)

    def atom(self, spins: np.ndarray) -> int:
        """The atom of a checked +-1 vector: its plus count in each class."""
        starts = np.cumsum(self.sizes) - self.sizes
        plus = np.add.reduceat((spins > 0).astype(np.int64), starts)
        return int(np.ravel_multi_index(tuple(plus), self.shape))

    def xbar(self, atoms: np.ndarray) -> np.ndarray:
        """The mean spin (2K - n)/n of each atom, K its total plus count."""
        plus = sum(self.class_counts(atoms))
        return (2.0 * plus - self.n) / self.n

    def fold(self, atoms) -> tuple[np.ndarray, np.ndarray]:
        """Distinct min(i, size - 1 - i) of 1-D integer ``atoms``, with each index.

        Every count entry point goes through it; other input raises
        ParameterError.
        """
        i = np.asarray(atoms)
        if i.ndim != 1 or (i.size and i.dtype.kind not in "iu"):
            raise ParameterError("atoms must be a 1-D array of integers")
        last = self.size - 1
        if i.size and (i.min() < 0 or i.max() > last):
            raise ParameterError(f"atoms must lie in [0, {last}]")
        i = i.astype(np.int64)
        return np.unique(np.minimum(i, last - i), return_inverse=True)

    def fields(self, atoms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each atom's field values and multiplicities, two per class.

        Class a contributes (WS)_a - W_aa on its k_a plus spins and
        (WS)_a + W_aa on its m_a - k_a minus spins.
        """
        k = self.class_counts(atoms)
        cy = self._cy(self._y(k), np.shape(atoms))
        offsets = np.diagonal(self._c) / self.n  # W_aa
        t = [f for cy_a, d in zip(cy, offsets) for f in (cy_a - d, cy_a + d)]
        w = [f for k_a, m_a in zip(k, self.sizes) for f in (k_a, m_a - k_a)]
        return np.stack(t, axis=1), np.stack(w, axis=1).astype(np.float64)

    def tilted(self, theta: float) -> tuple[float, float, np.ndarray]:
        """tilted_table of the law at ``theta``, pmf read-only.

        The law keeps the latest theta's: every caller reads one theta
        several times in a row.
        """
        if self._tilted is None or self._tilted[0] != theta:
            log_z, dlog_z, pmf = tilted_table(self.values, self.log_mult, theta)
            pmf.flags.writeable = False
            self._tilted = theta, (log_z, dlog_z, pmf)
        return self._tilted[1]

    def merged(self) -> tuple[np.ndarray, np.ndarray]:
        """The law's x'Qx as sorted distinct floats, with log multiplicities.

        Equal values are merged by a stable sort and a log-sum-exp of their
        log multiplicities in atom order. Built on the first read and kept
        with the law, read-only.
        """
        if self._merged is None:
            order = self.values.argsort(kind="stable")
            values = self.values[order]
            starts = _run_starts(values)
            # cut the sorted floats to their runs first: with the sorted log
            # multiplicities they would be two more floats per atom at once
            values = values[starts]
            log_mult = np.logaddexp.reduceat(self.log_mult[order], starts)
            self._merged = values, log_mult
            for table in self._merged:
                table.flags.writeable = False
        return self._merged

    def atoms(self, theta: float) -> tuple[np.ndarray, np.ndarray]:
        """The atoms with positive mass at ``theta``, and their masses."""
        pmf = self.tilted(theta)[2]
        atoms = np.flatnonzero(pmf)
        return atoms, pmf[atoms]


def count_law(coupling: CouplingMatrix) -> CountLaw | None:
    """The count law of a block coupling, cached per sizes and weights, or None.

    A dense coupling, and a block coupling of more than COUNT_LAW_MAX_ATOMS
    atoms, has none.
    """
    if coupling.sizes is None:
        return None
    try:
        return _block_law(tuple(coupling.sizes.tolist()), tuple(coupling.weights.flat))
    except CapacityError:
        return None


@lru_cache(maxsize=4)
def _block_law(sizes: tuple, weights: tuple) -> CountLaw:
    q = len(sizes)
    return CountLaw(sum(sizes), sizes, np.reshape(weights, (q, q)))


def complete_law(n: int) -> CountLaw:
    """The count law of the complete coupling on n spins, cached as count_law's."""
    if n < 1:
        raise CapacityError("a count law needs n >= 1")
    return _block_law((n,), (1.0 / n,))


def cw_log_partition(n: int, theta: float) -> float:
    """log sum_x exp(n*theta*xbar^2/2), from the complete count law of n.

    This is the nx̄²/2 convention: the table's matrix-convention log Z plus
    theta/2.
    """
    if theta < 0:
        raise ParameterError("theta must be nonnegative")
    return complete_law(n).tilted(theta)[0] + 0.5 * theta


def draw_counts(law: CountLaw, theta: float, uniforms) -> np.ndarray:
    """The count-law atom of each uniform, by inverse CDF.

    The count law is exact: the pmf of the law's table at ``theta``.
    Replication r of a draw set (htests.DrawSet, its one caller in the
    package) passes the first uniform of its stream, column 0 of
    seed_uniforms on the set's derive_seeds batch, so ``reps`` draws cost
    one vectorized pass and build no Generator. Every statistic is a
    function of the atom, so no spin vector is ever drawn. A negative
    theta raises ParameterError.
    """
    if theta < 0:
        raise ParameterError("theta must be nonnegative")
    cdf = np.cumsum(law.tilted(theta)[2])
    # a uniform past the rounded total mass lands on the last atom
    return np.minimum(np.searchsorted(cdf, uniforms, side="right"), law.size - 1)


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
    import csv

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
    """Parse a sample dump back into a list of dicts (spins decoded).

    A cell that does not parse, or is missing from a short row, raises
    ParameterError naming the file, the row (from 0) and the column.
    """
    import csv

    parsers = (int, int, float, float, float, float, float, decode_spins)
    out = []
    with open(path, "r", newline="", encoding="ascii") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != DUMP_COLUMNS:
            raise ParameterError(f"expected columns {DUMP_COLUMNS}")
        for row, rec in enumerate(reader):
            parsed = {}
            for key, parse in zip(DUMP_COLUMNS, parsers):
                try:
                    parsed[key] = parse(rec[key])
                except (TypeError, ValueError, ParameterError) as exc:
                    raise ParameterError(
                        f"{path}: row {row}, column {key}: cannot read {rec[key]!r}"
                    ) from exc
            out.append(parsed)
    return out
