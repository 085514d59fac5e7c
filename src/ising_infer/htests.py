"""Level-alpha tests of theta = theta0 against theta > theta0.

Three statistics share one randomized rejection template with critical
value K and tie probability gamma: reject when the statistic strictly
exceeds K, and when it equals K, reject when a tie-break uniform falls
below gamma.

  ms  n xbar^2, needs no knowledge of the coupling matrix
  np  x'Qx, the sufficient statistic, optimal by Neyman-Pearson
  pl  the pseudolikelihood point estimate, -inf when it does not exist
      (a nonexistent estimate therefore never rejects)

Critical values come either from a finite-n null law or from the
limiting null laws: normal at theta0 > 1, the quartic-tilt law and the
ratio law of the critical point at theta0 = 1. The statistics are
functions of the spin configuration, so their finite-n null laws are
discrete, and no deterministic cutoff reaches a level near alpha. The
finite-n ("monte_carlo") calibration takes K as the smallest value with
P(T > K) <= alpha and sets gamma so the randomized level
P(T > K) + gamma P(T = K) is exactly alpha: the randomized Neyman-Pearson
test (Lehmann & Romano, Testing Statistical Hypotheses, section 3.2). On
a coupling with a count law (every block coupling under the atom cap)
every statistic depends on the atom, the plus count of each class,
alone, so P is that law and the level is exact; elsewhere P is the
empirical law of a Glauber null sample. The limit laws are continuous,
so asymptotic calibration has gamma = 0. One function, _limit_cutoff,
computes each level-alpha cutoff on the limit scale (the normal quantile
above the critical point; at theta0 = 1 the quartic-tilt quantile for ms
and np and the quadrature quantile theory.mple_limit_quantile for pl),
and asymptotic calibration and limit_power both read it. Each
replication draws its tie-break uniform from its own stream after its
sample, so runs are deterministic.

A DrawSet is the only code that draws replications, for the power curve
and the estimator law alike: it hashes their seeds once, draws count-law
atoms or maps one Glauber chain per seed over the worker pool, and holds
each replication's xbar, x'Qx and MPLE (its columns) and every kind's
statistic. Its caller holds it, so kinds read from one set share its
draws whatever else is drawn. Under a count law every statistic is read
off a per-law column of every atom's statistic, built on its first read;
np is the law's values, and pl comes from mple_counts (one batched
pseudolikelihood root over the distinct folded atoms), which ms and np
never run; the columns solve the MPLE of the drawn atoms only. Power
against theta0 + h/sqrt(n) is available empirically over a DrawSet,
exactly under a count law (the (K, gamma) rule summed against it), and
in the limit: limit_power is exact for every kind (normal curve,
quartic-tilt law, and the critical pl ratio law by quadrature); its Monte
Carlo oracle lives with the tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import streams
from .coupling import CouplingMatrix, as_spins, family_limit
from .errors import CALIBRATIONS, ParameterError
from .inference import mple, mple_counts
from .sampler import CountLaw, SpinConfiguration, count_law, draw_counts, glauber_sample
from .special import ndtr, ndtri
from .theory import (
    critical_law,
    information_rate,
    mple_limit_quantile,
    mple_limit_sf,
    quadratic_limit_mean,
    spontaneous_magnetization,
)
from .workers import parallel_map

KINDS = ("ms", "np", "pl")
COLUMNS = ("xbar", "suff_stat", "mple", "mple_exists")
MIN_CALIBRATION_REPS = 1000


@dataclass(frozen=True)
class TestSpec:
    """What to test and how to calibrate it.

    A Glauber null law comes from the DrawSet handed to calibrate, not
    from the spec.
    """

    __test__ = False  # not a pytest class despite the name

    kind: str
    theta0: float
    alpha: float
    n: int
    calibration: str = "monte_carlo"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ParameterError(f"kind must be one of {KINDS}")
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError("alpha must lie in (0, 1)")
        if self.theta0 <= 0.0:
            raise ParameterError("theta0 must be positive")
        if self.n < 1:
            raise ParameterError("n must be positive")
        if self.calibration not in CALIBRATIONS:
            raise ParameterError(f"calibration must be one of {CALIBRATIONS}")


@dataclass(frozen=True)
class Calibration:
    """A randomized critical value (K, gamma) plus how it was obtained.

    A statistic T rejects when T > ``critical_value`` (K), and when T == K
    it rejects with probability ``gamma`` in [0, 1].

    ``achieved_level`` is P(T > K), the level of the non-randomized test,
    which never exceeds alpha: exact under a count law, the fraction of
    the Glauber calibration sample elsewhere (None for asymptotic
    calibration). ``gamma`` tops that up on the atom at K, so
    P(T > K) + gamma P(T = K) is alpha. It is 0 for asymptotic
    calibration, whose limit laws have no atoms. ``sampler`` records which
    null law produced the calibration: exact, glauber, or theory.
    """

    critical_value: float
    achieved_level: float | None
    sampler: str
    spec: TestSpec
    gamma: float = 0.0

    def rejects(self, stats, uniforms):
        """The randomized decision for statistics with tie-break uniforms."""
        stats = np.asarray(stats)
        ties = (stats == self.critical_value) & (np.asarray(uniforms) < self.gamma)
        return (stats > self.critical_value) | ties


@dataclass(frozen=True)
class TestOutcome:
    statistic: float
    critical_value: float
    reject: bool
    achieved_level: float | None = None


def test_statistic(kind: str, x, coupling: CouplingMatrix | None = None) -> float:
    """Evaluate one test statistic on one configuration.

    pl returns -inf whenever the pseudolikelihood estimate does not exist
    (boundary or degenerate data), so such samples can never reject.
    Under a coupling with a count law the value comes from the atom (the
    plus count of each class), by the same arithmetic as the calibration's
    null draws, so a statistic on the critical atom equals K exactly.
    """
    if kind not in KINDS:
        raise ParameterError(f"kind must be one of {KINDS}")
    law = None if coupling is None else count_law(coupling)
    if kind == "ms" or law is not None:
        # the spins alone: Qx is never formed, so no dense matrix is built
        n = None if coupling is None else coupling.n
        spins = as_spins(x.spins if isinstance(x, SpinConfiguration) else x, n)
        if law is not None:
            return float(_count_statistics(law, kind)[law.atom(spins)])
        xbar = float(spins.mean())
        return float(spins.size * xbar * xbar)
    config = SpinConfiguration.of(x, coupling)
    if kind == "np":
        return config.suff_stat()
    result = mple(config)
    return result.value if result.exists else -math.inf


def _count_statistics(law: CountLaw, kind: str) -> np.ndarray:
    """The ``kind`` statistic of each atom of a count law, as a read-only array.

    A statistic depends on the configuration only through its atom, and
    not on theta, so one column per law and kind, kept in the law's
    ``statistics``, serves test_statistic, every draw set, the exact
    calibration and every exact power. np is the law's values; the other
    columns are built on their first read, so ms and np never solve pl. pl
    comes from mple_counts, so it takes equal values on an atom and its
    flip.
    """
    if kind == "np":
        return law.values
    column = law.statistics.get(kind)
    if column is not None:
        return column
    atoms = np.arange(law.size)
    if kind == "pl":
        rows = mple_counts(law, atoms)
        column = np.where(rows.exists, rows.value, -math.inf)
    else:
        xbar = law.xbar(atoms)
        column = law.n * xbar * xbar
    law.statistics[kind] = _frozen(column)
    return column


@dataclass(frozen=True, eq=False)
class DrawSet:
    """``reps`` draws at ``theta``: each replication's seed, its xbar, x'Qx
    and MPLE (``columns``), every kind's statistic (``stats``) and its
    tie-break uniform, drawn on the first read and kept read-only.

    Replication r draws from the stream of derive_seed(master_seed, r),
    first its sample and then its uniform, so the statistics do not depend
    on the uniforms; ``seeds`` holds those seeds, from one derive_seeds
    batch, and no seed is hashed twice. Under a count law the draws are
    atoms (draw_counts): ``stats`` index the per-law columns, and
    ``columns`` come from the drawn atoms alone, so mple_counts solves only
    those. Elsewhere each replication is one Glauber chain, mapped over the
    worker pool (workers.parallel_map), and ``stats`` are read off
    ``columns``. reps < 1 raises at construction.
    """

    coupling: CouplingMatrix
    theta: float
    master_seed: int
    reps: int

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise ParameterError("a draw set needs reps >= 1")

    @cached_property
    def seeds(self) -> np.ndarray:
        """derive_seed(master_seed, r) of each replication r, as uint64."""
        return _frozen(streams.derive_seeds(self.master_seed, self.reps))

    @cached_property
    def _drawn(self) -> tuple:
        """(law, draws, uniforms): the atoms under a count law, else law is
        None and draws are the chains' columns in COLUMNS order."""
        law = count_law(self.coupling)
        if law is not None:
            u = streams.seed_uniforms(self.seeds, 2)
            return law, draw_counts(law, self.theta, u[:, 0]), _frozen(u[:, 1].copy())
        chain = partial(_glauber_draw, self.coupling, self.theta)
        *columns, uniforms = np.array(parallel_map(chain, self.seeds.tolist())).T
        columns[-1] = columns[-1] == 1.0  # the exists flags came back as floats
        return None, columns, _frozen(uniforms)

    @cached_property
    def columns(self) -> dict:
        """COLUMNS name -> its value at each replication: xbar, x'Qx
        (suff_stat), the MPLE and whether it exists."""
        law, draws, _ = self._drawn
        if law is not None:
            pl = mple_counts(law, draws)
            draws = (law.xbar(draws), law.values[draws], pl.value, pl.exists)
        return {k: _frozen(c) for k, c in zip(COLUMNS, draws)}

    @cached_property
    def stats(self) -> dict:
        """kind -> the statistic of each replication."""
        law, draws, _ = self._drawn
        if law is not None:
            return {k: _frozen(_count_statistics(law, k)[draws]) for k in KINDS}
        xbar, suff, value, exists = self.columns.values()
        ms, pl = self.coupling.n * xbar * xbar, np.where(exists, value, -math.inf)
        return {k: _frozen(c) for k, c in zip(KINDS, (ms, suff, pl))}

    @property
    def uniforms(self) -> np.ndarray:
        """The tie-break uniform of each replication."""
        return self._drawn[2]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _glauber_draw(coupling, theta, seed) -> tuple:
    """One Glauber chain on the stream of ``seed``: the draw's COLUMNS, then
    its tie-break uniform."""
    rng = np.random.default_rng(seed)
    config = glauber_sample(coupling, theta, rng)
    pl = mple(config)
    return config.xbar, config.suff_stat(), pl.value, pl.exists, rng.random()


def _randomized_cutoff(
    stats: np.ndarray, weights: np.ndarray, alpha: float
) -> tuple[float, float, float]:
    """(K, P(T > K), gamma) of the law putting ``weights`` on ``stats``.

    K is the smallest value with P(T <= K) >= 1 - alpha, that is
    P(T > K) <= alpha, and gamma = (alpha - P(T > K)) / P(T = K). Equal
    integer weights give exact sample fractions, and K is then the order
    statistic of rank ceil((1 - alpha) * reps).
    """
    values, inverse = np.unique(stats, return_inverse=True)
    mass = np.bincount(inverse, weights=weights)
    below = np.cumsum(mass)
    total = below[-1]
    i = int(np.searchsorted(below, (1.0 - alpha) * total))
    above = float(mass[i + 1 :].sum() / total)
    gamma = min(max((alpha - above) / float(mass[i] / total), 0.0), 1.0)
    return float(values[i]), above, gamma


def _limit_cutoff(kind: str, theta0: float, alpha: float, limit) -> float:
    """The level-alpha cutoff of ``kind`` on its limit scale.

    Above the critical point it is the 1 - alpha normal quantile z; at
    theta0 = 1 it is the 1 - alpha/2 quantile of U_0 (the quartic-tilt law)
    for ms and np, and the 1 - alpha quantile of the ratio law V_0 for pl,
    whose spectrum ``limit()`` returns as (limit_eigs, kappa) and is called
    for critical pl only. theta0 < 1 has no limiting null law and raises.
    """
    if theta0 > 1.0:
        return float(ndtri(1.0 - alpha))
    if theta0 != 1.0:
        raise ParameterError("no limiting null law below the critical point")
    if kind in ("ms", "np"):
        return critical_law(0.0).quantile(1.0 - alpha / 2.0)
    return mple_limit_quantile(1.0 - alpha, 0.0, *limit())


def calibrate(
    spec: TestSpec, coupling: CouplingMatrix, null: DrawSet | None = None
) -> Calibration:
    """Produce the randomized critical value (K, gamma) for a specification.

    Monte Carlo mode reads (K, gamma) off a finite-n null law with
    _randomized_cutoff: under a count law the exact law, one atom per +1
    count with positive mass; elsewhere the draws of ``null``, a DrawSet
    on ``coupling`` at spec.theta0 of at least MIN_CALIBRATION_REPS reps,
    each with equal weight; a missing, smaller or misplaced ``null``
    raises before any chain runs, and no other route reads (or draws) it.
    Asymptotic mode maps _limit_cutoff to the statistic's scale, adds the
    quadratic-form limit mean for np, and sets gamma = 0; theta0 < 1 has
    no limiting null law and raises. Only np, and pl at theta0 = 1, read
    the coupling's cataloged limit spectrum.
    """
    if spec.n != coupling.n:
        raise ParameterError("spec.n does not match the coupling size")
    if spec.calibration == "monte_carlo":
        law = count_law(coupling)
        if law is not None:
            counts, weights = law.atoms(spec.theta0)
            stats = _count_statistics(law, spec.kind)[counts]
            sampler = "exact"
        else:
            if null is None or null.reps < MIN_CALIBRATION_REPS or (
                null.coupling is not coupling or null.theta != spec.theta0
            ):
                raise ParameterError(
                    "glauber calibration needs a null DrawSet on the coupling at "
                    f"theta0 with reps >= {MIN_CALIBRATION_REPS}"
                )
            stats = null.stats[spec.kind]
            weights, sampler = np.ones(null.reps), "glauber"
        critical, achieved, gamma = _randomized_cutoff(stats, weights, spec.alpha)
        return Calibration(critical, achieved, sampler, spec, gamma)

    theta0, n = spec.theta0, spec.n

    def limit():
        lim = family_limit(coupling)
        return lim.limit_eigs, lim.kappa

    cut = _limit_cutoff(spec.kind, theta0, spec.alpha, limit)
    if theta0 > 1.0:
        m = spontaneous_magnetization(theta0)
        rate = information_rate(theta0)
        if spec.kind == "pl":
            critical = theta0 + cut / math.sqrt(n * rate)
        else:
            critical = n * m * m + 2.0 * cut * math.sqrt(n * rate)
    elif spec.kind == "pl":
        critical = 1.0 + cut / math.sqrt(n)
    else:
        critical = math.sqrt(n) * cut * cut
    if spec.kind == "np":
        critical += quadratic_limit_mean(theta0, *limit())
    return Calibration(critical, None, "theory", spec)


def run_test(
    x,
    spec: TestSpec,
    coupling: CouplingMatrix,
    calibration: Calibration | None = None,
    tie_break=None,
) -> TestOutcome:
    """Calibrate (or reuse a calibration) and decide on one configuration.

    Calibrating here reads no null set, so off a count law a monte_carlo
    ``calibration`` must be passed in. The decision is the randomized
    (K, gamma) rule. ``tie_break`` is an int seed or Generator; one uniform
    is drawn from it, and only a statistic equal to K consults it. Without
    ``tie_break`` the decision is the non-randomized one, reject iff the
    statistic exceeds K, whose level is ``achieved_level``.
    """
    if calibration is None:
        calibration = calibrate(spec, coupling)
    stat = test_statistic(spec.kind, x, coupling)
    u = 1.0 if tie_break is None else streams.as_generator(tie_break).random()
    return TestOutcome(
        statistic=stat,
        critical_value=calibration.critical_value,
        reject=bool(calibration.rejects(stat, u)),
        achieved_level=calibration.achieved_level,
    )


def empirical_power(calibration: Calibration, draws: DrawSet) -> float:
    """Randomized rejection fraction of ``calibration`` over ``draws``.

    ``draws`` sits on a coupling of the spec's n at theta >= theta0, at
    theta0 + h/sqrt(n) for the power at h, and should not be the
    calibration's own null set. Each draw's tie-break uniform comes from
    its own stream, after the draw.
    """
    spec = calibration.spec
    if draws.coupling.n != spec.n or draws.theta < spec.theta0:
        raise ParameterError("draws must sit at the spec's n and theta >= theta0")
    rejects = calibration.rejects(draws.stats[spec.kind], draws.uniforms)
    return float(np.mean(rejects))


def exact_power(
    spec: TestSpec,
    coupling: CouplingMatrix,
    h: float,
    calibration: Calibration | None = None,
) -> float:
    """Exact randomized rejection probability at theta0 + h/sqrt(n).

    Couplings with a count law only: the statistic of each atom with
    positive mass under the law at theta0 + h/sqrt(n) comes from the same
    per-atom arithmetic as the draws, and the (K, gamma) rule is summed
    against that law.
    """
    law = count_law(coupling)
    if law is None:
        raise ParameterError("exact power needs a coupling with a count law")
    if h < 0.0:
        raise ParameterError("h must be nonnegative")
    if calibration is None:
        calibration = calibrate(spec, coupling)
    theta_n = spec.theta0 + h / math.sqrt(spec.n)
    counts, mass = law.atoms(theta_n)
    stats = _count_statistics(law, spec.kind)[counts]
    critical = calibration.critical_value
    above = mass[stats > critical].sum()
    return float(above + calibration.gamma * mass[stats == critical].sum())


def limit_power(
    kind: str,
    theta0: float,
    h: float,
    alpha: float,
    *,
    limit_eigs=None,
    kappa: float | None = None,
) -> float:
    """Limiting power against theta0 + h/sqrt(n), exact for every kind.

    Each kind's limit law is evaluated at h beyond the cutoff that
    asymptotic calibration uses (_limit_cutoff). Above the critical point
    all three tests share the normal power curve. At the critical point ms
    and np reject when U_h^2 exceeds the squared 1 - alpha/2 quantile of
    U_0, read off the quartic-tilt law, and pl rejects when the ratio-law
    limit V_h exceeds its 1 - alpha null quantile, by quadrature
    (theory.mple_limit_sf). ``limit_eigs``/``kappa`` are only consulted
    for critical pl.
    """
    if kind not in KINDS:
        raise ParameterError(f"kind must be one of {KINDS}")
    if not 0.0 < alpha < 1.0:
        raise ParameterError("alpha must lie in (0, 1)")
    if h < 0.0:
        raise ParameterError("h must be nonnegative")

    def limit():
        if limit_eigs is None or kappa is None:
            raise ParameterError("critical pl power needs limit_eigs and kappa")
        return limit_eigs, kappa

    cut = _limit_cutoff(kind, theta0, alpha, limit)
    if theta0 > 1.0:
        return float(ndtr(h * math.sqrt(information_rate(theta0)) - cut))
    if kind in ("ms", "np"):
        return float(2.0 * (1.0 - critical_law(h).cdf_at(cut)))
    return mple_limit_sf(cut, h, limit_eigs, kappa)
