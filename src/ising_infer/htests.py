"""Level-alpha tests of theta = theta0 against theta > theta0.

Three statistics share one randomized rejection template with critical
value K and tie probability gamma: reject when the statistic strictly
exceeds K, and when it equals K, reject when a tie-break uniform falls
below gamma.

  ms  n xbar^2, needs no knowledge of the coupling matrix
  np  x'Qx, the sufficient statistic, optimal by Neyman-Pearson
  pl  the pseudolikelihood point estimate, -inf when it does not exist
      (a nonexistent estimate therefore never rejects)

Critical values come either from Monte Carlo null simulation or from the
limiting null laws: normal at theta0 > 1, the quartic-tilt law and the
ratio law of the critical point at theta0 = 1. The statistics are
functions of the spin configuration, so their finite-n null laws are
discrete; on the complete family they depend on the +1 count alone, and
no deterministic cutoff reaches a level near alpha. Monte Carlo
calibration therefore takes K as the conservative empirical quantile
(the exceedance fraction P(T > K) of its sample is at most alpha) and
sets gamma so the sample's randomized level P(T > K) + gamma P(T = K) is
exactly alpha: the randomized Neyman-Pearson test (Lehmann & Romano,
Testing Statistical Hypotheses, section 3.2). The limit laws are
continuous, so asymptotic calibration has gamma = 0. Each replication
draws its tie-break uniform from its own stream after its sample, so
runs are deterministic. Power against theta0 + h/sqrt(n) alternatives is
available both empirically and from the limiting formulas.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr, ndtri

from .coupling import CouplingMatrix, family_limit
from .errors import ParameterError
from .inference import mple, mple_from_counts
from .sampler import SpinConfiguration, cw_aux_counts, glauber_sample
from .streams import as_generator, derive_seed, substream
from .theory import (
    critical_law,
    information_rate,
    law_quantile,
    quadratic_limit_mean,
    sample_mple_limit,
    spontaneous_magnetization,
)

KINDS = ("ms", "np", "pl")
CALIBRATIONS = ("monte_carlo", "asymptotic")
MIN_CALIBRATION_REPS = 1000

# fixed stream for the Monte Carlo quantile of the critical pl null law, so
# asymptotic calibration stays a pure function of its arguments; drawn 4x
# larger than power curves so quantile noise stays below power-draw noise
V_QUANTILE_SEED = 714025
V_QUANTILE_REPS = 4_000_000


@dataclass(frozen=True)
class TestSpec:
    """What to test and how to calibrate it.

    ``reps`` and ``seed`` drive the null simulation and are ignored by
    asymptotic calibration.
    """

    __test__ = False  # not a pytest class despite the name

    kind: str
    theta0: float
    alpha: float
    n: int
    calibration: str = "monte_carlo"
    reps: int = 10_000
    seed: int = 0

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
        if self.calibration == "monte_carlo" and self.reps < MIN_CALIBRATION_REPS:
            raise ParameterError(
                f"monte_carlo calibration needs reps >= {MIN_CALIBRATION_REPS}"
            )


@dataclass(frozen=True)
class Calibration:
    """A randomized critical value (K, gamma) plus how it was obtained.

    A statistic T rejects when T > ``critical_value`` (K), and when T == K
    it rejects with probability ``gamma`` in [0, 1].

    ``achieved_level`` is the fraction of the calibration sample with
    T > K, the level of the non-randomized test, which never exceeds alpha
    (None for asymptotic calibration). ``gamma`` tops that up on the
    atom at K: with P the sample fractions, P(T > K) + gamma P(T = K) is
    alpha. It is 0 for asymptotic calibration, whose limit laws have no
    atoms. ``sampler`` records which null generator produced the
    calibration: aux-field, glauber, or theory.
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
    Under the complete coupling the value comes from the +1 count, by the
    same arithmetic as the calibration's null draws, so a statistic on the
    critical atom equals K exactly.
    """
    if kind not in KINDS:
        raise ParameterError(f"kind must be one of {KINDS}")
    if coupling is not None and coupling.family == "complete":
        spins = np.asarray(x.spins if isinstance(x, SpinConfiguration) else x)
        if spins.shape != (coupling.n,):
            raise ParameterError("spin vector length does not match coupling")
        plus = np.count_nonzero(spins > 0)
        return float(_count_statistics(kind, coupling.n, np.array([plus]))[0])
    if isinstance(x, SpinConfiguration):
        if kind == "ms":
            return float(x.n * x.xbar * x.xbar)
        if kind == "np":
            return x.suff_stat()
    else:
        spins = np.asarray(x, dtype=np.float64)
        if kind == "ms":
            # the product SpinConfiguration uses, so both inputs agree
            xbar = float(spins.mean())
            return float(spins.size * xbar * xbar)
        if coupling is None:
            raise ParameterError("np/pl statistics need the coupling matrix")
        if kind == "np":
            t = coupling.local_fields(spins)
            return float(spins @ t)
    result = mple(x, coupling)
    return result.value if result.exists else -math.inf


def _count_statistics(kind: str, n: int, counts: np.ndarray) -> np.ndarray:
    """Complete-family statistics from +1 counts.

    Every statistic depends on a complete-family configuration only
    through its +1 count (x'Qx = n xbar^2 - 1), so the pl root-find runs
    once per distinct count.
    """
    xbar = (2.0 * counts - n) / n
    ms = n * xbar * xbar
    if kind == "ms":
        return ms
    if kind == "np":
        return ms - 1.0
    values = {}
    for k in np.unique(counts):
        res = mple_from_counts(n, int(k))
        values[int(k)] = res.value if res.exists else -math.inf
    return np.array([values[int(k)] for k in counts])


def _glauber_statistics(
    kind: str, coupling: CouplingMatrix, theta: float, master_seed: int, reps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Glauber statistics; the tie-break uniform follows each chain's draws."""
    stats = np.empty(reps)
    uniforms = np.empty(reps)
    for r in range(reps):
        rng = substream(master_seed, r)
        config = glauber_sample(coupling, theta, rng)
        stats[r] = test_statistic(kind, config, coupling)
        uniforms[r] = rng.random()
    return stats, uniforms


def _statistics_and_tie_breaks(
    kind: str, coupling: CouplingMatrix, theta: float, master_seed: int, reps: int
) -> tuple[np.ndarray, np.ndarray, str]:
    """Statistics of ``reps`` draws, their tie-break uniforms, the sampler.

    Replication r draws from substream(master_seed, r), first its sample
    and then its uniform, so the statistics do not depend on the uniforms.
    """
    if coupling.family == "complete":
        _, counts, uniforms = cw_aux_counts(
            coupling.n, theta, master_seed, reps, tie_breaks=True
        )
        return _count_statistics(kind, coupling.n, counts), uniforms, "aux-field"
    stats, uniforms = _glauber_statistics(kind, coupling, theta, master_seed, reps)
    return stats, uniforms, "glauber"


def _statistic_batch(
    kind: str, coupling: CouplingMatrix, theta: float, master_seed: int, reps: int
) -> tuple[np.ndarray, str]:
    stats, _, sampler = _statistics_and_tie_breaks(
        kind, coupling, theta, master_seed, reps
    )
    return stats, sampler


@lru_cache(maxsize=64)
def _v0_quantile(p: float, limit_eigs: tuple, kappa: float) -> float:
    draws = sample_mple_limit(
        0.0, limit_eigs, kappa, V_QUANTILE_REPS, V_QUANTILE_SEED
    )
    return law_quantile(draws, p)


def calibrate(spec: TestSpec, coupling: CouplingMatrix) -> Calibration:
    """Produce the randomized critical value (K, gamma) for a specification.

    Monte Carlo mode simulates ``spec.reps`` null draws. K is the
    conservative empirical (1 - alpha) quantile: the smallest order
    statistic whose exceedance fraction is at most alpha. gamma is
    (alpha - P(T > K)) / P(T = K) over the sample, so the randomized test
    has level alpha on it. Asymptotic mode evaluates the limiting null law
    of the statistic and sets gamma = 0; theta0 < 1 has no such law here
    and raises.
    """
    if spec.n != coupling.n:
        raise ParameterError("spec.n does not match the coupling size")
    if spec.calibration == "monte_carlo":
        stats, sampler = _statistic_batch(
            spec.kind, coupling, spec.theta0, spec.seed, spec.reps
        )
        order = np.sort(stats)
        rank = math.ceil((1.0 - spec.alpha) * spec.reps)
        critical = float(order[max(rank, 1) - 1])
        achieved = float(np.mean(stats > critical))
        # K is an order statistic, so its atom holds at least one draw
        at_critical = float(np.mean(stats == critical))
        gamma = min(max((spec.alpha - achieved) / at_critical, 0.0), 1.0)
        return Calibration(critical, achieved, sampler, spec, gamma)

    theta0, alpha, n = spec.theta0, spec.alpha, spec.n
    if theta0 < 1.0:
        raise ParameterError(
            "no limiting null law below the critical point; use monte_carlo"
        )
    if theta0 > 1.0:
        m = spontaneous_magnetization(theta0)
        rate = information_rate(theta0)
        z = float(ndtri(1.0 - alpha))
        if spec.kind == "ms":
            critical = n * m * m + 2.0 * z * math.sqrt(n * rate)
        elif spec.kind == "np":
            lim = family_limit(coupling)
            shift = quadratic_limit_mean(theta0, lim.limit_eigs, lim.kappa)
            critical = n * m * m + 2.0 * z * math.sqrt(n * rate) + shift
        else:
            critical = theta0 + z / math.sqrt(n * rate)
        return Calibration(critical, None, "theory", spec)

    if spec.kind in ("ms", "np"):
        u_cut = critical_law(0.0).quantile(1.0 - alpha / 2.0)
        critical = math.sqrt(n) * u_cut * u_cut
        if spec.kind == "np":
            lim = family_limit(coupling)
            critical += quadratic_limit_mean(1.0, lim.limit_eigs, lim.kappa)
    else:
        lim = family_limit(coupling)
        v0 = _v0_quantile(1.0 - alpha, lim.limit_eigs, lim.kappa)
        critical = 1.0 + v0 / math.sqrt(n)
    return Calibration(critical, None, "theory", spec)


def run_test(
    x,
    spec: TestSpec,
    coupling: CouplingMatrix,
    calibration: Calibration | None = None,
    tie_break=None,
) -> TestOutcome:
    """Calibrate (or reuse a calibration) and decide on one configuration.

    The decision is the randomized (K, gamma) rule. ``tie_break`` is an int
    seed or Generator; one uniform is drawn from it, and only a statistic
    equal to K consults it. Without ``tie_break`` the decision is the
    non-randomized one, reject iff the statistic exceeds K, whose level is
    ``achieved_level``.
    """
    if calibration is None:
        calibration = calibrate(spec, coupling)
    stat = test_statistic(spec.kind, x, coupling)
    u = 1.0 if tie_break is None else as_generator(tie_break).random()
    return TestOutcome(
        statistic=stat,
        critical_value=calibration.critical_value,
        reject=bool(calibration.rejects(stat, u)),
        achieved_level=calibration.achieved_level,
    )


def empirical_power(
    spec: TestSpec,
    coupling: CouplingMatrix,
    h: float,
    reps: int,
    seed: int,
    calibration: Calibration | None = None,
) -> float:
    """Randomized rejection fraction over draws at theta0 + h/sqrt(n).

    ``seed`` drives the alternative draws and should differ from the
    calibration seed. Each draw's tie-break uniform comes from its own
    stream, after the draw. Pass a precomputed ``calibration`` to share one
    critical value across an h-grid.
    """
    if h < 0.0:
        raise ParameterError("h must be nonnegative")
    if calibration is None:
        calibration = calibrate(spec, coupling)
    theta_n = spec.theta0 + h / math.sqrt(spec.n)
    stats, uniforms, _ = _statistics_and_tie_breaks(
        spec.kind, coupling, theta_n, seed, reps
    )
    return float(np.mean(calibration.rejects(stats, uniforms)))


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

    Above the critical point all three tests share the normal power curve
    and the error is zero. At the critical point the ms/np value comes
    from quadrature of the quartic-tilt law (zero error) while pl is
    Monte Carlo over the ratio-law draws, so its binomial standard error
    is reported. ``limit_eigs``/``kappa`` are only consulted for critical
    pl.
    """
    if kind not in KINDS:
        raise ParameterError(f"kind must be one of {KINDS}")
    if not 0.0 < alpha < 1.0:
        raise ParameterError("alpha must lie in (0, 1)")
    if h < 0.0:
        raise ParameterError("h must be nonnegative")
    if theta0 > 1.0:
        rate = information_rate(theta0)
        z = float(ndtri(1.0 - alpha))
        return float(ndtr(h * math.sqrt(rate) - z)), 0.0
    if theta0 != 1.0:
        raise ParameterError("no limiting power law below the critical point")
    if kind in ("ms", "np"):
        u_cut = critical_law(0.0).quantile(1.0 - alpha / 2.0)
        power = 2.0 * (1.0 - critical_law(h).cdf_at(u_cut))
        return float(power), 0.0
    if limit_eigs is None or kappa is None:
        raise ParameterError("critical pl power needs limit_eigs and kappa")
    eigs = tuple(float(v) for v in limit_eigs)
    cut = _v0_quantile(1.0 - alpha, eigs, float(kappa))
    draws = sample_mple_limit(h, eigs, float(kappa), reps, derive_seed(seed, 0))
    power = float(np.mean(draws > cut))
    stderr = math.sqrt(max(power * (1.0 - power), 0.0) / reps)
    return power, stderr
