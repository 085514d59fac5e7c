"""Testing machinery: statistics, calibration, level and power."""
import math

import numpy as np
import pytest

from ising_infer import (
    Calibration,
    ParameterError,
    TestSpec,
    asymptotic_power,
    build_coupling,
    calibrate,
    empirical_power,
    run_test,
)
from ising_infer import test_statistic as statistic_value
from ising_infer.htests import _statistic_batch
from ising_infer import cw_aux_counts, derive_seed, glauber_sample, substream


def test_statistic_values():
    cpl = build_coupling("complete", 8)
    spins = np.array([1, 1, 1, 1, 1, -1, -1, -1], dtype=np.int8)
    xbar = 2.0 / 8.0
    assert abs(statistic_value("ms", spins, cpl) - 8.0 * xbar**2) < 1e-12
    # complete family ties the two statistics together: x'Qx = n xbar^2 - 1
    gap = statistic_value("ms", spins, cpl) - statistic_value("np", spins, cpl)
    assert abs(gap - 1.0) < 1e-12
    assert statistic_value("pl", np.ones(8, dtype=np.int8), cpl) == -math.inf
    with pytest.raises(ParameterError):
        statistic_value("zz", spins, cpl)
    with pytest.raises(ParameterError):
        statistic_value("np", spins)


def test_statistic_accepts_configuration():
    cpl = build_coupling("bipartite", 12)
    config = glauber_sample(cpl, 1.1, 4, sweeps=50)
    for kind in ("ms", "np", "pl"):
        assert statistic_value(kind, config, cpl) == statistic_value(
            kind, config.spins, cpl
        )


def test_statistic_equal_on_glauber_configuration_and_its_spins():
    cpl = build_coupling("random_regular", 60, d=10, seed=3)
    for seed in range(40):
        config = glauber_sample(cpl, 1.3, seed, sweeps=50)
        for kind in ("np", "pl"):
            assert statistic_value(kind, config, cpl) == statistic_value(
                kind, config.spins, cpl
            ), (seed, kind)


def test_spec_validation():
    with pytest.raises(ParameterError):
        TestSpec("xx", 1.0, 0.05, 100)
    with pytest.raises(ParameterError):
        TestSpec("ms", 1.0, 0.0, 100)
    with pytest.raises(ParameterError):
        TestSpec("ms", 0.0, 0.05, 100)
    with pytest.raises(ParameterError):
        TestSpec("ms", 1.0, 0.05, 100, calibration="bootstrap")
    with pytest.raises(ParameterError):
        TestSpec("ms", 1.0, 0.05, 100, reps=500)
    TestSpec("ms", 1.0, 0.05, 100, calibration="asymptotic", reps=500)


def test_monte_carlo_calibration_conservative():
    cpl = build_coupling("complete", 200)
    spec = TestSpec("ms", 1.0, 0.05, 200, reps=4000, seed=3)
    cal = calibrate(spec, cpl)
    assert cal.sampler == "aux-field"
    assert cal.achieved_level is not None
    assert cal.achieved_level <= 0.05
    # K is the smallest attainable cutoff meeting the level: moving the
    # rejection boundary onto K itself would over-reject
    stats, _ = _statistic_batch("ms", cpl, 1.0, 3, 4000)
    assert float(np.mean(stats > cal.critical_value)) == cal.achieved_level
    assert float(np.mean(stats >= cal.critical_value)) >= 0.05


def test_randomized_calibration_has_level_alpha_in_sample():
    # gamma tops the conservative level P(T > K) up to exactly alpha on the
    # calibration sample, for the aux-field and the Glauber null samplers
    alpha = 0.05
    cases = [
        (build_coupling("complete", 400), kind, 1.5, seed)
        for kind in ("ms", "np", "pl")
        for seed in (3, 4)
    ]
    cases.append((build_coupling("bipartite", 4), "np", 1.0, 5))
    for cpl, kind, theta0, seed in cases:
        spec = TestSpec(kind, theta0, alpha, cpl.n, reps=1000, seed=seed)
        cal = calibrate(spec, cpl)
        stats, _ = _statistic_batch(kind, cpl, theta0, seed, 1000)
        above = float(np.mean(stats > cal.critical_value))
        at = float(np.mean(stats == cal.critical_value))
        assert above == cal.achieved_level <= alpha
        assert 0.0 <= cal.gamma <= 1.0
        assert abs(above + cal.gamma * at - alpha) < 1e-12, (kind, seed)


def test_asymptotic_calibration_is_not_randomized():
    cpl = build_coupling("complete", 400)
    for kind in ("ms", "np", "pl"):
        spec = TestSpec(kind, 1.5, 0.05, 400, calibration="asymptotic")
        assert calibrate(spec, cpl).gamma == 0.0


def test_statistic_batch_ignores_tie_break_draws():
    # the tie-break uniform is drawn after each sample, so the statistics
    # are those of the sample streams alone
    n, reps = 50, 40
    cpl = build_coupling("complete", n)
    phis, counts = cw_aux_counts(n, 1.2, 8, reps)
    with_u = cw_aux_counts(n, 1.2, 8, reps, tie_breaks=True)
    assert np.array_equal(with_u[0], phis) and np.array_equal(with_u[1], counts)
    assert np.all((0.0 <= with_u[2]) & (with_u[2] < 1.0))
    xbar = (2.0 * counts - n) / n
    stats, _ = _statistic_batch("ms", cpl, 1.2, 8, reps)
    assert np.array_equal(stats, n * xbar * xbar)
    # one configuration's statistic is bit-identical to the batch value of
    # its +1 count, so ties with a calibrated K are exact
    for kind in ("ms", "np", "pl"):
        stats, _ = _statistic_batch(kind, cpl, 1.2, 8, reps)
        for k, value in zip(counts, stats):
            spins = np.where(np.arange(n) < k, 1, -1).astype(np.int8)
            assert statistic_value(kind, spins, cpl) == value, (kind, k)

    bip = build_coupling("bipartite", 6)
    stats, _ = _statistic_batch("np", bip, 1.0, 9, 5)
    want = [
        statistic_value("np", glauber_sample(bip, 1.0, derive_seed(9, r)), bip)
        for r in range(5)
    ]
    assert np.array_equal(stats, want)


def test_randomized_decisions_are_reproducible():
    n = 64
    cpl = build_coupling("complete", n)
    spec = TestSpec("ms", 1.0, 0.05, n, reps=1000, seed=1)
    cal = calibrate(spec, cpl)
    assert 0.0 < cal.gamma < 1.0
    a = empirical_power(spec, cpl, 1.0, 1000, 21, cal)
    assert a == empirical_power(spec, cpl, 1.0, 1000, 21, cal)

    # a configuration on the atom at K rejects with probability gamma
    plus = round(0.5 * n * (1.0 + math.sqrt(cal.critical_value / n)))
    spins = np.array([1] * plus + [-1] * (n - plus), dtype=np.int8)
    assert statistic_value("ms", spins, cpl) == cal.critical_value
    assert not run_test(spins, spec, cpl, cal).reject
    decisions = [run_test(spins, spec, cpl, cal, seed).reject for seed in range(400)]
    # an int seed and the Generator it seeds give the same decision
    assert decisions == [
        run_test(spins, spec, cpl, cal, np.random.default_rng(seed)).reject
        for seed in range(400)
    ]
    rate = float(np.mean(decisions))
    assert abs(rate - cal.gamma) < 4.0 * math.sqrt(cal.gamma * (1 - cal.gamma) / 400)


def test_calibration_rejects_size_mismatch():
    spec = TestSpec("ms", 1.0, 0.05, 100)
    with pytest.raises(ParameterError):
        calibrate(spec, build_coupling("complete", 101))


def test_ms_np_critical_values_differ_by_one():
    cpl = build_coupling("complete", 150)
    kw = dict(theta0=1.2, alpha=0.05, n=150, reps=2000, seed=9)
    k_ms = calibrate(TestSpec("ms", **kw), cpl).critical_value
    k_np = calibrate(TestSpec("np", **kw), cpl).critical_value
    assert abs((k_ms - k_np) - 1.0) < 1e-9


def test_ms_np_identical_decisions_on_complete():
    # on the complete family the two statistics are a fixed shift apart,
    # so calibrated at the same level they must reject the same samples
    n = 100
    cpl = build_coupling("complete", n)
    kw = dict(theta0=1.0, alpha=0.1, n=n, reps=2000, seed=17)
    cal_ms = calibrate(TestSpec("ms", **kw), cpl)
    cal_np = calibrate(TestSpec("np", **kw), cpl)
    ties = 0
    for r in range(60):
        config = glauber_sample(cpl, 1.15, substream(33, r), sweeps=40)
        a = run_test(config, cal_ms.spec, cpl, cal_ms)
        b = run_test(config, cal_np.spec, cpl, cal_np)
        # a statistic landing exactly on the critical atom decides by
        # float noise between the two evaluation routes; skip those
        if abs(a.statistic - a.critical_value) < 1e-9 * max(
            1.0, abs(a.critical_value)
        ):
            ties += 1
            continue
        assert a.reject == b.reject
    assert ties <= 3
    assert any(
        run_test(
            glauber_sample(cpl, 1.3, substream(34, r), sweeps=40),
            cal_ms.spec,
            cpl,
            cal_ms,
        ).reject
        for r in range(20)
    )


def test_run_test_outcome_shape():
    cpl = build_coupling("complete", 64)
    spec = TestSpec("ms", 1.0, 0.05, 64, reps=1000, seed=1)
    out = run_test(np.ones(64, dtype=np.int8), spec, cpl)
    assert out.reject == (out.statistic > out.critical_value)
    assert out.statistic == 64.0
    assert out.reject


def test_glauber_batch_used_off_complete():
    cpl = build_coupling("bipartite", 40)
    stats, sampler = _statistic_batch("ms", cpl, 1.0, 5, 50)
    assert sampler == "glauber"
    assert stats.shape == (50,)
    again, _ = _statistic_batch("ms", cpl, 1.0, 5, 50)
    assert np.array_equal(stats, again)


def test_asymptotic_calibration_low_regime():
    n = 400
    cpl = build_coupling("complete", n)
    m2 = 0.8585596366401105**2
    k_ms = calibrate(
        TestSpec("ms", 1.5, 0.05, n, calibration="asymptotic"), cpl
    ).critical_value
    assert k_ms > n * m2
    z = 1.6448536269514722
    rate = 0.3199208645349059
    assert abs(k_ms - (n * m2 + 2.0 * z * math.sqrt(n * rate))) < 1e-9
    k_pl = calibrate(
        TestSpec("pl", 1.5, 0.05, n, calibration="asymptotic"), cpl
    ).critical_value
    assert abs(k_pl - (1.5 + z / math.sqrt(n * rate))) < 1e-9
    k_np = calibrate(
        TestSpec("np", 1.5, 0.05, n, calibration="asymptotic"), cpl
    ).critical_value
    # the sufficient statistic recenters by the limit mean of x'Bx
    assert k_np < k_ms


def test_asymptotic_calibration_below_transition_rejected():
    cpl = build_coupling("complete", 100)
    spec = TestSpec("ms", 0.8, 0.05, 100, calibration="asymptotic")
    with pytest.raises(ParameterError):
        calibrate(spec, cpl)


def test_asymptotic_matches_monte_carlo_at_critical():
    # scaled critical values K/sqrt(n) should agree within 5 percent by
    # n = 10^4 for the magnetization statistic at the critical point
    n = 10_000
    cpl = build_coupling("complete", n)
    k_mc = calibrate(TestSpec("ms", 1.0, 0.05, n, reps=10_000, seed=88), cpl)
    k_th = calibrate(TestSpec("ms", 1.0, 0.05, n, calibration="asymptotic"), cpl)
    ratio = k_mc.critical_value / k_th.critical_value
    assert abs(ratio - 1.0) < 0.05


def test_asymptotic_calibration_pl_critical():
    n = 2500
    cpl = build_coupling("complete", n)
    k_pl = calibrate(
        TestSpec("pl", 1.0, 0.05, n, calibration="asymptotic"), cpl
    ).critical_value
    # the ratio-law quantile at alpha = 0.05 sits above zero, K > 1
    assert k_pl > 1.0
    assert k_pl < 1.2


def test_empirical_power_monotone_in_h():
    n = 400
    cpl = build_coupling("complete", n)
    spec = TestSpec("ms", 1.5, 0.05, n, reps=2000, seed=101)
    cal = calibrate(spec, cpl)
    powers = [
        empirical_power(spec, cpl, h, 2000, 500 + j, cal)
        for j, h in enumerate((0.0, 1.0, 2.0, 4.0))
    ]
    se = 2.0 * math.sqrt(0.25 / 2000)
    for a, b in zip(powers, powers[1:]):
        assert b >= a - 2.0 * se
    assert powers[0] <= 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / 2000) + 1.0 / 2000
    assert powers[-1] > powers[0]


def test_empirical_power_tracks_normal_limit():
    # the exact conservative critical value comes from the binomial pmf
    # of the magnetization, an oracle independent of the samplers; the
    # exact finite-n power must sit within 0.05 of the normal limit and
    # the simulated rejection rate within binomial noise of the exact one
    from scipy.special import gammaln, logsumexp

    n, theta0, h, alpha = 1600, 1.5, 2.0, 0.05
    k = np.arange(n + 1)
    s = (2.0 * k - n) ** 2 / n
    logc = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)

    def pmf(theta):
        lw = logc + theta * s / 2.0
        return np.exp(lw - logsumexp(lw))

    p0 = pmf(theta0)
    vals = np.unique(s)
    exceed = np.array([p0[s > v].sum() for v in vals])
    critical = float(vals[np.argmax(exceed <= alpha)])
    exact_power = float(pmf(theta0 + h / math.sqrt(n))[s > critical].sum())
    assert abs(exact_power - 0.30375791027441085) < 0.05

    cpl = build_coupling("complete", n)
    spec = TestSpec("ms", theta0, alpha, n, reps=1000, seed=7)
    cal = Calibration(critical, None, "exact-pmf", spec)
    power = empirical_power(spec, cpl, h, 8000, 77, cal)
    assert abs(power - exact_power) < 3.0 * math.sqrt(
        exact_power * (1.0 - exact_power) / 8000
    )


def test_empirical_power_validation():
    cpl = build_coupling("complete", 100)
    spec = TestSpec("ms", 1.0, 0.05, 100)
    with pytest.raises(ParameterError):
        empirical_power(spec, cpl, -1.0, 1000, 0)


def test_asymptotic_power_values():
    p, err = asymptotic_power("ms", 1.5, 2.0, 0.05)
    assert err == 0.0
    assert abs(p - 0.30375791027441085) < 1e-12
    # all three kinds share the normal curve above the transition
    assert asymptotic_power("np", 1.5, 2.0, 0.05) == (p, 0.0)
    assert asymptotic_power("pl", 1.5, 2.0, 0.05) == (p, 0.0)
    p0, _ = asymptotic_power("ms", 1.5, 0.0, 0.05)
    assert abs(p0 - 0.05) < 1e-12


def test_asymptotic_power_critical_quadrature():
    p, err = asymptotic_power("ms", 1.0, 1.0, 0.05)
    assert err == 0.0
    assert abs(p - 0.2585731485329885) < 1e-9
    q, _ = asymptotic_power("np", 1.0, 2.0, 0.05)
    assert abs(q - 0.7182079964840926) < 1e-9
    p0, _ = asymptotic_power("ms", 1.0, 0.0, 0.05)
    assert abs(p0 - 0.05) < 1e-6


def test_asymptotic_power_critical_pl_needs_limit():
    with pytest.raises(ParameterError):
        asymptotic_power("pl", 1.0, 1.0, 0.05)
    p, err = asymptotic_power(
        "pl", 1.0, 1.0, 0.05, limit_eigs=(1.0,), kappa=0.0, reps=40_000
    )
    assert 0.0 < p < 1.0
    assert err > 0.0
    assert err < 0.01


def test_asymptotic_power_validation():
    with pytest.raises(ParameterError):
        asymptotic_power("ms", 0.9, 1.0, 0.05)
    with pytest.raises(ParameterError):
        asymptotic_power("ms", 1.5, -1.0, 0.05)
    with pytest.raises(ParameterError):
        asymptotic_power("ms", 1.5, 1.0, 1.0)


def test_calibration_dataclass_fields():
    cpl = build_coupling("complete", 64)
    spec = TestSpec("pl", 1.0, 0.1, 64, reps=1000, seed=2)
    cal = calibrate(spec, cpl)
    assert isinstance(cal, Calibration)
    assert cal.spec is spec
    assert math.isfinite(cal.critical_value)
