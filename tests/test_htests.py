"""Testing machinery: statistics, calibration, level and power."""
import gc
import math
import weakref

import numpy as np
import pytest

from ising_infer import (
    Calibration,
    CouplingMatrix,
    DrawSet,
    ParameterError,
    TestSpec,
    build_coupling,
    calibrate,
    empirical_power,
    exact_power,
    limit_power,
    limiting_spectrum,
    load_matrix,
    mple_counts,
    run_test,
    save_matrix,
)
from ising_infer import htests, sampler, theory
from ising_infer import test_statistic as statistic_value
from ising_infer.htests import _count_statistics
from ising_infer.sampler import CountLaw, tilted_table
from ising_infer.streams import substream_uniforms
from ising_infer import count_law, derive_seed, draw_counts, glauber_sample, substream
from oracles import asymptotic_power


def _dense_bipartite(n):
    """The bipartite matrix stored densely: no count law, so Glauber draws."""
    return CouplingMatrix(n, build_coupling("bipartite", n).entries, "bipartite")


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


def test_spec_validation(monkeypatch):
    with pytest.raises(ParameterError):
        TestSpec("xx", 1.0, 0.05, 100)
    with pytest.raises(ParameterError):
        TestSpec("ms", 1.0, 0.0, 100)
    with pytest.raises(ParameterError):
        TestSpec("ms", 0.0, 0.05, 100)
    with pytest.raises(ParameterError):
        TestSpec("ms", 1.0, 0.05, 100, calibration="bootstrap")
    TestSpec("ms", 1.0, 0.05, 100, calibration="asymptotic")
    # only the Glauber calibration reads its null draw set, so only it needs
    # one of reps >= MIN_CALIBRATION_REPS at (coupling, theta0), checked
    # before any chain runs
    def no_draws(*args, **kwargs):
        raise AssertionError("a draw ran")

    monkeypatch.setattr(htests, "glauber_sample", no_draws)
    monkeypatch.setattr(htests, "draw_counts", no_draws)
    spec = TestSpec("ms", 1.0, 0.05, 100)
    bip = _dense_bipartite(100)
    bad_nulls = {
        "missing": None,
        "too few reps": DrawSet(bip, 1.0, 0, 500),
        "another coupling": DrawSet(_dense_bipartite(100), 1.0, 0, 1000),
        "another theta": DrawSet(bip, 1.1, 0, 1000),
    }
    for case, null in bad_nulls.items():
        with pytest.raises(ParameterError):
            calibrate(spec, bip, null)
    cpl = build_coupling("complete", 100)
    few = DrawSet(cpl, 1.0, 0, 500)
    assert calibrate(spec, cpl, few).sampler == "exact"
    assert calibrate(spec, cpl).sampler == "exact"


def test_exact_calibration_has_level_alpha():
    # on the complete family (K, gamma) come from the exact count law
    alpha = 0.05
    for n, theta0 in ((400, 1.5), (2500, 1.0)):
        cpl = build_coupling("complete", n)
        law = count_law(cpl)
        pmf = tilted_table(law.values, law.log_mult, theta0)[2]
        k = np.arange(n + 1)
        regions, gammas = set(), []
        for kind in ("ms", "np", "pl"):
            cal = calibrate(TestSpec(kind, theta0, alpha, n), cpl)
            assert cal.sampler == "exact"
            stats = np.array(
                [statistic_value(kind, np.where(k[:n] < j, 1, -1), cpl) for j in k]
            )
            above = pmf[stats > cal.critical_value].sum()
            at = pmf[stats == cal.critical_value].sum()
            assert abs(cal.achieved_level - above) <= 1e-15
            assert cal.achieved_level <= alpha < above + at
            assert 0.0 <= cal.gamma <= 1.0
            assert abs(above + cal.gamma * at - alpha) <= 1e-12, (n, kind)
            # pl never rejects at k in {0, n}, where it does not exist
            inner = slice(1, n)
            regions.add(
                (
                    tuple(k[inner][stats[inner] > cal.critical_value]),
                    tuple(k[inner][stats[inner] == cal.critical_value]),
                )
            )
            gammas.append(cal.gamma)
        assert len(regions) == 1, (n, theta0)
        assert max(gammas) - min(gammas) < 1e-6, gammas
    # at n = 2500, theta0 = 1 all three reject when |2k - n| > 686 and
    # randomize at |2k - n| = 686
    (strict, ties), = regions
    assert min(abs(2 * j - n) for j in strict) == 688
    assert sorted(abs(2 * j - n) for j in ties) == [686, 686]
    assert abs(gammas[0] - 0.327) < 5e-4
    cal = calibrate(TestSpec("ms", 1.0, alpha, n), cpl)
    assert abs(cal.critical_value - 686**2 / n) < 1e-9


def test_randomized_calibration_has_level_alpha_in_sample():
    # gamma tops the conservative level P(T > K) up to exactly alpha on the
    # Glauber calibration sample
    alpha = 0.05
    cpl, kind, theta0, seed = _dense_bipartite(4), "np", 1.0, 5
    null = DrawSet(cpl, theta0, seed, 1000)
    cal = calibrate(TestSpec(kind, theta0, alpha, cpl.n), cpl, null)
    assert cal.sampler == "glauber"
    stats = null.stats[kind]
    above = float(np.mean(stats > cal.critical_value))
    at = float(np.mean(stats == cal.critical_value))
    assert above == cal.achieved_level <= alpha
    assert 0.0 <= cal.gamma <= 1.0
    assert abs(above + cal.gamma * at - alpha) < 1e-12


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
    draws = substream_uniforms(8, reps, 2)
    counts, uniforms = draw_counts(count_law(cpl), 1.2, draws[:, 0]), draws[:, 1]
    assert np.all((0.0 <= uniforms) & (uniforms < 1.0))
    xbar = (2.0 * counts - n) / n
    batch_set = DrawSet(cpl, 1.2, 8, reps)
    batch, batch_uniforms = batch_set.stats, batch_set.uniforms
    assert np.array_equal(batch["ms"], n * xbar * xbar)
    assert np.array_equal(batch_uniforms, uniforms)
    # one configuration's statistic is bit-identical to the batch value of
    # its +1 count, so ties with a calibrated K are exact
    for kind in ("ms", "np", "pl"):
        for k, value in zip(counts, batch[kind]):
            spins = np.where(np.arange(n) < k, 1, -1).astype(np.int8)
            assert statistic_value(kind, spins, cpl) == value, (kind, k)

    bip = _dense_bipartite(6)
    stats = DrawSet(bip, 1.0, 9, 5).stats["np"]
    want = [
        statistic_value("np", glauber_sample(bip, 1.0, derive_seed(9, r)), bip)
        for r in range(5)
    ]
    assert np.array_equal(stats, want)


def test_randomized_decisions_are_reproducible():
    n = 64
    cpl = build_coupling("complete", n)
    spec = TestSpec("ms", 1.0, 0.05, n)
    cal = calibrate(spec, cpl)
    assert 0.0 < cal.gamma < 1.0
    theta_n = 1.0 + 1.0 / math.sqrt(n)
    a = empirical_power(cal, DrawSet(cpl, theta_n, 21, 1000))
    assert a == empirical_power(cal, DrawSet(cpl, theta_n, 21, 1000))

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
    kw = dict(theta0=1.2, alpha=0.05, n=150)
    k_ms = calibrate(TestSpec("ms", **kw), cpl).critical_value
    k_np = calibrate(TestSpec("np", **kw), cpl).critical_value
    assert abs((k_ms - k_np) - 1.0) < 1e-9


def test_ms_np_identical_decisions_on_complete():
    # on the complete family the two statistics are a fixed shift apart,
    # so calibrated at the same level they must reject the same samples
    n = 100
    cpl = build_coupling("complete", n)
    kw = dict(theta0=1.0, alpha=0.1, n=n)
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
    spec = TestSpec("ms", 1.0, 0.05, 64)
    out = run_test(np.ones(64, dtype=np.int8), spec, cpl)
    assert out.reject == (out.statistic > out.critical_value)
    assert out.statistic == 64.0
    assert out.reject


def test_glauber_batch_used_off_complete():
    cpl = build_coupling("bipartite", 40)
    stats = DrawSet(cpl, 1.0, 5, 50).stats["ms"]
    assert stats.shape == (50,)
    again = DrawSet(cpl, 1.0, 5, 50).stats["ms"]
    assert np.array_equal(stats, again)


def _reading(draws: DrawSet) -> list:
    """The uniforms, and per kind the statistics and the power of a
    randomized rule whose K is the set's median atom."""
    out = [draws.uniforms.tolist()]
    for kind in ("ms", "np", "pl"):
        stats = draws.stats[kind]
        spec = TestSpec(kind, 1.0, 0.05, draws.coupling.n)
        median = float(np.sort(stats)[stats.size // 2])
        cal = Calibration(median, None, "theory", spec, 0.5)
        out += [stats.tolist(), empirical_power(cal, draws)]
    return out


@pytest.mark.parametrize("family, n", [("complete", 64), ("bipartite", 6)])
def test_draw_sets_do_not_depend_on_call_order(family, n):
    # a set's draws are its own: sets at other (theta, seed) made and read
    # before, between its making and its first read, or after change nothing
    cpl = build_coupling(family, n)
    first = DrawSet(cpl, 1.2, 3, 40)
    alone = _reading(first)
    _reading(DrawSet(cpl, 1.5, 4, 40))
    target = DrawSet(cpl, 1.2, 3, 40)
    _reading(DrawSet(cpl, 1.2, 5, 40))
    assert _reading(target) == alone
    _reading(DrawSet(cpl, 1.0, 6, 40))
    assert _reading(target) == alone
    assert _reading(first) == alone


def test_run_test_needs_a_calibration_off_count_laws(monkeypatch):
    # with no null draw set to read, a Glauber calibration raises rather
    # than run chains of its own
    def no_draws(*args, **kwargs):
        raise AssertionError("a Glauber draw ran")

    monkeypatch.setattr(htests, "glauber_sample", no_draws)
    spec = TestSpec("ms", 1.0, 0.05, 8)
    with pytest.raises(ParameterError):
        run_test(np.ones(8, dtype=np.int8), spec, _dense_bipartite(8))


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
    k_mc = calibrate(TestSpec("ms", 1.0, 0.05, n), cpl)
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
    cal = calibrate(TestSpec("ms", 1.5, 0.05, n), cpl)
    powers = [
        empirical_power(cal, DrawSet(cpl, 1.5 + h / math.sqrt(n), 500 + j, 2000))
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
    spec = TestSpec("ms", theta0, alpha, n)
    cal = Calibration(critical, None, "exact-pmf", spec)
    power = empirical_power(cal, DrawSet(cpl, theta0 + h / math.sqrt(n), 77, 8000))
    assert abs(power - exact_power) < 3.0 * math.sqrt(
        exact_power * (1.0 - exact_power) / 8000
    )


def test_empirical_power_validation():
    cpl = build_coupling("complete", 100)
    spec = TestSpec("ms", 1.0, 0.05, 100)
    cal = calibrate(spec, cpl)
    # power draws sit at theta0 + h/sqrt(n) with h >= 0, on the spec's n
    with pytest.raises(ParameterError):
        empirical_power(cal, DrawSet(cpl, 1.0 - 1.0 / math.sqrt(100), 0, 1000))
    with pytest.raises(ParameterError):
        empirical_power(cal, DrawSet(build_coupling("complete", 101), 1.0, 0, 1000))
    with pytest.raises(ParameterError):
        exact_power(spec, cpl, -1.0)
    with pytest.raises(ParameterError):
        exact_power(TestSpec("ms", 1.0, 0.05, 4), _dense_bipartite(4), 0.0)


def test_pl_count_statistics_are_mirrored():
    # pl is solved once per min(k, n - k), and each count gets exactly the
    # one-count estimate, -inf where it does not exist
    for n in (1, 2, 3, 50, 51, 400):
        k, law = np.arange(n + 1), CountLaw(n)
        stats = _count_statistics(law, "pl")
        assert np.array_equal(stats, stats[::-1])
        want = [
            e.value[0] if e.exists[0] else -math.inf
            for e in (mple_counts(law, [j]) for j in k)
        ]
        assert np.array_equal(stats, want), n


def test_dropped_count_laws_free_their_caches():
    # a law's tilted pmfs and statistic columns live on the law, so once
    # the law cache drops it nothing else keeps it alive
    laws = [count_law(build_coupling("complete", n)) for n in range(1501, 1506)]
    # the first law is read last, so a cache of the latest reads holds it
    for law in laws[::-1]:
        law.tilted(1.0)
        for kind in ("ms", "pl"):
            _count_statistics(law, kind)
    first = weakref.ref(laws[0])
    del laws, law
    sampler._block_law.cache_clear()
    gc.collect()
    assert first() is None


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


def test_limit_power_complete_pl_equals_ms():
    # on the complete spectrum D = -1, so V_h > v0 iff U_h^2 > t(v0), the
    # ms rejection region
    for h in (0.0, 0.5, 1.0, 2.0, 4.0):
        ms = limit_power("ms", 1.0, h, 0.05)
        pl = limit_power("pl", 1.0, h, 0.05, limit_eigs=(1.0,), kappa=0.0)
        assert abs(pl - ms) < 1e-12, h


def test_asymptotic_power_wraps_limit_power():
    bipartite = dict(limit_eigs=(1.0, -1.0), kappa=0.0)
    for kind, theta0 in (("ms", 1.0), ("np", 1.0), ("ms", 1.5), ("pl", 1.5)):
        for h in (0.0, 2.0):
            exact = limit_power(kind, theta0, h, 0.05, **bipartite)
            assert asymptotic_power(kind, theta0, h, 0.05, **bipartite) == (exact, 0.0)
    with pytest.raises(ParameterError):
        limit_power("pl", 1.0, 1.0, 0.05)
    with pytest.raises(ParameterError):
        limit_power("ms", 0.9, 1.0, 0.05)


@pytest.mark.parametrize(
    "family,kwargs",
    [
        ("complete", {}),
        ("bipartite", {}),
        ("qpartite", {"q": 3}),
        ("cyclic_qpartite", {"q": 5}),
        ("random_regular", {"eta": 0.1}),
    ],
)
def test_limit_power_at_h0_is_alpha(family, kwargs):
    # calibration and limit power read one cutoff, so at h = 0 every kind
    # rejects with probability alpha under its own limit law
    lim = limiting_spectrum(family, **kwargs)
    for kind in ("ms", "np", "pl"):
        for theta0 in (1.0, 1.5):
            power = limit_power(
                kind, theta0, 0.0, 0.05, limit_eigs=lim.limit_eigs, kappa=lim.kappa
            )
            assert abs(power - 0.05) < 1e-10, (kind, theta0)


def test_asymptotic_ms_calibration_needs_no_cataloged_spectrum(tmp_path):
    # ms reads no limit spectrum, so a loaded (uncataloged) coupling
    # calibrates as the complete one of its n
    n = 40
    path = tmp_path / "complete.txt"
    save_matrix(build_coupling("complete", n), path)
    custom = load_matrix(path)
    for theta0 in (1.0, 1.5):
        spec = TestSpec("ms", theta0, 0.05, n, calibration="asymptotic")
        want = calibrate(spec, build_coupling("complete", n)).critical_value
        assert calibrate(spec, custom).critical_value == want, theta0


def _no_limit_draws(monkeypatch):
    """Make every limit-law Monte Carlo path raise."""

    def forbidden(*args, **kwargs):
        raise AssertionError("limit-law Monte Carlo was called")

    monkeypatch.setattr(theory, "sample_quadratic_limits", forbidden)
    monkeypatch.setattr(theory, "sample_mple_limit", forbidden)


def test_critical_pl_asymptotic_calibration_draws_nothing(monkeypatch):
    _no_limit_draws(monkeypatch)
    for family, n in (("complete", 400), ("bipartite", 400)):
        spec = TestSpec("pl", 1.0, 0.05, n, calibration="asymptotic")
        lim = (1.0,) if family == "complete" else (1.0, -1.0)
        cut = theory.mple_limit_quantile(0.95, 0.0, lim, 0.0)
        k_pl = calibrate(spec, build_coupling(family, n)).critical_value
        assert k_pl == 1.0 + cut / math.sqrt(n)


def test_count_statistics_are_solved_once_per_n(monkeypatch):
    # a count's statistic does not depend on theta, so calibration, every
    # exact power and every draw set read one table of counts 0..n
    solves = []
    solve = htests.mple_counts

    def counted(law, counts):
        solves.append((law.n, np.asarray(counts).tolist()))
        return solve(law, counts)

    monkeypatch.setattr(htests, "mple_counts", counted)
    n = 300
    cpl = build_coupling("complete", n)
    for kind in ("ms", "np", "pl"):
        cal = calibrate(TestSpec(kind, 1.2, 0.05, n), cpl)
        for j, h in enumerate((0.0, 1.0, 3.0)):
            exact_power(cal.spec, cpl, h, cal)
            empirical_power(cal, DrawSet(cpl, 1.2 + h / math.sqrt(n), j, 200))
    assert solves == [(n, list(range(n + 1)))]


def test_ms_np_statistics_solve_no_pl(monkeypatch):
    # each kind's per-count column is built on its first read, so ms and np
    # on a fresh law never run the pseudolikelihood solver
    def forbidden(law, counts):
        raise AssertionError("mple_counts was called")

    monkeypatch.setattr(htests, "mple_counts", forbidden)
    n = 1013  # used by no other test, so its law is fresh
    cpl = build_coupling("complete", n)
    spins = np.where(np.arange(n) < 600, 1, -1).astype(np.int8)
    for kind in ("ms", "np"):
        assert math.isfinite(statistic_value(kind, spins, cpl))
        cal = calibrate(TestSpec(kind, 1.0, 0.05, n), cpl)
        exact_power(cal.spec, cpl, 1.0, cal)


@pytest.mark.parametrize("family", ["complete", "bipartite"])
def test_draw_set_needs_a_positive_rep_count(family):
    cpl = build_coupling(family, 8)
    for reps in (0, -1):
        with pytest.raises(ParameterError, match="reps"):
            DrawSet(cpl, 1.0, 0, reps)


def test_asymptotic_power_validation():
    with pytest.raises(ParameterError):
        asymptotic_power("ms", 0.9, 1.0, 0.05)
    with pytest.raises(ParameterError):
        asymptotic_power("ms", 1.5, -1.0, 0.05)
    with pytest.raises(ParameterError):
        asymptotic_power("ms", 1.5, 1.0, 1.0)


def test_calibration_dataclass_fields():
    cpl = build_coupling("complete", 64)
    spec = TestSpec("pl", 1.0, 0.1, 64)
    cal = calibrate(spec, cpl)
    assert isinstance(cal, Calibration)
    assert cal.spec is spec
    assert math.isfinite(cal.critical_value)
