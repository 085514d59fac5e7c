"""Point estimators: pseudolikelihood and likelihood, exact and plug-in."""
import dataclasses
import hashlib
import math

import numpy as np
import pytest

from ising_infer import (
    CapacityError,
    CouplingMatrix,
    ParameterError,
    SpinConfiguration,
    build_coupling,
    count_law,
    derive_seed,
    draw_counts,
    glauber_sample,
    information_rate,
    mle_exact,
    mle_suff_stats,
    mple,
    mple_counts,
    suff_stat_bounds,
    suff_stat_table,
    substream,
)
from ising_infer import inference, sampler, special, theory
from ising_infer.coupling import limiting_spectrum
from ising_infer.sampler import CountLaw, tilted_table
from oracles import brent_table_mle, enumerate_state_distribution, suff_stats_by_code


def _spins_from_code(code: int, n: int) -> np.ndarray:
    return np.array([1 if (code >> i) & 1 else -1 for i in range(n)], dtype=np.int8)


def test_mple_zero_statistic_has_zero_root():
    cpl = build_coupling("complete", 4)
    res = mple(np.array([1, 1, 1, -1]), cpl)
    assert res.exists
    assert abs(res.value) < 1e-10
    assert abs(res.diagnostics["residual"]) < 1e-11


def test_mple_aligned_configuration_diverges():
    cpl = build_coupling("complete", 4)
    res = mple(np.ones(4, dtype=np.int8), cpl)
    assert not res.exists
    assert res.value == math.inf
    assert res.iterations == 0


def test_mple_antialigned_diverges_negative():
    cpl = build_coupling("complete", 4)
    res = mple(np.array([1, 1, -1, -1]), cpl)
    assert not res.exists
    assert res.value == -math.inf


def test_mple_accepts_configuration_and_raw_spins():
    cpl = build_coupling("bipartite", 10)
    config = glauber_sample(cpl, 1.2, 3, sweeps=40)
    a = mple(config)
    b = mple(config.spins, cpl)
    assert a.value == b.value
    assert a.exists == b.exists
    with pytest.raises(ParameterError):
        mple(config.spins)


def test_mple_root_quality():
    cpl = build_coupling("bipartite", 50)
    for seed in range(5):
        config = glauber_sample(cpl, 1.1, seed, sweeps=60)
        res = mple(config)
        if not res.exists:
            continue
        assert abs(res.diagnostics["residual"]) < 1e-10
        lo, hi = res.bracket
        assert lo <= res.value <= hi
        assert res.iterations >= 1


def test_mple_degenerate_fields():
    cpl = CouplingMatrix(4, np.zeros((4, 4)))
    res = mple(np.array([1, -1, 1, -1]), cpl)
    assert not res.exists
    assert math.isnan(res.value)
    assert res.diagnostics["degenerate"] is True


def test_mple_existence_phrasings_can_disagree():
    # x = (+1, -1) on a single positive edge sits at the lower boundary
    # even though the spins are not all aligned on the field support
    entries = np.array([[0.0, 0.5], [0.5, 0.0]])
    res = mple(np.array([1, -1]), CouplingMatrix(2, entries))
    assert not res.exists
    assert res.value == -math.inf
    assert res.diagnostics.get("existence_phrasings_disagree") is True


def _check_counts_against_spins(estimate_counts, estimate_spins, tol):
    # the batched count path against the spin-vector estimator, at every
    # count of every n the enumeration oracle reaches
    for n in range(2, 25):
        cpl = build_coupling("complete", n)
        counts = np.arange(n + 1)
        res = estimate_counts(count_law(cpl), counts)
        for k in counts:
            spins = np.concatenate([np.ones(k), -np.ones(n - k)]).astype(np.int8)
            full = estimate_spins(spins, cpl)
            assert full.exists == res.exists[k], (n, k)
            if full.exists:
                assert abs(full.value - res.value[k]) < tol, (n, k)
            else:
                assert full.value == res.value[k], (n, k)


def test_mple_from_counts_matches_full_vector():
    _check_counts_against_spins(mple_counts, mple, 1e-11)


def _mle_counts(law, counts):
    # the count-law MLE of each atom, through its x'Qx
    return mle_suff_stats(build_coupling("complete", law.n), law.values[counts])


def test_mle_large_n_route_matches_enumeration():
    _check_counts_against_spins(_mle_counts, mle_exact, 1e-9)


def test_count_estimates_balanced_even_n_and_range():
    # k = n/2 gives s = -1 = -sum|t|: the root diverges to -infinity
    res = mple_counts(CountLaw(50), [25])
    assert not res.exists[0]
    assert res.value[0] == -math.inf
    for counts in ([11], [-1], [0, 3, 11]):
        with pytest.raises(ParameterError):
            mple_counts(CountLaw(10), counts)


def _digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        diagnostics = sorted(r.diagnostics.items())
        h.update(
            repr((r.value, r.exists, r.method, r.iterations, r.bracket, diagnostics))
            .encode()
        )
    return h.hexdigest()


def test_pl_core_reproduces_the_scalar_root_finder():
    # digests of every result field: the count half recorded with one
    # unfolded row per count, so folding and mirroring must change no bit;
    # the configuration half recorded with the scalar root-finder the
    # batched core replaced, so a one-row call must iterate exactly as it did.
    # Both were re-recorded when a doubling end where the equation is exactly
    # 0 became the root: the three rows at x'Qx = 0 (n = 1600 at k = 780 and
    # 820, one bipartite configuration) now read theta = 0 after one step,
    # and no other field of any row moved
    h = hashlib.sha256()
    for n in (1, 2, 3, 50, 51, 1600):
        for column in mple_counts(CountLaw(n), np.arange(n + 1)):
            h.update(np.ascontiguousarray(column).tobytes())
    assert h.hexdigest() == (
        "2bafd2681454d72a0a89d402fd540b1ecbf4e5f57342ef1099a4fbd55b32904c"
    )
    configs = []
    for family, n, kwargs, theta in (
        ("bipartite", 40, {}, 1.0),
        ("qpartite", 30, {"q": 3}, 1.2),
        ("random_regular", 30, {"d": 6, "seed": 3}, 0.8),
        ("cyclic_qpartite", 30, {"q": 5}, 1.5),
    ):
        cpl = build_coupling(family, n, **kwargs)
        configs += [
            glauber_sample(cpl, theta, derive_seed(11, r), sweeps=20) for r in range(8)
        ]
    results = [mple(x) for x in configs]
    assert sum(r.exists for r in results) == 29
    assert _digest(results) == (
        "6e1737ef95cbe2ff87eeb47d100cbaa51bc9e49881a10242aed7fac41d50fe69"
    )


# evaluations solve_rows may spend on one root, fixed before the
# one-sided Newton stall was mended (it spent up to 55)
SOLVE_EVALUATIONS = 25


def test_root_finder_evaluations_are_bounded(monkeypatch):
    # the likelihood at every value of the complete n = 2500 table and at
    # s = 0 on bipartite n = 400, and the pseudolikelihood at every atom of
    # both laws: a Newton step below the closing width ends the row, and a
    # doubling end where the equation is exactly 0 is the root
    complete = CountLaw(2500)
    bipartite = count_law(build_coupling("bipartite", 400))
    values, log_mult = complete.merged()
    mle_iterations = [
        inference._table_mle(float(s), values, log_mult).iterations for s in values
    ]
    mle_iterations.append(inference._table_mle(0.0, *bipartite.merged()).iterations)
    assert max(mle_iterations) <= SOLVE_EVALUATIONS
    for law in (complete, bipartite):
        rows = mple_counts(law, np.arange(law.size))
        assert rows.iterations.max() <= SOLVE_EVALUATIONS
        zero = np.flatnonzero(law.values == 0.0)
        assert zero.size
        solved = zero[rows.exists[zero]]
        assert solved.size and (rows.value[solved] == 0.0).all()
        assert (rows.iterations[solved] == 1).all()
    # theory's roots: the magnetization next to theta = 1, across [1.0001, 8]
    # and far above, and the 16 critical MPLE limit quantiles
    theory_iterations = []

    def counted(*args):
        out = special.solve_rows(*args)
        theory_iterations.append(int(out[1].max()))
        return out

    monkeypatch.setattr(theory, "solve_rows", counted)
    theory.spontaneous_magnetization.cache_clear()
    theory._limit_quantile.cache_clear()
    thetas = [1.0 + 1e-12, 1.0 + 1e-8, 1.0 + 1e-4, *np.linspace(1.0001, 8.0, 600), 20.0, 50.0]
    for theta in thetas:
        theory.spontaneous_magnetization(theta)
    for family, kwargs in (
        ("complete", {}), ("bipartite", {}), ("qpartite", {"q": 3}),
        ("cyclic_qpartite", {"q": 5}),
    ):
        lim = limiting_spectrum(family, **kwargs)
        for p in (0.25, 0.5, 0.75, 0.95):
            theory.mple_limit_quantile(p, 0.0, lim.limit_eigs, lim.kappa)
    assert len(theory_iterations) == len(set(thetas)) + 16
    assert max(theory_iterations) <= SOLVE_EVALUATIONS


def test_pl_core_rows_iterate_independently():
    # one call over every count gives each row what a one-row call gives it
    for n in (1, 2, 3, 50, 51, 1600):
        law = CountLaw(n)
        rows = mple_counts(law, np.arange(n + 1))
        for k in range(n + 1):
            one = mple_counts(law, [k])
            for column, alone in zip(rows, one):
                assert column[k] == alone[0] or (
                    np.isnan(column[k]) and np.isnan(alone[0])
                ), (n, k)


def test_pl_blocks_change_no_bit(monkeypatch):
    # mple_counts solves PL_BLOCK_ROWS folded atoms per _pl_rows call
    law = count_law(build_coupling("bipartite", 60))
    atoms = np.arange(law.size)
    whole = mple_counts(law, atoms)
    assert law.size < inference.PL_BLOCK_ROWS
    monkeypatch.setattr(inference, "PL_BLOCK_ROWS", 5)
    for column, blocked in zip(whole, mple_counts(law, atoms)):
        assert column.dtype == blocked.dtype
        assert np.array_equal(column, blocked, equal_nan=True)


def test_suff_stat_bounds_closed_forms():
    assert suff_stat_bounds(build_coupling("complete", 8)) == (-1.0, 7.0)
    assert suff_stat_bounds(build_coupling("complete", 9)) == (-8.0 / 9.0, 8.0)
    assert suff_stat_bounds(build_coupling("bipartite", 10)) == (-10.0, 10.0)
    cpl = build_coupling("qpartite", 12, q=3)
    stats = suff_stats_by_code(cpl)
    assert suff_stat_bounds(cpl) == (float(stats.min()), float(stats.max()))


def test_suff_stat_bounds_are_the_count_law_extremes():
    # one source for the extremes: the closed form (1 - n)/n once rounded
    # one ulp away from the table's n xbar^2 - 1 at odd n such as 3 and 7
    for n in range(2, 65):
        cpl = build_coupling("complete", n)
        values = count_law(cpl).values
        assert suff_stat_bounds(cpl) == (float(values.min()), float(values.max())), n


def test_mle_exact_recovers_parameter():
    n, theta, reps = 12, 1.5, 500
    cpl = build_coupling("complete", n)
    pi = enumerate_state_distribution(cpl, theta)
    rng = substream(812, 0)
    codes = rng.choice(pi.size, size=reps, p=pi)
    values = []
    for code in codes:
        res = mle_exact(_spins_from_code(int(code), n), cpl)
        # divergent estimates enter the median as the limits they are;
        # dropping them would bias the location summary
        values.append(res.value)
        if res.exists:
            assert res.diagnostics["residual"] < 1e-10
    assert abs(float(np.median(values)) - theta) < 0.15


def test_mle_exact_boundaries():
    cpl = build_coupling("complete", 12)
    up = mle_exact(np.ones(12, dtype=np.int8), cpl)
    assert not up.exists and up.value == math.inf
    bip = build_coupling("bipartite", 8)
    anti = np.concatenate([np.ones(4), -np.ones(4)]).astype(np.int8)
    down = mle_exact(anti, bip)
    assert not down.exists and down.value == -math.inf
    assert down.diagnostics["a_n"] == -8.0
    with pytest.raises(CapacityError):
        mle_exact(np.ones(25, dtype=np.int8), build_coupling("complete", 25))


def test_mle_large_n_residual_is_checked():
    n = 1600
    counts = np.arange(0, n + 1, 40)
    res = _mle_counts(CountLaw(n), counts)
    for k, exists, residual in zip(counts, res.exists, res.residual):
        # x'Qx sits on an attainable extreme at k = 0, n/2 and n
        assert exists == (k not in (0, n // 2, n)), k
        if exists:
            assert residual <= 1e-10, k
        else:
            assert math.isnan(residual), k


def test_mle_large_n_negative_root():
    res = _mle_counts(CountLaw(16), [9])
    assert res.exists[0]
    assert res.value[0] < 0.0


def _merged_table(values, log_mult):
    # the table with equal x'Qx floats merged: the same likelihood, so the
    # same root up to rounding, at far fewer entries than the atoms
    order = np.argsort(values)
    values = values[order]
    starts = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
    return values[starts], np.logaddexp.reduceat(log_mult[order], starts)


def test_merged_tables_are_the_sorted_distinct_values():
    for coupling in (
        build_coupling("complete", 60),
        build_coupling("complete", 61),
        build_coupling("bipartite", 400),
        build_coupling("qpartite", 45, q=3),
    ):
        law = count_law(coupling)
        values, log_mult = law.merged()
        want_values, want_log_mult = _merged_table(law.values, law.log_mult)
        assert np.array_equal(values, want_values)
        assert np.allclose(log_mult, want_log_mult, rtol=1e-14, atol=0.0)
        assert (values[0], values[-1]) == (law.values.min(), law.values.max())
        assert law.merged()[0] is values
        assert not values.flags.writeable and not log_mult.flags.writeable


@pytest.mark.parametrize(
    "family, n, kwargs",
    [
        ("complete", 60, {}),
        ("complete", 61, {}),
        ("complete", 1600, {}),
        ("bipartite", 400, {}),
        ("random_regular", 20, {"d": 10, "seed": 7}),
    ],
)
def test_mle_matches_the_brent_oracle_on_the_unmerged_table(family, n, kwargs):
    # the one root-finder on the merged table against Brent on the count
    # law in atom order (or the enumeration), at every value of a table of
    # at most 2000 entries, else at 50 draws from each of four thetas. The
    # error is relative to max(1, |theta|): near theta = 0 both solvers
    # stop on an absolute bracket width
    coupling = build_coupling(family, n, **kwargs)
    law = count_law(coupling)
    if law is None:
        values, counts = suff_stat_table(coupling)
        log_mult = np.log(counts)
    else:
        values, log_mult = law.values, law.log_mult
    stats = values
    if values.size > 2000:
        thetas = (0.5, 1.0, 1.5, 3.0)
        uniforms = np.random.default_rng(derive_seed(13, n)).random((len(thetas), 50))
        stats = np.concatenate(
            [values[draw_counts(law, t, u)] for t, u in zip(thetas, uniforms)]
        )
    rows = mle_suff_stats(coupling, stats)
    assert rows.route == "exact"
    for s, value, exists in zip(stats, rows.value, rows.exists):
        want = brent_table_mle(float(s), values, log_mult)
        assert exists == want.exists, s
        if exists:
            assert abs(value - want.value) <= 1e-13 * max(1.0, abs(want.value)), s
        else:
            assert value == want.value, s


def _plugin_gaps(n, plugin, value, exists):
    # sqrt(n) |plug-in - exact| over the statistics where both exist
    assert np.isnan(plugin.value[~plugin.exists]).all()
    both = plugin.exists & exists
    assert both.sum() >= 20
    return math.sqrt(n) * np.abs(plugin.value[both] - value[both])


def test_mle_route_needs_a_table_or_a_dense_regular_coupling():
    # bipartite stored densely has no count law, so past n = 24 it takes
    # the plug-in. That gives no estimate at a root of at most 1: its s <= 0
    # among them, where the complete table cannot follow the eigenvalue -1
    # (at s = -0.5 its root is -1.001, the exact one -0.236)
    n = 400
    coupling = build_coupling("bipartite", n)
    law = count_law(coupling)
    means = [tilted_table(law.values, law.log_mult, t)[1] for t in (0.5, 1.5)]
    stats = np.array([-2.0, -1.0, -0.5, 0.0, *(2.0 * np.array(means))])
    exact = mle_suff_stats(coupling, stats)
    plugin = mle_suff_stats(CouplingMatrix(n, coupling.entries, "custom"), stats)
    assert exact.route == "exact" and plugin.route == "plugin"
    assert exact.exists.all() and abs(exact.value[-1] - 1.5) < 1e-9
    assert plugin.exists.tolist() == [False] * 5 + [True]
    assert np.isnan(plugin.value[:5]).all() and np.isnan(plugin.residual[:5]).all()
    assert (plugin.iterations[:5] == 0).all()
    assert abs(plugin.value[-1] - 1.5) < 0.01
    # past the enumeration a degree-4 graph is too sparse for the plug-in
    # (n * max entry is 8.5) and has no estimate; degree n/2 takes it
    for d, route in ((4, None), (17, "plugin")):
        rows = mle_suff_stats(build_coupling("random_regular", 34, d=d, seed=3), [20.0])
        assert rows.route == route
        assert rows.exists[0] == (route is not None)
        assert np.isnan(rows.value[0]) == (route is None)


# bounds on the median and the 90th percentile of sqrt(n) |plug-in - exact|,
# as fractions of the limit SD 1/sqrt(I(theta0)) of sqrt(n)(mle - theta0)
PLUGIN_MEDIAN, PLUGIN_P90 = 0.15, 0.3
PLUGIN_THETAS = (1.2, 1.5)


@pytest.mark.parametrize(
    "family, kwargs, sizes",
    [("qpartite", {"q": 3}, (150, 600)), ("bipartite", {}, (400, 1600))],
)
def test_plugin_mle_tracks_the_exact_mle(family, kwargs, sizes):
    # the exact MLE solves each draw on the merged count-law table, checked
    # against mle_suff_stats itself at the smaller n; the plug-in is
    # mle_suff_stats on the same matrix stored densely, without a count law
    medians = {theta0: [] for theta0 in PLUGIN_THETAS}
    for n in sizes:
        coupling = build_coupling(family, n, **kwargs)
        dense = CouplingMatrix(n, coupling.entries, "custom")
        law = count_law(coupling)
        draws = {
            theta0: law.values[draw_counts(law, theta0, uniforms)]
            for theta0, uniforms in zip(
                PLUGIN_THETAS, np.random.default_rng(derive_seed(11, n)).random((2, 60))
            )
        }
        values, log_mult = _merged_table(law.values, law.log_mult)
        del law
        sampler._block_law.cache_clear()
        for theta0, stats in draws.items():
            solved = [inference._table_mle(float(s), values, log_mult) for s in stats]
            value = np.array([r.value for r in solved])
            exists = np.array([r.exists for r in solved])
            if n == sizes[0]:
                direct = mle_suff_stats(coupling, stats)
                assert direct.route == "exact"
                assert np.array_equal(direct.exists, exists)
                assert np.allclose(direct.value, value, rtol=1e-12, atol=0.0)
            plugin = mle_suff_stats(dense, stats)
            assert plugin.route == "plugin"
            gaps = _plugin_gaps(n, plugin, value, exists)
            sd = 1.0 / math.sqrt(information_rate(theta0))
            assert np.median(gaps) <= PLUGIN_MEDIAN * sd, (n, theta0, gaps)
            assert np.quantile(gaps, 0.9) <= PLUGIN_P90 * sd, (n, theta0, gaps)
            medians[theta0].append(np.median(gaps))
    for theta0, (small, large) in medians.items():
        assert large < small, (theta0, small, large)


# At theta0 = 1.2 these bounds fail at every n: the median gap reaches
# 0.38 and the 90th percentile 0.68 limit SDs. The plug-in carries no
# log_partition_shift term, which is O(1) on the sqrt(n) scale and grows
# toward theta = 1.
SMALL_N_SHIFT = pytest.mark.xfail(
    strict=True, reason="plug-in without the O(1) shift term at n <= 24"
)


@pytest.mark.parametrize(
    "theta0", [pytest.param(1.2, marks=SMALL_N_SHIFT), 1.5]
)
@pytest.mark.parametrize("n", [16, 20, 24])
def test_plugin_mle_tracks_the_enumerated_mle(n, theta0):
    # x'Qx drawn from the exact enumerated law of a random regular graph of
    # degree n/2. Up to n = 24 the enumeration is the route, so the plug-in
    # is the complete coupling's MLE, on the same table. Far from n =
    # infinity the bounds are twice the block ones
    coupling = build_coupling("random_regular", n, d=n // 2, seed=11)
    values, counts = suff_stat_table(coupling)
    cdf = np.cumsum(tilted_table(values, np.log(counts), theta0)[2])
    uniforms = np.random.default_rng(derive_seed(11, n)).random(200)
    stats = values[np.minimum(np.searchsorted(cdf, uniforms), values.size - 1)]
    exact = mle_suff_stats(coupling, stats)
    plugin = mle_suff_stats(build_coupling("complete", n), stats)
    # the plug-in route withholds every root of at most PLUGIN_MIN_ROOT
    withheld = ~plugin.exists | (plugin.value <= inference.PLUGIN_MIN_ROOT)
    plugin.value[withheld], plugin.exists[withheld] = math.nan, False
    gaps = _plugin_gaps(n, plugin, exact.value, exact.exists)
    sd = 1.0 / math.sqrt(information_rate(theta0))
    assert np.median(gaps) <= 2 * PLUGIN_MEDIAN * sd, gaps
    assert np.quantile(gaps, 0.9) <= 2 * PLUGIN_P90 * sd, gaps


def test_float_noise_near_boundary_is_nonexistence():
    # computing x'Qx for the aligned state at n = 12 lands a hair below
    # n - 1 in floating point; the guard must still call it a boundary
    cpl = build_coupling("complete", 12)
    config = SpinConfiguration.from_spins(np.ones(12, dtype=np.int8), cpl)
    assert config.suff_stat() != 11.0  # the rounding this guards against
    assert not mple(config).exists
    assert not mle_exact(config, cpl).exists


def test_estimate_result_immutable():
    spins = np.repeat([1, -1], [15, 5]).astype(np.int8)
    res = mple(spins, build_coupling("complete", 20))
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.value = 0.0
