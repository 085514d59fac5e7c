"""Point estimators: pseudolikelihood and likelihood, exact and stochastic."""
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
    glauber_sample,
    mle_counts,
    mle_exact,
    mle_stochastic,
    mple,
    mple_counts,
    suff_stat_bounds,
    substream,
)
from ising_infer import inference
from ising_infer.sampler import CountLaw
from oracles import enumerate_state_distribution, suff_stats_by_code


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


def test_mle_large_n_route_matches_enumeration():
    _check_counts_against_spins(mle_counts, mle_exact, 1e-9)


def test_count_estimates_balanced_even_n_and_range():
    # k = n/2 gives s = -1 = -sum|t|: the root diverges to -infinity
    res = mple_counts(CountLaw(50), [25])
    assert not res.exists[0]
    assert res.value[0] == -math.inf
    for counts in ([11], [-1], [0, 3, 11]):
        with pytest.raises(ParameterError):
            mple_counts(CountLaw(10), counts)
        with pytest.raises(ParameterError):
            mle_counts(CountLaw(10), counts)


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
    # batched core replaced, so a one-row call must iterate exactly as it did
    h = hashlib.sha256()
    for n in (1, 2, 3, 50, 51, 1600):
        for column in mple_counts(CountLaw(n), np.arange(n + 1)):
            h.update(np.ascontiguousarray(column).tobytes())
    assert h.hexdigest() == (
        "cd5edc9d0012e0121dd321989df8ff93e3b405e12dc6d0beb7ac73841b802ed4"
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
        "2072c54f193372d6c8282b107bea40ca6b42de8120fa3fb0ef9226c01b81b6d0"
    )


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
    res = mle_counts(CountLaw(n), counts)
    for k, exists, residual in zip(counts, res.exists, res.residual):
        # x'Qx sits on an attainable extreme at k = 0, n/2 and n
        assert exists == (k not in (0, n // 2, n)), k
        if exists:
            assert residual <= 1e-10, k
        else:
            assert math.isnan(residual), k


def test_mle_large_n_negative_root():
    res = mle_counts(CountLaw(16), [9])
    assert res.exists[0]
    assert res.value[0] < 0.0


def test_mle_stochastic_agrees_with_exact():
    n = 16
    cpl = build_coupling("complete", n)
    config = glauber_sample(cpl, 1.5, 77, sweeps=400)
    exact = mle_exact(config, cpl)
    assert exact.exists
    noisy = mle_stochastic(config, cpl, seed=5)
    assert noisy.exists
    assert noisy.method == "mle_stochastic"
    assert abs(noisy.value - exact.value) < 0.05 or "ci_width" in noisy.diagnostics
    trajectory = noisy.diagnostics["trajectory"]
    assert len(trajectory) == noisy.iterations
    # stationary means must be monotone in theta up to Monte Carlo noise
    ordered = sorted(trajectory)
    for (t1, m1, e1), (t2, m2, e2) in zip(ordered, ordered[1:]):
        if t1 < t2:
            assert m2 >= m1 - 2.0 * (e1 + e2)


def test_mle_stochastic_deterministic():
    cpl = build_coupling("complete", 12)
    config = glauber_sample(cpl, 1.3, 9, sweeps=200)
    a = mle_stochastic(config, cpl, seed=31, sweeps=60, tol=0.05, max_iter=24)
    b = mle_stochastic(config, cpl, seed=31, sweeps=60, tol=0.05, max_iter=24)
    assert a.value == b.value
    assert a.diagnostics["trajectory"] == b.diagnostics["trajectory"]


def test_mle_stochastic_boundary_skips_mcmc():
    cpl = build_coupling("complete", 30)
    res = mle_stochastic(np.ones(30, dtype=np.int8), cpl, seed=0)
    assert not res.exists
    assert res.value == math.inf
    assert res.iterations == 0
    assert "trajectory" not in res.diagnostics
    anti = np.concatenate([np.ones(15), -np.ones(15)]).astype(np.int8)
    low = mle_stochastic(anti, build_coupling("bipartite", 30), seed=0)
    assert not low.exists
    assert low.value == -math.inf


def test_mle_stochastic_negative_target():
    # bipartite blocks at (4, -2) block sums give x'Qx = -4: the root is
    # negative and the lower bracket must expand below zero
    cpl = build_coupling("bipartite", 8)
    spins = np.array([1, 1, 1, 1, 1, -1, -1, -1], dtype=np.int8)
    exact = mle_exact(spins, cpl)
    assert exact.exists and exact.value < 0.0
    res = mle_stochastic(
        spins, cpl, seed=14, sweeps=300, tol=0.1, max_iter=40
    )
    assert res.exists
    assert res.value < 0.2
    assert abs(res.value - exact.value) < 0.6


def test_mle_stochastic_existence_assumed_flag():
    cpl = build_coupling("random_regular", 30, d=3, seed=2)
    spins = np.resize([1, 1, -1], 30).astype(np.int8)
    res = mle_stochastic(
        spins, cpl, seed=8, sweeps=20, burn_in=10, tol=0.5, max_iter=9
    )
    assert res.diagnostics.get("existence_assumed") is True
    assert res.bracket is not None


def test_mle_stochastic_validation():
    cpl = build_coupling("complete", 8)
    with pytest.raises(ParameterError):
        mle_stochastic(np.ones(8, dtype=np.int8), cpl, chains=3)


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
