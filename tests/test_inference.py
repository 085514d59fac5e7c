"""Point estimators: pseudolikelihood and likelihood, exact and stochastic."""
import dataclasses
import math

import numpy as np
import pytest

from ising_infer import (
    CapacityError,
    CouplingMatrix,
    ParameterError,
    SpinConfiguration,
    build_coupling,
    glauber_sample,
    mle_complete_large_n,
    mle_exact,
    mle_stochastic,
    mple,
    mple_from_counts,
    suff_stat_bounds,
    suff_stat_table,
    substream,
)
from ising_infer.sampler import enumerate_state_distribution, enumerate_suff_stats


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


def test_mple_from_counts_matches_full_vector():
    n = 51
    cpl = build_coupling("complete", n)
    for k in (0, 1, 7, 25, 26, 44, 50, 51):
        spins = np.concatenate([np.ones(k), -np.ones(n - k)]).astype(np.int8)
        full = mple(spins, cpl)
        collapsed = mple_from_counts(n, k)
        assert full.exists == collapsed.exists
        if full.exists:
            assert abs(full.value - collapsed.value) < 1e-11
        else:
            assert full.value == collapsed.value


def test_mple_from_counts_balanced_even_n():
    # k = n/2 gives s = -1 = -sum|t|: the root diverges to -infinity
    res = mple_from_counts(50, 25)
    assert not res.exists
    assert res.value == -math.inf
    with pytest.raises(ParameterError):
        mple_from_counts(10, 11)


def test_suff_stat_bounds_closed_forms():
    assert suff_stat_bounds(build_coupling("complete", 8)) == (-1.0, 7.0)
    assert suff_stat_bounds(build_coupling("complete", 9)) == (-8.0 / 9.0, 8.0)
    assert suff_stat_bounds(build_coupling("bipartite", 10)) == (-10.0, 10.0)
    cpl = build_coupling("qpartite", 12, q=3)
    stats = enumerate_suff_stats(cpl)
    assert suff_stat_bounds(cpl) == (float(stats.min()), float(stats.max()))


def test_mle_exact_recovers_parameter():
    n, theta, reps = 12, 1.5, 500
    cpl = build_coupling("complete", n)
    table = suff_stat_table(cpl)
    pi = enumerate_state_distribution(cpl, theta)
    rng = substream(812, 0)
    codes = rng.choice(pi.size, size=reps, p=pi)
    values = []
    for code in codes:
        res = mle_exact(_spins_from_code(int(code), n), cpl, table)
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


def test_mle_large_n_route_matches_enumeration():
    for n in range(2, 25):
        cpl = build_coupling("complete", n)
        table = suff_stat_table(cpl)
        for k in range(n + 1):
            spins = np.concatenate([np.ones(k), -np.ones(n - k)]).astype(np.int8)
            a = mle_exact(spins, cpl, table)
            b = mle_complete_large_n(n, k)
            assert a.exists == b.exists
            if a.exists:
                assert abs(a.value - b.value) < 1e-9
            else:
                assert a.value == b.value


def test_mle_large_n_residual_is_checked():
    n = 1600
    for k in range(0, n + 1, 40):
        res = mle_complete_large_n(n, k)
        # x'Qx sits on an attainable extreme at k = 0, n/2 and n
        assert res.exists == (k not in (0, n // 2, n)), k
        if res.exists:
            assert res.diagnostics["residual"] <= 1e-10, k


def test_mle_large_n_negative_root():
    res = mle_complete_large_n(16, 9)
    assert res.exists
    assert res.value < 0.0


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
    res = mple_from_counts(20, 15)
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.value = 0.0
