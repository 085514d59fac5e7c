"""Samplers: enumeration, Glauber dynamics, exact count draws, dumps."""
import hashlib
import math
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from scipy.stats import binom, chisquare

from ising_infer import (
    Calibration,
    CapacityError,
    ParameterError,
    SpinConfiguration,
    TestSpec,
    CouplingMatrix,
    build_coupling,
    centered_quadratic_forms,
    count_law,
    cw_log_partition,
    derive_seed,
    derive_seeds,
    draw_counts,
    glauber_sample,
    glauber_series,
    mle_exact,
    mple,
    mple_counts,
    quadratic_form,
    read_sample_dump,
    run_test,
    substream,
    suff_stat_table,
    write_sample_dump,
)
from ising_infer import test_statistic as statistic_value
from ising_infer import streams
from ising_infer.htests import KINDS
from ising_infer import sampler
from ising_infer.sampler import (
    COUNT_LAW_MAX_ATOMS,
    FIELD_CONSISTENCY_TOL,
    CountLaw,
    decode_spins,
    default_burn_in,
    encode_spins,
    tilted_table,
)
from ising_infer.streams import seed_uniforms, substream_uniforms
from oracles import (
    doubling_suff_stats,
    enumerate_state_distribution,
    exact_enumerate,
    flip_probability,
    glauber_sweep_kernel,
    half_suff_stats,
    per_sweep_glauber_sample,
    suff_stats_by_code,
)


def test_derive_seed_matches_documented_formula():
    digest = hashlib.sha256(b"20260815:3").digest()
    assert derive_seed(20260815, 3) == int.from_bytes(digest[:8], "big")
    with pytest.raises(ValueError):
        derive_seed(1, -1)


def test_derive_seed_refuses_non_integers():
    # the rule hashes decimal text: 2.0 and True would name other streams
    bad = ((1, 2.0), (True, 0), (1, True), (1.0, 2), (None, 0), ("1", 2))
    for master, index in bad:
        with pytest.raises(ParameterError, match="must be an integer"):
            derive_seed(master, index)
    assert derive_seed(np.int64(1), np.uint8(2)) == derive_seed(1, 2)
    assert derive_seed(-3, 0) != derive_seed(3, 0)
    for master, reps in ((2.0, 3), (True, 3), (1, 3.0), (1, np.bool_(True))):
        with pytest.raises(ParameterError, match="must be an integer"):
            derive_seeds(master, reps)
    assert np.array_equal(derive_seeds(np.int32(-3), np.int64(4)), derive_seeds(-3, 4))


def test_derive_seeds_match_the_scalar_rule():
    # master seeds of both signs, at and past 2^64; index ranges across
    # each change in the index's digit count
    spans = (range(0, 12), range(95, 105), range(9_990, 10_010))
    for master in (0, 7, -3, 2**64 - 1, 2**70):
        for span in spans:
            batch = derive_seeds(master, span.stop)[span.start:]
            want = np.array([derive_seed(master, r) for r in span], dtype=np.uint64)
            assert batch.dtype == np.uint64
            assert np.array_equal(batch, want), (master, span)
    empty = derive_seeds(7, 0)
    assert empty.dtype == np.uint64 and empty.shape == (0,)
    with pytest.raises(ValueError):
        derive_seeds(7, -1)


def test_substreams_differ():
    a = substream(7, 0).random(4)
    b = substream(7, 1).random(4)
    assert not np.allclose(a, b)
    assert np.array_equal(a, substream(7, 0).random(4))


def test_substream_uniforms_match_the_scalar_streams():
    # 102 000 (master seed, r) pairs, each against its own Generator
    reps = 17_000
    for k, master in zip((1, 2, 3, 1, 2, 3), (0, 7, 20260815, 123456789, 2**63 - 1, 2**64 - 1)):
        fast = substream_uniforms(master, reps, k)
        slow = np.array([substream(master, r).random(k) for r in range(reps)])
        assert fast.shape == (reps, k)
        assert np.array_equal(fast, slow), (master, k)
    assert substream_uniforms(7, 0, 3).shape == (0, 3)
    with pytest.raises(ValueError):
        substream_uniforms(7, -1, 2)


def test_seed_uniforms_at_the_edge_seeds():
    # one and two 32-bit seed words, and the top bit of each
    seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    for k in (1, 2, 3):
        fast = seed_uniforms(np.array(seeds, dtype=np.uint64), k)
        slow = np.array([np.random.default_rng(seed).random(k) for seed in seeds])
        assert np.array_equal(fast, slow), k


def test_draw_counts_builds_no_generator(monkeypatch):
    law = count_law(build_coupling("bipartite", 40))
    counts = draw_counts(law, 1.1, substream_uniforms(20260815, 500, 1)[:, 0])

    def refuse(*args, **kwargs):
        raise AssertionError("a count-law draw built a Generator")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(streams, "substream", refuse)
    again = draw_counts(law, 1.1, substream_uniforms(20260815, 500, 1)[:, 0])
    assert np.array_equal(again, counts)


def test_spin_configuration_consistency():
    cpl = build_coupling("bipartite", 8)
    spins = np.array([1, 1, -1, 1, -1, -1, 1, 1])
    config = SpinConfiguration.from_spins(spins, cpl)
    config.check(cpl)
    assert abs(config.suff_stat() - quadratic_form(cpl, spins)) < 1e-12
    assert config.xbar == spins.mean()
    tampered = SpinConfiguration.from_parts(spins, config.local_fields + 1e-6)
    with pytest.raises(ParameterError):
        tampered.check(cpl)


def test_spin_configuration_rejects_non_pm1():
    cpl = build_coupling("complete", 4)
    with pytest.raises(ParameterError):
        SpinConfiguration.from_spins([1, 0, 1, 1], cpl)
    with pytest.raises(ParameterError):
        SpinConfiguration.from_spins([1, 1, 1], cpl)


def _run_np_test(x, cpl):
    spec = TestSpec("np", 1.0, 0.05, cpl.n)
    return run_test(x, spec, cpl, Calibration(0.0, None, "theory", spec))


# every entry point that takes a raw spin vector, as f(x, coupling)
SPIN_ENTRY_POINTS = {
    **{
        f"test_statistic_{kind}_{family}": (
            lambda x, cpl, kind=kind: statistic_value(kind, x, cpl), family
        )
        for kind in KINDS
        for family in ("complete", "bipartite")
    },
    "run_test": (_run_np_test, "bipartite"),
    "mple": (mple, "bipartite"),
    "mle_exact": (mle_exact, "bipartite"),
    "quadratic_form": (lambda x, cpl: quadratic_form(cpl, x), "bipartite"),
    "centered_quadratic_forms": (
        lambda x, cpl: centered_quadratic_forms(cpl, x), "bipartite"
    ),
    "from_spins": (SpinConfiguration.from_spins, "bipartite"),
    "glauber_sample_init": (
        lambda x, cpl: glauber_sample(cpl, 1.0, 0, sweeps=1, init=x), "bipartite"
    ),
    "glauber_series_init": (
        lambda x, cpl: glauber_series(cpl, 1.0, 0, samples=1, burn_in=0, init=x),
        "bipartite",
    ),
}


@pytest.mark.parametrize("name", sorted(SPIN_ENTRY_POINTS))
@pytest.mark.parametrize(
    "x", [[0.5, 3, -2, 1, 1, 1], [1, -1, 1, 0, 1, -1], [1, -1, 1, -1]],
    ids=["non_pm1", "zero", "short"],
)
def test_spin_entry_points_refuse_bad_vectors(name, x):
    call, family = SPIN_ENTRY_POINTS[name]
    cpl = build_coupling(family, 6)
    call(np.array([1, -1, 1, 1, -1, -1]), cpl)  # a valid vector goes through
    with pytest.raises(ParameterError):
        call(x, cpl)


def test_ms_without_coupling_checks_spins():
    assert statistic_value("ms", [1, 1, 1, -1]) == 1.0
    with pytest.raises(ParameterError):
        statistic_value("ms", [0.5, 3, -2, 1, 1, 1])


def test_configuration_must_match_its_coupling():
    six = build_coupling("bipartite", 6)
    config = SpinConfiguration.from_spins([1, -1, 1, 1, -1, -1], six)
    with pytest.raises(ParameterError):
        mle_exact(config, build_coupling("bipartite", 8))


def test_complete_statistics_at_large_n_build_no_dense_matrix():
    # n above DENSE_MAX_N: the statistics come from the +1 count alone
    cpl = build_coupling("complete", 30_000)
    spins = np.tile([1, 1, -1], 10_000)
    for kind in KINDS:
        assert math.isfinite(statistic_value(kind, spins, cpl))
        with pytest.raises(ParameterError):
            statistic_value(kind, spins[:-1], cpl)
    assert cpl._entries is None


@pytest.mark.parametrize("n", [4, 9, 14])
def test_free_log_partition_is_n_log_two(n):
    res = exact_enumerate(build_coupling("complete", n), 0.0)
    assert abs(res.log_z - n * math.log(2.0)) < 1e-12


def test_enumeration_pmf_normalized():
    res = exact_enumerate(build_coupling("qpartite", 9, q=3), 0.8)
    assert abs(sum(res.suff_stat_pmf.values()) - 1.0) < 1e-12
    assert all(p >= 0.0 for p in res.suff_stat_pmf.values())


def test_enumeration_dlog_is_tilted_mean():
    res = exact_enumerate(build_coupling("bipartite", 10), 1.2)
    mean = sum(v * p for v, p in res.suff_stat_pmf.items())
    assert abs(res.dlog_z - 0.5 * mean) < 1e-9


def test_log_partition_convex_increasing():
    cpl = build_coupling("complete", 10)
    thetas = [0.0, 0.5, 1.0, 1.5, 2.0]
    dlogs = [exact_enumerate(cpl, t).dlog_z for t in thetas]
    # x'Qx >= -1 on the complete family so dlog_z can dip negative, but
    # convexity of log Z makes the derivative nondecreasing
    assert all(b >= a - 1e-12 for a, b in zip(dlogs, dlogs[1:]))


def test_suff_stat_table_counts():
    cpl = build_coupling("complete", 8)
    values, counts = suff_stat_table(cpl)
    assert counts.sum() == 2**8
    # complete-family statistic is n*xbar^2 - 1, xbar in {-1,...,1}
    expected = sorted({(2 * k - 8) ** 2 / 8.0 - 1.0 for k in range(9)})
    assert np.allclose(values, expected, atol=1e-12)
    # built once per coupling and shared, so read-only
    assert suff_stat_table(cpl)[0] is values
    assert not values.flags.writeable and not counts.flags.writeable


def test_enumerate_state_distribution_flip_symmetry():
    cpl = build_coupling("qpartite", 8, q=2)
    pi = enumerate_state_distribution(cpl, 0.9)
    assert abs(pi.sum() - 1.0) < 1e-12
    total = (1 << 8) - 1
    flipped = pi[np.arange(1 << 8) ^ total]
    assert np.allclose(pi, flipped, atol=1e-14)


def test_capacity_limits():
    with pytest.raises(CapacityError):
        exact_enumerate(build_coupling("complete", 25), 1.0)
    with pytest.raises(CapacityError):
        enumerate_state_distribution(build_coupling("complete", 21), 1.0)
    with pytest.raises(CapacityError):
        glauber_sweep_kernel(
            build_coupling("complete", 21), 1.0, np.zeros(2**21)
        )
    with pytest.raises(CapacityError):
        cw_log_partition(10**7 + 1, 1.0)


def test_flip_probability_shape():
    assert flip_probability(1.0, 0.0) == 0.5
    t = np.linspace(-3, 3, 11)
    p = flip_probability(0.7, t)
    assert np.all(np.diff(p) > 0)
    assert np.allclose(p + flip_probability(0.7, -t), 1.0, atol=1e-15)


def test_default_burn_in_threshold():
    # 20 ceil(sqrt(n)) sweeps, the same on both sides of theta = 1.2
    assert default_burn_in(100, 1.2) == 200
    assert default_burn_in(100, 1.21) == 200
    for theta in (-1.0, 0.5, 1.0, 3.0):
        assert default_burn_in(100, theta) == 200
    assert default_burn_in(99, 1.0) == 200
    assert default_burn_in(101, 1.0) == 220
    assert default_burn_in(1, 1.0) == 20


def test_glauber_deterministic_and_consistent():
    cpl = build_coupling("bipartite", 10)
    a = glauber_sample(cpl, 1.1, 42, sweeps=30)
    b = glauber_sample(cpl, 1.1, 42, sweeps=30)
    c = glauber_sample(cpl, 1.1, 43, sweeps=30)
    assert np.array_equal(a.spins, b.spins)
    assert not np.array_equal(a.spins, c.spins)
    # incremental field updates must agree with a fresh matrix product
    a.check(cpl)


def test_glauber_init_options():
    cpl = build_coupling("complete", 6)
    up = glauber_sample(cpl, 1.0, 0, sweeps=0, init="plus")
    assert np.all(up.spins == 1)
    down = glauber_sample(cpl, 1.0, 0, sweeps=0, init="minus")
    assert np.all(down.spins == -1)
    fixed = glauber_sample(cpl, 1.0, 0, sweeps=0, init=[1, -1, 1, -1, 1, -1])
    assert np.array_equal(fixed.spins, [1, -1, 1, -1, 1, -1])


def test_glauber_series_shapes():
    cpl = build_coupling("complete", 8)
    suff, xbar = glauber_series(cpl, 0.8, 5, samples=25, burn_in=10)
    assert suff.shape == (25,) and xbar.shape == (25,)
    assert np.all(np.abs(xbar) <= 1.0)
    assert np.all(suff >= -1.0 - 1e-12)
    again, _ = glauber_series(cpl, 0.8, 5, samples=25, burn_in=10)
    assert np.array_equal(suff, again)



def _numpy_sweeps(entries, theta, spins, t, sweeps, rng) -> None:
    # the numpy-scalar sweep loop the Python-float loop replaced, verbatim
    n = spins.shape[0]
    for _ in range(sweeps):
        u = rng.random(n)
        for i in range(n):
            p = 0.5 * (1.0 + np.tanh(theta * t[i]))
            new = 1 if u[i] < p else -1
            if new != spins[i]:
                spins[i] = new
                t += (2.0 * new) * entries[:, i]


def _non_dyadic_custom(n=30):
    a = np.random.default_rng(12).random((30, 30)) / 7.0
    a = a + a.T
    np.fill_diagonal(a, 0.0)
    return CouplingMatrix(n, a[:n, :n])


_SWEEP_COUPLINGS = {
    "random_regular_20": lambda: build_coupling("random_regular", 20, d=10, seed=7),
    "random_regular_100": lambda: build_coupling("random_regular", 100, d=10, seed=7),
    "custom": _non_dyadic_custom,
    "bipartite": lambda: build_coupling("bipartite", 40),
    "qpartite": lambda: build_coupling("qpartite", 30, q=3),
}


def _both_sweeps(monkeypatch, draw):
    """``draw()`` under the Python-float sweeps, then under _numpy_sweeps."""
    fast = draw()
    with monkeypatch.context() as m:
        m.setattr(sampler, "_run_sweeps", _numpy_sweeps)
        return fast, draw()


@pytest.mark.parametrize("name", sorted(_SWEEP_COUPLINGS))
@pytest.mark.parametrize("theta", [-0.5, 0.5, 1.0, 1.5])
def test_python_float_sweeps_match_numpy_sweeps(monkeypatch, name, theta):
    # halved fields and a row read give the same bits; math.tanh can move
    # a spin only with probability 2^-53 per update
    cpl = _SWEEP_COUPLINGS[name]()
    seed = derive_seed(18, 100 * cpl.n + int(10 * theta))
    fast, slow = _both_sweeps(
        monkeypatch, lambda: glauber_sample(cpl, theta, seed, sweeps=60)
    )
    assert np.array_equal(fast.spins, slow.spins)
    assert np.array_equal(fast.local_fields, slow.local_fields)
    fast, slow = _both_sweeps(
        monkeypatch,
        lambda: glauber_series(cpl, theta, seed, samples=15, burn_in=25),
    )
    for a, b in zip(fast, slow):
        assert np.array_equal(a, b)


def test_python_float_sweeps_match_on_the_workload_draws(monkeypatch):
    # the estimator law's random_regular draws at their default burn-in
    for n in (20, 100):
        cpl = build_coupling("random_regular", n, d=10, seed=7)
        seed = derive_seed(7, 0)
        fast, slow = _both_sweeps(monkeypatch, lambda: glauber_sample(cpl, 1.5, seed))
        assert np.array_equal(fast.spins, slow.spins)


def _sweep_decisions(u, t, theta=0.5):
    """Where one sweep of _run_sweeps sets +1, at uniforms u and fields t.

    The generator stand-in returns u, and the rows stand-in is a zero
    vector, so a flip adds 0.0 and no field moves. Sites run in blocks of
    1000 so each flip's add stays short.
    """
    plus = np.empty(u.size, dtype=bool)
    for lo in range(0, u.size, 1000):
        block = slice(lo, lo + 1000)
        m = u[block].size
        spins = np.where(np.arange(m) % 2, -1, 1).astype(np.int8)
        rng = types.SimpleNamespace(random=lambda size, b=block: u[b].copy())
        sampler._run_sweeps(np.zeros(m), theta, spins, t[block].copy(), 1, rng)
        plus[block] = spins > 0
    return plus


def _tanh_rule(u, x):
    return np.array(
        [a < 0.5 * (1.0 + math.tanh(b)) for a, b in zip(u.tolist(), x.tolist())]
    )


def test_sweep_thresholds_at_the_ends_of_the_grid():
    # u = 0 maps to atanh(-1) = -inf without a divide warning and sets +1
    # at any field, as the exact rule does; u = 1 - 2^-53 sets +1 only
    # above atanh(1 - 2^-52) = 18.37. At theta = 1/2, theta t = x for t = 2x.
    x = np.array([-40.0, -19.0, 0.0, 18.0, 19.0, 40.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _sweep_decisions(np.zeros(x.size), 2.0 * x).all()
        top = _sweep_decisions(np.full(x.size, 1.0 - 2.0**-53), 2.0 * x)
    assert top.tolist() == [False] * 4 + [True] * 2


def test_sweep_decisions_match_the_tanh_rule():
    # on random pairs the atanh thresholds decide as u < (1 + tanh x) / 2
    rng = np.random.default_rng(2026)
    u = rng.random(1_000_000)
    x = rng.uniform(-25.0, 25.0, u.size)
    assert np.array_equal(_sweep_decisions(u, 2.0 * x), _tanh_rule(u, x))
    # around the probability they may differ on at most four grid points
    x = rng.uniform(-15.0, 15.0, 20_000)
    centre = np.floor(0.5 * (1.0 + np.tanh(x)) * 2.0**53)
    steps = np.arange(-8, 9)
    u = (np.clip(centre[:, None] + steps, 0, 2.0**53 - 1) * 2.0**-53).ravel()
    x = np.repeat(x, steps.size)
    differ = _sweep_decisions(u, 2.0 * x) != _tanh_rule(u, x)
    assert differ.reshape(-1, steps.size).sum(axis=1).max() <= 4
    # at theta = 0 the field drops out: +1 iff u < 1/2, for either sign of t
    u = np.concatenate([rng.random(10_000), 0.5 + np.arange(-3, 4) * 2.0**-53, [0.0]])
    t = rng.uniform(-5.0, 5.0, u.size)
    assert np.array_equal(_sweep_decisions(u, t, theta=0.0), u < 0.5)


@pytest.mark.parametrize("burn_in", [0, 1, 40])
def test_series_fields_agree_with_a_fresh_draw(burn_in):
    # the series keeps its fields across sweeps; the draw recomputes them
    cpl = build_coupling("random_regular", 60, d=10, seed=3)
    suff, _ = glauber_series(cpl, 1.2, 5, samples=1, burn_in=burn_in)
    config = glauber_sample(cpl, 1.2, 5, sweeps=burn_in + 1)
    assert suff[-1] == pytest.approx(config.suff_stat(), abs=FIELD_CONSISTENCY_TOL)


@pytest.mark.parametrize("block", [1, 7, 64, None])
def test_glauber_blocks_of_sweeps_match_the_per_sweep_loop(monkeypatch, block):
    # one random(k n) gives the doubles of k random(n) calls, so the spins
    # and the stream position after the chain are the per-sweep loop's
    if block is not None:
        monkeypatch.setattr(sampler, "SWEEP_BLOCK_UNIFORMS", block)
    couplings = [
        CouplingMatrix(1, np.zeros((1, 1))),
        build_coupling("bipartite", 6),
        build_coupling("random_regular", 20, d=10, seed=7),
        _non_dyadic_custom(30),
        build_coupling("random_regular", 100, d=10, seed=3),
    ]
    cases = [
        (-1.0, 3, "random"), (0.0, 1, "plus"), (0.7, 0, "minus"),
        (1.0, 37, None), (1.5, 12, "vector"),
    ]
    for cpl in couplings:
        for theta, sweeps, init in cases:
            if init == "vector":
                init = np.where(np.arange(cpl.n) % 3 == 0, 1, -1)
            # seeded by int
            got = glauber_sample(cpl, theta, 5, sweeps=sweeps, init=init)
            want = per_sweep_glauber_sample(cpl, theta, np.random.default_rng(5), sweeps, init)
            assert np.array_equal(got.spins, want), (cpl.family, cpl.n, theta, sweeps)
            # by a Generator, which the chain leaves where the loop does
            rng, ref = np.random.default_rng(9), np.random.default_rng(9)
            got = glauber_sample(cpl, theta, rng, sweeps=sweeps, init=init)
            want = per_sweep_glauber_sample(cpl, theta, ref, sweeps, init)
            assert np.array_equal(got.spins, want), (cpl.family, cpl.n, theta, sweeps)
            assert rng.random() == ref.random()


def test_glauber_draw_allocates_no_matrix():
    # a flip adds a row in place; a 2Q copy or an n x n temporary would show
    cpl = build_coupling("random_regular", 400, d=10, seed=1)
    cpl.entries
    tracemalloc.start()
    try:
        glauber_sample(cpl, 1.5, 2, sweeps=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cpl.entries.nbytes / 20


@pytest.mark.parametrize(
    "call",
    [
        lambda cpl: glauber_sample(cpl, 1.0, 0, sweeps=-3),
        lambda cpl: glauber_sample(cpl, 1.0, 0, sweeps=2.0),
        lambda cpl: glauber_sample(cpl, 1.0, 0, sweeps=True),
        lambda cpl: glauber_sample(cpl, math.nan, 0, sweeps=1),
        lambda cpl: glauber_sample(cpl, math.nan, 0),
        lambda cpl: glauber_sample(cpl, -math.inf, 0, sweeps=1),
        lambda cpl: glauber_series(cpl, 1.0, 0, samples=-1, burn_in=0),
        lambda cpl: glauber_series(cpl, 1.0, 0, samples=1.5, burn_in=0),
        lambda cpl: glauber_series(cpl, 1.0, 0, samples=3, burn_in=-2),
        lambda cpl: glauber_series(cpl, math.inf, 0, samples=3),
    ],
)
def test_glauber_refuses_bad_counts_and_theta(call):
    with pytest.raises(ParameterError):
        call(build_coupling("complete", 6))


def test_glauber_takes_negative_theta_and_integer_types():
    # a chain runs at any finite theta; numpy integers are counts too
    cpl = build_coupling("bipartite", 8)
    a = glauber_sample(cpl, -2.5, 4, sweeps=np.int64(12))
    b = glauber_sample(cpl, np.float64(-2.5), 4, sweeps=12)
    assert np.array_equal(a.spins, b.spins)
    suff, xbar = glauber_series(cpl, -1.0, 4, samples=np.int32(0), burn_in=0)
    assert suff.shape == xbar.shape == (0,)


def _shift_per_chunk_suff_stats(coupling):
    # the enumeration loop that rebuilt each chunk's spins by shifts, verbatim
    n = coupling.n
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


def _summation_bound(coupling):
    # both routes sum the n(n - 1) terms +-Q(i, j) in some order, each in at
    # most about 2n rounded adds: 2(n + 1) eps sum |Q(i, j)| covers the two
    return 2 * (coupling.n + 1) * np.finfo(float).eps * np.abs(coupling.entries).sum()


def _dyadic_custom(n):
    # entries k/64 with k < 8: every partial sum of x'Qx is a multiple of
    # 1/64 far below 2^47, so every summation order gives the same bits
    a = np.random.default_rng(5).integers(0, 8, size=(n, n)) / 64.0
    a = np.triu(a, 1)
    return CouplingMatrix(n, a + a.T)


def _enumeration_couplings(n):
    # those whose partial sums are all exact, and those whose are not
    exact = [_dyadic_custom(n)]
    near = [_non_dyadic_custom(n)]
    if n > 10:
        near.append(build_coupling("random_regular", n, d=10, seed=7))
    if n == 20:
        # block couplings, enumerated through their dense entries
        exact += [build_coupling("complete", 16), build_coupling("bipartite", 16)]
        near.append(build_coupling("qpartite", 18, q=3))
    return exact, near


@pytest.mark.parametrize("n", [1, 13, 14, 15, 20])
def test_enumeration_matches_the_shift_per_chunk_loop(n):
    exact, near = _enumeration_couplings(n)
    for cpl in exact + near:
        got = suff_stats_by_code(cpl)
        want = _shift_per_chunk_suff_stats(cpl)
        # a global flip negates every term, and every add rounds symmetrically
        assert np.array_equal(got, got[::-1]), cpl.family
        if cpl in exact:
            assert np.array_equal(got, want), cpl.family
        else:
            assert np.max(np.abs(got - want)) <= _summation_bound(cpl), cpl.family


@pytest.mark.parametrize("n", [1, 13, 14, 15, 20, 22])
def test_half_enumeration_is_the_full_doubling_bit_for_bit(n):
    if n == 22:
        # the last g spans 2^7 scratch chunks, one level per spin 14..20
        couplings = [build_coupling("random_regular", 22, d=10, seed=7)]
    else:
        couplings = sum(_enumeration_couplings(n), [])
    for cpl in couplings:
        full = doubling_suff_stats(cpl)
        half = half_suff_stats(cpl)
        assert half.size == full.size // 2
        assert np.array_equal(half, full[: half.size]), cpl.family
        assert np.array_equal(half[::-1], full[half.size :]), cpl.family
        values, counts = suff_stat_table(cpl)
        want_values, want_counts = np.unique(full, return_counts=True)
        assert np.array_equal(values, want_values), cpl.family
        assert np.array_equal(counts, want_counts), cpl.family
        assert counts.dtype == want_counts.dtype
        assert counts.sum() == 2**cpl.n


def test_suff_stat_table_holds_little_beyond_the_half_table():
    # a fresh coupling, so its table is not cached yet
    cpl = CouplingMatrix(22, build_coupling("random_regular", 22, d=10, seed=7).entries)
    tracemalloc.start()
    try:
        suff_stat_table(cpl)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the half table is 2^21 floats (16.8 MB)
    assert peak < 1.5 * 8 * 2**21


def _streamed_table_couplings(n):
    # all-distinct floats, few distinct floats, and exact sums
    couplings = [_non_dyadic_custom(n), _dyadic_custom(n)]
    if n >= 5:
        d = 10 if n >= 12 else 4
        couplings.append(build_coupling("random_regular", n, d=d, seed=7))
    # the block families, enumerated through dense copies of their entries
    for family, kwargs, step in (("complete", {}, 1), ("bipartite", {}, 2), ("qpartite", {"q": 3}, 3)):
        if n >= 2 and n % step == 0:
            block = build_coupling(family, n, **kwargs)
            couplings.append(CouplingMatrix(n, block.entries))
    return couplings


def _assert_table_is_the_oracle_unique(cpl):
    values, counts = sampler.enumerate_suff_stats(cpl)
    want_values, want_counts = np.unique(suff_stats_by_code(cpl), return_counts=True)
    assert np.array_equal(values.view(np.int64), want_values.view(np.int64))
    assert np.array_equal(counts, want_counts)
    assert counts.dtype == want_counts.dtype


@pytest.mark.parametrize("n", range(1, 21))
def test_streamed_table_is_the_half_table_oracle_bit_for_bit(n):
    for cpl in _streamed_table_couplings(n):
        _assert_table_is_the_oracle_unique(cpl)


@pytest.mark.parametrize("chunk, fold", [(1, 1), (1, 4), (4, 16), (8, 8), (16, 64)])
def test_streamed_table_holds_for_any_block_and_fold(monkeypatch, chunk, fold):
    # small blocks and folds walk many levels, and folds that do compress
    # and folds that do not meet in one table
    monkeypatch.setattr(sampler, "ENUMERATION_CHUNK", chunk)
    monkeypatch.setattr(sampler, "ENUMERATION_FOLD", fold)
    for n in (1, 2, 5, 9, 12):
        for cpl in _streamed_table_couplings(n):
            _assert_table_is_the_oracle_unique(cpl)


def test_streamed_table_stays_under_4_mb_at_n_22():
    # a fresh coupling, so its table is not cached yet; the half table alone
    # would be 2^21 floats (16.8 MB)
    cpl = CouplingMatrix(22, build_coupling("random_regular", 22, d=10, seed=7).entries)
    tracemalloc.start()
    try:
        values, counts = suff_stat_table(cpl)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert counts.sum() == 2**22


def test_streamed_table_sorts_floats_that_do_not_fold_at_once():
    # every float distinct: the codes left go into one region, sorted once,
    # not fold by fold into a growing table (which peaks near 10 half tables)
    cpl = _non_dyadic_custom(20)
    tracemalloc.start()
    try:
        values, counts = sampler.enumerate_suff_stats(cpl)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.size == 2**19 and np.all(counts == 2)
    # the half table is 2^19 floats (4.2 MB); its in-place merge peaked at 5.3
    assert peak < 5 * 8 * 2**19


def test_enumeration_keeps_the_workload_cells():
    # the workload's graph: the same cells once floats within 1e-8 merge
    cpl = build_coupling("random_regular", 20, d=10, seed=7)
    tables = suff_stats_by_code(cpl), _shift_per_chunk_suff_stats(cpl)
    got, want = (np.unique(np.round(t, 8), return_counts=True) for t in tables)
    assert all(map(np.array_equal, got, want))


def test_enumeration_indexes_codes_past_the_old_chunk_split():
    # bits 14 and up were the chunk index of the chunked loop
    cpl = _non_dyadic_custom(22)
    table = suff_stats_by_code(cpl)
    codes = np.random.default_rng(22).integers(0, 1 << 22, size=4096)
    x = ((codes[:, None] >> np.arange(22)) & 1) * 2.0 - 1.0
    direct = np.einsum("ij,jk,ik->i", x, cpl.entries, x)
    assert np.max(np.abs(table[codes] - direct)) <= _summation_bound(cpl)


def test_enumeration_refuses_n_25_before_allocating():
    dense = CouplingMatrix(25, np.ones((25, 25)) - np.eye(25))
    block = build_coupling("complete", 25)
    tracemalloc.start()
    try:
        for cpl in (dense, block):
            with pytest.raises(CapacityError):
                sampler.enumerate_suff_stats(cpl)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the table alone would be 2^25 floats (268 MB)
    assert peak < 1 << 16
    assert block._entries is None


def test_sweep_kernel_stationarity_small():
    cpl = build_coupling("complete", 6)
    pi = enumerate_state_distribution(cpl, 0.7)
    out = glauber_sweep_kernel(cpl, 0.7, pi)
    assert np.max(np.abs(out - pi)) < 1e-12


def test_sweep_kernel_preserves_mass():
    cpl = build_coupling("bipartite", 6)
    rng = np.random.default_rng(1)
    pi = rng.random(2**6)
    pi /= pi.sum()
    out = glauber_sweep_kernel(cpl, 1.3, pi)
    assert abs(out.sum() - 1.0) < 1e-12
    assert np.all(out >= 0.0)


def test_cw_partition_against_enumeration():
    # binomial-collapse route vs full 2^n state sum; conventions differ
    # by theta/2 because n*xbar^2 = x'Qx + 1 on the complete family
    for n in (8, 11):
        cpl = build_coupling("complete", n)
        for theta in (0.4, 1.0, 1.6):
            full = exact_enumerate(cpl, theta).log_z + theta / 2.0
            assert abs(cw_log_partition(n, theta) - full) < 1e-10


def test_cw_dlog_matches_finite_difference():
    # the count law's tilted mean of x'Qx/2 is dlog Z/dtheta, which the
    # exact MLE solves on; n xbar^2 / 2 = x'Qx / 2 + 1/2
    eps, law = 1e-6, count_law(build_coupling("complete", 500))
    for theta in (0.8, 1.5):
        fd = (
            cw_log_partition(500, theta + eps) - cw_log_partition(500, theta - eps)
        ) / (2.0 * eps)
        dlog_z = tilted_table(law.values, law.log_mult, theta)[1]
        assert abs(dlog_z + 0.5 - fd) < 1e-5


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0, 1.5])
def test_complete_count_pmf_matches_enumeration(theta):
    # the binomial table's pmf is the 2^n state law grouped by +1 count
    for n in range(2, 13):
        cpl = build_coupling("complete", n)
        codes = np.arange(1 << n)
        x = ((codes[:, None] >> np.arange(n)) & 1) * 2.0 - 1.0
        logw = 0.5 * theta * np.einsum("ij,ij->i", x @ cpl.entries, x)
        w = np.exp(logw - logw.max())
        plus = ((x + 1.0) / 2.0).sum(axis=1).astype(np.int64)
        want = np.bincount(plus, weights=w, minlength=n + 1) / w.sum()
        law = count_law(cpl)
        got = tilted_table(law.values, law.log_mult, theta)[2]
        assert np.max(np.abs(got - want)) <= 1e-12, n


def _block_couplings():
    """Small block couplings of every kind, each under n = 16."""
    return [
        *(build_coupling("complete", n) for n in range(2, 17)),
        *(build_coupling("bipartite", n) for n in (2, 8, 16)),
        *(build_coupling("qpartite", n, q=3) for n in (3, 9, 15)),
        build_coupling("cyclic_qpartite", 12, q=3),
        *(build_coupling("cyclic_qpartite", n, q=5) for n in (5, 15)),
        # uneven classes, one of size 1, whose own weight pairs no spins
        CouplingMatrix(
            11, family="custom", sizes=[1, 4, 6],
            weights=[[0.3, 0.1, 0.2], [0.1, 0.05, 0.15], [0.2, 0.15, 0.0]],
        ),
    ]


def _atom_spins(law, atom):
    """A +-1 vector whose class a holds the atom's k_a plus spins first."""
    counts = [int(k[0]) for k in law.class_counts([atom])]
    return np.concatenate(
        [np.where(np.arange(m) < k, 1, -1) for k, m in zip(counts, law.sizes)]
    ).astype(np.int8)


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0, 1.7])
def test_count_law_matches_enumeration(theta):
    # the law's tilted table, summed by x'Qx value, is the 2^n state law of
    # the sufficient statistic, with the same log Z and dlog Z
    for cpl in _block_couplings():
        law, n = count_law(cpl), (cpl.family, cpl.n)
        log_z, dlog_z, pmf = tilted_table(law.values, law.log_mult, theta)
        exact = exact_enumerate(cpl, theta)
        assert abs(log_z - exact.log_z) <= 1e-12, n
        assert abs(dlog_z - exact.dlog_z) <= 1e-12, n
        grouped = {}
        for value, mass in zip(np.round(law.values, 10), pmf):
            grouped[value] = grouped.get(value, 0.0) + float(mass)
        assert grouped.keys() == exact.suff_stat_pmf.keys(), n
        for value, mass in grouped.items():
            assert abs(mass - exact.suff_stat_pmf[value]) <= 1e-12, (n, value)


def test_count_law_fields_are_the_local_fields():
    # each atom's field values, repeated by their multiplicities, are the
    # local fields of a configuration with the atom's plus count per class
    for cpl in _block_couplings():
        law = count_law(cpl)
        atoms = np.arange(law.size)
        t, w = law.fields(atoms)
        xbar = law.xbar(atoms)
        for i in atoms:
            spins = _atom_spins(law, i)
            assert law.atom(spins) == i
            assert xbar[i] == spins.mean()
            want = np.sort(cpl.local_fields(spins))
            got = np.sort(np.repeat(t[i], w[i].astype(np.int64)))
            assert np.allclose(got, want, rtol=0.0, atol=1e-12), (cpl.family, i)
            x = spins.astype(np.float64)
            assert abs(law.values[i] - x @ cpl.local_fields(x)) <= 1e-12


def test_count_law_only_for_block_couplings_under_the_cap():
    blocks = [
        build_coupling("complete", 12),
        build_coupling("bipartite", 12),
        build_coupling("qpartite", 12, q=3),
        build_coupling("cyclic_qpartite", 12, q=3),
        CouplingMatrix(4, family="custom", sizes=[4], weights=[[0.5]]),
    ]
    for cpl in blocks:
        assert isinstance(count_law(cpl), CountLaw), cpl.family
    others = [
        build_coupling("random_regular", 12, d=4, seed=1),
        CouplingMatrix(3, np.full((3, 3), 0.5) - np.diag(np.full(3, 0.5))),
        # 801^3 atoms: past the cap, so it keeps Glauber
        build_coupling("qpartite", 2400, q=3),
    ]
    for cpl in others:
        assert count_law(cpl) is None, cpl.family
    # the cap admits every complete coupling to n = 10^7
    assert COUNT_LAW_MAX_ATOMS == 10**7 + 1


def test_count_law_keeps_its_latest_tilt(monkeypatch):
    tilts = []
    tilt = sampler.tilted_table

    def counted(values, log_mult, theta):
        tilts.append(theta)
        return tilt(values, log_mult, theta)

    monkeypatch.setattr(sampler, "tilted_table", counted)
    law = CountLaw(30)
    first = law.tilted(0.1)
    assert law.tilted(0.1) is first
    # a new theta replaces the kept one, so reading 0.1 again recomputes it
    for theta in (0.2, 0.2, 0.1, 0.1):
        law.tilted(theta)
    assert law.tilted(0.1) is not first
    assert tilts == [0.1, 0.2, 0.1]
    assert not first[2].flags.writeable


def test_fold_refuses_non_integral_and_nested_atoms():
    law = CountLaw(10)
    for atoms in ([2.5, 7.9], [2.0], [[1, 2]], np.array([True])):
        with pytest.raises(ParameterError):
            law.fold(atoms)
        with pytest.raises(ParameterError):
            mple_counts(law, atoms)
    folded, inverse = law.fold([2, 8, 10, 5])
    assert folded.tolist() == [0, 2, 5] and inverse.tolist() == [1, 1, 0, 2]
    assert law.fold([])[0].size == 0


def test_glauber_matches_the_bipartite_count_law():
    # off the complete family Glauber is only an oracle; its per-sweep x'Qx
    # frequencies match the exact law's pmf grouped by value
    coupling, theta = build_coupling("bipartite", 16), 0.8
    law = count_law(coupling)
    exact = {}
    for value, mass in zip(np.round(law.values, 10), law.tilted(theta)[2]):
        exact[value] = exact.get(value, 0.0) + float(mass)
    suff, _ = glauber_series(coupling, theta, 4242, samples=40_000)
    keys, observed = np.unique(np.round(suff, 10), return_counts=True)
    empirical = dict(zip(keys.tolist(), (observed / suff.size).tolist()))
    support = set(exact) | set(empirical)
    tv = 0.5 * sum(abs(empirical.get(v, 0.0) - exact.get(v, 0.0)) for v in support)
    assert tv < 0.03, tv


def _chi_square_pvalue(counts, pmf) -> float:
    observed = np.bincount(counts, minlength=pmf.size).astype(np.float64)
    expected = counts.size * pmf
    # pool the sparse tails so every cell expects at least 5 draws
    rich = expected >= 5.0
    obs, exp = observed[rich], expected[rich]
    if not rich.all():
        obs = np.append(obs, observed[~rich].sum())
        exp = np.append(exp, expected[~rich].sum())
    return chisquare(obs, exp * (obs.sum() / exp.sum())).pvalue


def test_cw_aux_counts_match_the_count_pmf():
    n, reps = 30, 20_000
    law = count_law(build_coupling("complete", n))
    counts = draw_counts(law, 1.2, substream_uniforms(6006, reps, 1)[:, 0])
    pmf = tilted_table(law.values, law.log_mult, 1.2)[2]
    assert _chi_square_pvalue(counts, pmf) > 1e-3
    # theta = 0 is the free model: each count is Binomial(n, 1/2)
    counts = draw_counts(law, 0.0, substream_uniforms(6007, reps, 1)[:, 0])
    assert _chi_square_pvalue(counts, binom.pmf(np.arange(n + 1), n, 0.5)) > 1e-3


def test_glauber_chain_matches_the_bipartite_count_law_by_chi_square():
    # one chain, thinned to every 10th sweep (ample at theta = 0.5, well
    # inside the high-temperature phase); its class-count atoms against
    # the exact pmf. Seed 6008 and the floor p > 1e-3 were fixed before
    # the first run.
    coupling, theta, draws = build_coupling("bipartite", 100), 0.5, 4000
    law = count_law(coupling)
    config = glauber_sample(coupling, theta, derive_seed(6008, 0))
    atoms = np.empty(draws, dtype=np.int64)
    for r in range(draws):
        config = glauber_sample(
            coupling, theta, derive_seed(6008, r + 1), sweeps=10, init=config.spins
        )
        atoms[r] = law.atom(config.spins)
    assert _chi_square_pvalue(atoms, law.tilted(theta)[2]) > 1e-3


# One independent chain per replication at the default burn-in, against the
# exact law of x'Qx. The seeds and the floor p > 1e-3 were fixed before the
# first run.
@pytest.mark.parametrize(
    "family, n, kwargs, theta, seed",
    [
        ("bipartite", 100, {}, 1.0, 6011),
        ("bipartite", 100, {}, 1.5, 6012),
        ("qpartite", 99, {"q": 3}, 1.0, 6013),
        ("qpartite", 99, {"q": 3}, 1.5, 6014),
    ],
)
def test_default_burn_in_chains_match_the_count_law_by_chi_square(
    family, n, kwargs, theta, seed
):
    coupling = build_coupling(family, n, **kwargs)
    law = count_law(coupling)
    # cells are the distinct x'Qx values; each atom falls in its value's cell
    cells, cell_of_atom = np.unique(np.round(law.values, 9), return_inverse=True)
    pmf = np.bincount(cell_of_atom, weights=law.tilted(theta)[2], minlength=cells.size)
    chains = [glauber_sample(coupling, theta, derive_seed(seed, r)) for r in range(300)]
    drawn = np.array([cell_of_atom[law.atom(chain.spins)] for chain in chains])
    assert _chi_square_pvalue(drawn, pmf) > 1e-3


@pytest.mark.parametrize("theta, seed", [(1.0, 6015), (1.5, 6016)])
def test_default_burn_in_chains_match_the_enumeration_by_chi_square(theta, seed):
    # the graph of the estimator_random_regular benchmark workload
    coupling = build_coupling("random_regular", 20, d=10, seed=7)
    values, counts = suff_stat_table(coupling)
    # the table splits one x'Qx into several floats; rounding joins them
    cells, cell_of_value = np.unique(np.round(values, 8), return_inverse=True)
    probs = tilted_table(values, np.log(counts), theta)[2]
    pmf = np.bincount(cell_of_value, weights=probs)
    drawn = np.round(
        [
            glauber_sample(coupling, theta, derive_seed(seed, r)).suff_stat()
            for r in range(1000)
        ],
        8,
    )
    cell = np.searchsorted(cells, drawn)
    assert np.array_equal(cells[cell], drawn)
    assert _chi_square_pvalue(cell, pmf) > 1e-3


def test_cw_aux_counts_substream_alignment():
    # replication r's count is the first uniform of substream(seed, r),
    # mapped by inverse CDF on the count pmf
    n, theta, seed, reps = 40, 1.4, 123, 6
    law = count_law(build_coupling("complete", n))
    counts = draw_counts(law, theta, substream_uniforms(seed, reps, 1)[:, 0])
    cdf = np.cumsum(tilted_table(law.values, law.log_mult, theta)[2])
    for r in range(reps):
        rng = substream(seed, r)
        assert counts[r] == min(np.searchsorted(cdf, rng.random(), side="right"), n)
    assert np.all((0 <= counts) & (counts <= n))


def test_cw_aux_counts_input_checks():
    law = count_law(build_coupling("complete", 10))
    with pytest.raises(ParameterError):
        draw_counts(law, -0.1, np.full(5, 0.5))
    for n in (0, COUNT_LAW_MAX_ATOMS):
        with pytest.raises(CapacityError):
            CountLaw(n)
    assert draw_counts(law, 1.0, np.empty(0)).shape == (0,)
    # the ends of [0, 1) land on the first and last atoms
    assert draw_counts(law, 1.0, np.array([0.0, 1.0 - 2.0**-53])).tolist() == [0, 10]


def test_spin_string_round_trip():
    spins = np.array([1, -1, -1, 1, 1], dtype=np.int8)
    assert encode_spins(spins) == "+--++"
    assert np.array_equal(decode_spins("+--++"), spins)
    with pytest.raises(ParameterError):
        decode_spins("+-x")
    with pytest.raises(ParameterError):
        decode_spins("")


def test_sample_dump_round_trip(tmp_path):
    cpl = build_coupling("complete", 6)
    rows = []
    for r in range(3):
        config = glauber_sample(cpl, 0.9, derive_seed(11, r), sweeps=20)
        rows.append(
            {
                "seed": derive_seed(11, r),
                "n": 6,
                "theta": 0.9,
                "xbar": config.xbar,
                "xqx": config.suff_stat(),
                "xbx": 0.25,
                "xb2x": 0.125,
                "spins": config.spins,
            }
        )
    path = tmp_path / "dump.csv"
    write_sample_dump(path, rows)
    back = read_sample_dump(path)
    assert len(back) == 3
    for rec, row in zip(back, rows):
        assert rec["seed"] == row["seed"]
        assert rec["theta"] == row["theta"]
        assert rec["xqx"] == row["xqx"]
        assert np.array_equal(rec["spins"], row["spins"])


def test_sample_dump_header_check(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("seed,n\n1,2\n")
    with pytest.raises(ParameterError):
        read_sample_dump(path)
