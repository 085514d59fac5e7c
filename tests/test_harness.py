"""Config parsing, experiment pipelines, result IO, and the CLI."""
import concurrent.futures
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from ising_infer import (
    ConfigError,
    ExperimentConfig,
    ParameterError,
    __version__,
    config_hash,
    derive_seed,
    emit,
    mle_suff_stats,
    mple,
    parse_config,
    read_results,
    run_experiment,
    sample_mple_limit,
)
from ising_infer import harness, htests, inference, sampler, streams, theory
from ising_infer.cli import main
from ising_infer.coupling import (
    CouplingMatrix,
    build_coupling,
    centered_quadratic_forms,
    limiting_spectrum,
    save_matrix,
)
from ising_infer.htests import (
    DrawSet,
    TestSpec,
    calibrate,
    empirical_power,
    exact_power,
    limit_power,
)
from ising_infer.harness import (
    EXPERIMENTS,
    ExperimentResult,
    load_config,
    render_csv,
    render_json,
)
from ising_infer.sampler import SpinConfiguration, count_law, write_sample_dump
from ising_infer.workers import worker_count


# ---------------------------------------------------------------------------
# parse_config / ExperimentConfig


def test_parse_config_estimator_defaults():
    cfg = parse_config("experiment = estimator_law\n")
    assert cfg.experiment == "estimator_law"
    assert cfg.family == "complete"
    assert cfg.n == (1600,)
    assert cfg.theta0 == 1.5
    assert cfg.reps == 400
    assert cfg.alpha == 0.05
    assert cfg.master_seed == 20260815
    assert cfg.output_path == "results.csv"
    assert cfg.format == "csv"
    assert cfg.calibration == "monte_carlo"


def test_parse_config_power_defaults():
    cfg = parse_config("experiment=power_curve")
    assert cfg.n == (2500,)
    assert cfg.theta0 == 1.0
    assert cfg.reps == 2000
    assert cfg.h == (0.0, 0.5, 1.0, 2.0, 4.0)


def test_parse_config_grids_comments_and_overrides():
    text = """
    # comma grids, inline comments, loose whitespace
    experiment = estimator_law
    family = qpartite   # three classes
    q = 3
    n = 90, 180
    theta0 = 1.25
    h = 0, 1.5
    reps = 7
    master_seed = 99
    format = json
    """
    cfg = parse_config(text)
    assert cfg.family == "qpartite" and cfg.q == 3
    assert cfg.n == (90, 180)
    assert cfg.h == (0.0, 1.5)
    assert cfg.theta0 == 1.25
    assert cfg.reps == 7
    assert cfg.master_seed == 99
    assert cfg.format == "json"


def test_parse_config_unknown_key_reports_line():
    with pytest.raises(ConfigError, match=r"line 3.*bogus"):
        parse_config("experiment=spectrum_report\n\nbogus = 3\n")


def test_parse_config_duplicate_key_reports_line():
    with pytest.raises(ConfigError, match=r"line 3.*duplicate.*reps"):
        parse_config("experiment=estimator_law\nreps=4\nreps=5\n")


def test_parse_config_malformed_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("experiment=estimator_law\njust words\n")


def test_parse_config_requires_experiment():
    with pytest.raises(ConfigError, match="experiment"):
        parse_config("family=complete\n")
    with pytest.raises(ConfigError, match="experiment"):
        parse_config("experiment=not_a_pipeline\n")


def test_every_config_field_is_a_key_with_one_parser():
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(harness._PARSERS) == names
    with pytest.raises(ConfigError, match="unknown key 'bogus'"):
        harness.parse_fields({"experiment": "spectrum_report", "bogus": "3"})


def test_parse_config_bad_value_names_key():
    with pytest.raises(ConfigError, match="reps"):
        parse_config("experiment=estimator_law\nreps=abc\n")
    with pytest.raises(ConfigError, match="n:|n "):
        parse_config("experiment=estimator_law\nn=12,xy\n")


@pytest.mark.parametrize(
    "kwargs,field",
    [
        ({"experiment": "nope"}, "experiment"),
        ({"experiment": "estimator_law", "family": "weird"}, "family"),
        ({"experiment": "estimator_law", "alpha": 0.0}, "alpha"),
        ({"experiment": "estimator_law", "alpha": 1.0}, "alpha"),
        ({"experiment": "estimator_law", "reps": 0}, "reps"),
        ({"experiment": "estimator_law", "theta0": -1.0}, "theta0"),
        ({"experiment": "estimator_law", "n": (0,)}, "n"),
        ({"experiment": "estimator_law", "h": (-1.0,)}, "h"),
        ({"experiment": "estimator_law", "format": "yaml"}, "format"),
        ({"experiment": "estimator_law", "calibration": "bootstrap"}, "calibration"),
        ({"experiment": "power_curve", "theta0": 1.0, "h": ()}, "h"),
        ({"experiment": "spectrum_report", "n": ()}, "n"),
    ],
)
def test_config_validation(kwargs, field):
    with pytest.raises(ConfigError, match=field):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs,field",
    [
        # NaN fails no ordered comparison, so these once ran to all-NaN rows
        ({"experiment": "estimator_law", "theta0": math.nan}, "theta0"),
        ({"experiment": "power_curve", "theta0": math.inf}, "theta0"),
        ({"experiment": "power_curve", "h": (0.0, math.nan)}, "h"),
        ({"experiment": "power_curve", "theta0": 1.5, "h": (math.inf,)}, "h"),
    ],
)
def test_config_validation_refuses_non_finite(kwargs, field):
    with pytest.raises(ConfigError, match=field):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_run_and_limits_refuse_a_non_finite_theta0(tmp_path, capsys, value):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"experiment=estimator_law\ntheta0={value}\n", encoding="utf-8")
    assert main(["run", str(cfg)]) == 2
    assert "theta0" in capsys.readouterr().err
    out = tmp_path / "lims.csv"
    args = ["limits", "--family", "bipartite", "--reps", "5", "--output", str(out)]
    assert main(args + ["--theta0", value]) == 2
    assert "theta" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment", ["power_curve", "limit_law_density", "normalizer_check"]
)
def test_critical_h_above_the_cap_fails_in_the_config(experiment):
    # these read critical_law(h) at theta0 = 1, which caps h; the config
    # refuses a larger h before any draw or calibration
    with pytest.raises(ConfigError, match=r"^h: "):
        ExperimentConfig(
            experiment=experiment, family="bipartite", n=(8,), theta0=1.0,
            h=(0.0, 60.0),
        )
    ExperimentConfig(experiment=experiment, theta0=1.0, h=(0.0, theory.H_MAX))
    ExperimentConfig(experiment=experiment, theta0=1.5, h=(0.0, 60.0))


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_config_defaults_agree_in_python_and_in_files(experiment):
    assert ExperimentConfig(experiment=experiment) == parse_config(
        f"experiment = {experiment}"
    )


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")


def test_config_hash_stability_and_sensitivity():
    cfg = parse_config("experiment=estimator_law\nn=60\nreps=8\n")
    again = parse_config("experiment=estimator_law\nreps=8\nn=60\n")
    h = config_hash(cfg)
    assert h == config_hash(again)
    assert len(h) == 12 and all(c in "0123456789abcdef" for c in h)
    for change in (
        {"theta0": 1.5000000001},
        {"n": (60, 120)},
        {"master_seed": 20260816},
        {"family": "bipartite"},
        {"output_path": "elsewhere.csv"},
    ):
        assert config_hash(dataclasses.replace(cfg, **change)) != h


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("ISING_INFER_WORKERS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("ISING_INFER_WORKERS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("ISING_INFER_WORKERS", "0")
    assert worker_count() == 1
    monkeypatch.setenv("ISING_INFER_WORKERS", "two")
    with pytest.raises(ConfigError, match="ISING_INFER_WORKERS"):
        worker_count()


# ---------------------------------------------------------------------------
# pipelines


def test_normalizer_check_gaps_shrink():
    cfg = ExperimentConfig(
        experiment="normalizer_check", n=(1000, 10000), theta0=1.5, h=(1.0,), reps=1
    )
    result = run_experiment(cfg)
    assert result.columns[:4] == ("n", "theta0", "h", "delta_log_z")
    assert len(result.records) == 2
    gaps = [row["gap"] for row in result.records]
    assert gaps[0] > gaps[1] > 0.0
    assert result.summary["gaps_decreasing"] is True
    assert result.summary["final_gap"] == gaps[1]
    # supercritical limit is rate * h^2 / 2
    assert math.isclose(
        result.summary["predicted_limit"],
        0.3199208645349059 / 2.0,
        rel_tol=0,
        abs_tol=1e-12,
    )
    drift = result.records[0]["drift_term"] / math.sqrt(1000)
    assert math.isclose(drift, 0.8585596366401105**2 / 2.0, rel_tol=0, abs_tol=1e-12)


def test_normalizer_check_rejects_other_families():
    cfg = ExperimentConfig(
        experiment="normalizer_check", family="bipartite", n=(100,), h=(1.0,)
    )
    with pytest.raises(ConfigError, match="family"):
        run_experiment(cfg)


def test_estimator_law_complete_records():
    cfg = ExperimentConfig(
        experiment="estimator_law", n=(60,), theta0=1.5, reps=40, master_seed=31
    )
    result = run_experiment(cfg)
    assert len(result.records) == 40
    assert [row["replication"] for row in result.records] == list(range(40))
    for row in result.records:
        assert row["derived_seed"] == derive_seed(31, row["replication"])
        assert row["n"] == 60 and row["theta0"] == 1.5
        assert -1.0 <= row["xbar"] <= 1.0
        assert math.isclose(
            row["suff_stat"], 60 * row["xbar"] ** 2 - 1.0, rel_tol=1e-12
        )
        if row["mple_exists"]:
            assert math.isfinite(row["mple"])
    block = result.summary["n=60"]
    assert block["reps"] == 40
    assert 0.0 <= block["mple_exists_rate"] <= 1.0
    # supercritical runs report the plug-in limit sd
    assert math.isclose(block["theory_sd"], 1.0 / math.sqrt(0.3199208645349059))


def test_count_law_estimator_hashes_each_seed_once(monkeypatch):
    # the derived_seed column and the draws read one derive_seeds batch,
    # so the run hashes reps seeds, not 2 reps
    hashed = []
    sha256 = streams.sha256

    def recording(data=b"", **kwargs):
        hashed.append(bytes(data))
        return sha256(data, **kwargs)

    monkeypatch.setattr(streams, "sha256", recording)
    cfg = ExperimentConfig(
        experiment="estimator_law", n=(60,), theta0=1.5, reps=40, master_seed=-31
    )
    result = run_experiment(cfg)
    monkeypatch.undo()
    assert sorted(hashed) == sorted(b"-31:%d" % r for r in range(40))
    seeds = [row["derived_seed"] for row in result.records]
    assert seeds == [derive_seed(-31, r) for r in range(40)]
    assert all(type(seed) is int for seed in seeds)


def test_complete_estimator_law_solves_each_fold_once(monkeypatch):
    # the MLE is a function of min(k, n - k): one solve per distinct fold
    # per n, however many replications share it. The merged tables of n =
    # 60 and 61 both hold 31 values, so each solve is told apart by its
    # table's top value, n - 1
    solves = []
    table_mle = inference._table_mle

    def counting(s, values, log_mult):
        solves.append(round(values[-1]) + 1)
        return table_mle(s, values, log_mult)

    monkeypatch.setattr(inference, "_table_mle", counting)
    cfg = ExperimentConfig(
        experiment="estimator_law", n=(60, 61), theta0=1.5, reps=40, master_seed=31
    )
    result = run_experiment(cfg)
    assert len(result.records) == 80
    for n in cfg.n:
        law = sampler.count_law(build_coupling("complete", n))
        uniforms = streams.substream_uniforms(31, 40, 1)[:, 0]
        counts = sampler.draw_counts(law, 1.5, uniforms)
        folds = np.unique(np.minimum(counts, n - counts)).size
        assert folds < 40
        assert solves.count(n) == folds, n


def test_critical_estimator_summary_reads_the_family_limit():
    cfg = ExperimentConfig(
        experiment="estimator_law", family="bipartite", n=(8,), theta0=1.0,
        reps=3, master_seed=5,
    )
    block = run_experiment(cfg).summary["n=8"]
    assert block["theory_quartiles"] == [
        theory.mple_limit_quantile(p, 0.0, (1, -1), 0.0) for p in (0.25, 0.5, 0.75)
    ]
    assert len(block["scaled_quartiles"]) in (0, 3)


def test_estimator_law_summary_records_the_sampler_and_burn_in(tmp_path):
    exact = ExperimentConfig(
        experiment="estimator_law", family="bipartite", n=(8,), theta0=1.2, reps=3
    )
    block = run_experiment(exact).summary["n=8"]
    assert block["sampler"] == "exact" and block["burn_in"] is None
    assert block["mle_route"] == "exact"
    dense = dataclasses.replace(exact, family="random_regular", d=4, n=(16, 34))
    result = run_experiment(dense)
    # the MLE is exact on the enumeration; past it a degree-4 graph is too
    # sparse for the plug-in and has no estimate, while degree n/2 takes it
    half = run_experiment(dataclasses.replace(dense, d=17, n=(34,), reps=8))
    cases = [(result, 16, "exact"), (result, 34, None), (half, 34, "plugin")]
    for run, n, route in cases:
        block = run.summary[f"n={n}"]
        assert block["sampler"] == "glauber"
        assert block["burn_in"] == sampler.default_burn_in(n, 1.2)
        assert block["mle_route"] == route
        rows = [row for row in run.records if row["n"] == n]
        scaled = [math.sqrt(n) * (r["mle"] - 1.2) for r in rows if r["mle_exists"]]
        assert block["mle_exists_rate"] == len(scaled) / len(rows)
        if route is None:
            assert not scaled and all(math.isnan(r["mle"]) for r in rows)
            assert math.isnan(block["scaled_mle_mean"])
        else:
            assert scaled and block["scaled_mle_mean"] == float(np.mean(scaled))
    assert [result.summary[f"n={n}"]["burn_in"] for n in dense.n] == [80, 120]
    # a count law's null reaches the JSON summary as null
    as_json = dataclasses.replace(exact, format="json")
    path = emit(run_experiment(as_json), tmp_path / "e.json")
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh)["summary"]["n=8"]["burn_in"] is None


def test_estimator_law_deterministic_modulo_timing():
    cfg = ExperimentConfig(experiment="estimator_law", n=(40,), reps=12)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    for ra, rb in zip(a.records, b.records):
        for key in a.columns:
            if key == "elapsed_s":
                continue
            assert ra[key] == rb[key], key


def test_estimator_law_worker_pool_matches_serial(monkeypatch):
    cfg = ExperimentConfig(
        experiment="estimator_law", family="bipartite", n=(12,), theta0=1.2, reps=6
    )
    monkeypatch.delenv("ISING_INFER_WORKERS", raising=False)
    serial = run_experiment(cfg)
    monkeypatch.setenv("ISING_INFER_WORKERS", "2")
    pooled = run_experiment(cfg)
    assert len(serial.records) == len(pooled.records) == 6
    for ra, rb in zip(serial.records, pooled.records):
        for key in serial.columns:
            if key == "elapsed_s":
                continue
            assert ra[key] == rb[key], key
    # n <= 24 so the exact ML column is populated
    assert all(isinstance(row["mle_exists"], bool) for row in serial.records)


def test_estimator_law_pool_tasks_carry_only_indices(monkeypatch):
    # the coupling reaches each worker once, through the pool initializer;
    # a dense random_regular coupling at n = 30 pickles to about 7.5 KB
    payloads = []
    submit = concurrent.futures.ProcessPoolExecutor.submit

    def recording_submit(self, fn, /, *args, **kwargs):
        payloads.append(len(pickle.dumps((fn, args, kwargs))))
        return submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(
        concurrent.futures.ProcessPoolExecutor, "submit", recording_submit
    )
    monkeypatch.setenv("ISING_INFER_WORKERS", "2")
    cfg = ExperimentConfig(
        experiment="estimator_law", family="random_regular", d=4, n=(30,),
        theta0=0.8, reps=4,
    )
    coupling = build_coupling("random_regular", 30, d=4, seed=cfg.master_seed)
    assert len(pickle.dumps(coupling)) > 7000
    result = run_experiment(cfg)
    assert [row["replication"] for row in result.records] == [0, 1, 2, 3]
    assert payloads and max(payloads) < 1024, payloads


def test_glauber_power_curve_is_the_same_on_two_workers(monkeypatch):
    # each draw set maps its chains over the pool, the null set included;
    # every chain reads its own stream, so no record moves
    submitted = []
    submit = concurrent.futures.ProcessPoolExecutor.submit

    def recording_submit(self, fn, /, *args, **kwargs):
        submitted.append(fn)
        return submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(
        concurrent.futures.ProcessPoolExecutor, "submit", recording_submit
    )
    cfg = ExperimentConfig(
        experiment="power_curve", family="random_regular", d=4, n=(16,),
        theta0=1.0, h=(0.0, 2.0), reps=40, master_seed=5,
    )

    def records():
        rows = run_experiment(cfg).records
        return repr([{k: v for k, v in row.items() if k != "elapsed_s"} for row in rows])

    monkeypatch.delenv("ISING_INFER_WORKERS", raising=False)
    serial = records()
    assert not submitted
    monkeypatch.setenv("ISING_INFER_WORKERS", "2")
    assert records() == serial
    assert submitted


@pytest.mark.parametrize(
    "params",
    [
        {"family": "random_regular", "d": 4, "n": (16,), "theta0": 1.2, "reps": 40},
        {"family": "bipartite", "n": (8,), "theta0": 1.2, "reps": 40},
    ],
)
def test_estimator_law_reads_one_draw_set(params):
    # every replication, Glauber or count-law, comes from the DrawSet at
    # theta0 with the master seed; a count law solves the MPLE of the drawn
    # atoms only, never the per-law pl column of every atom
    sampler._block_law.cache_clear()
    cfg = ExperimentConfig(experiment="estimator_law", master_seed=5, **params)
    records = run_experiment(cfg).records
    coupling = harness._coupling_for(cfg, cfg.n[0])
    law = sampler.count_law(coupling)
    assert law is None or "pl" not in law.statistics
    draws = DrawSet(coupling, cfg.theta0, cfg.master_seed, cfg.reps)
    assert [row["derived_seed"] for row in records] == draws.seeds.tolist()
    for key, column in draws.columns.items():
        assert [row[key] for row in records] == column.tolist(), key


def test_glauber_estimator_solves_each_distinct_suff_stat_once(monkeypatch):
    # the exact MLE is a function of x'Qx: one enumeration-table solve per
    # distinct value, not one per replication
    solves = []
    table_mle = inference._table_mle

    def counting(s, values, log_mult):
        solves.append(s)
        return table_mle(s, values, log_mult)

    monkeypatch.setattr(inference, "_table_mle", counting)
    cfg = ExperimentConfig(
        experiment="estimator_law", family="random_regular", d=4, n=(16,),
        theta0=1.2, reps=40, master_seed=5,
    )
    result = run_experiment(cfg)
    distinct = {row["suff_stat"] for row in result.records}
    assert sorted(solves) == sorted(distinct)
    assert len(solves) < 40


def test_estimator_law_enumerates_once_per_n(monkeypatch):
    calls = []
    enumerate_suff_stats = sampler.enumerate_suff_stats

    def counting(coupling):
        calls.append(coupling.n)
        return enumerate_suff_stats(coupling)

    monkeypatch.setattr(sampler, "enumerate_suff_stats", counting)
    monkeypatch.delenv("ISING_INFER_WORKERS", raising=False)
    cfg = ExperimentConfig(
        experiment="estimator_law", family="random_regular", d=4, n=(16,),
        theta0=0.8, reps=4,
    )
    result = run_experiment(cfg)
    assert len(result.records) == 4
    assert all(isinstance(row["mle_exists"], bool) for row in result.records)
    assert calls == [16]


def test_power_curve_records():
    cfg = ExperimentConfig(
        experiment="power_curve",
        n=(100,),
        theta0=1.5,
        h=(0.0, 2.0),
        reps=1000,
        master_seed=11,
    )
    result = run_experiment(cfg)
    assert len(result.records) == 6
    kinds = {row["kind"] for row in result.records}
    assert kinds == {"ms", "np", "pl"}
    for row in result.records:
        assert row["n"] == 100
        assert math.isclose(row["theta_n"], 1.5 + row["h"] / 10.0)
        assert 0.0 <= row["empirical_power"] <= 1.0
        assert math.isclose(
            row["mc_stderr"],
            math.sqrt(row["empirical_power"] * (1 - row["empirical_power"]) / 1000),
        )
        assert math.isfinite(row["asymptotic_power"])
        assert row["achieved_level"] <= 0.05 + 1e-12
        assert 0.0 <= row["gamma"] <= 1.0
        assert row["calibration"] == "monte_carlo"
    by_kind = {}
    for row in result.records:
        by_kind.setdefault(row["kind"], []).append(row)
    for kind, rows in by_kind.items():
        assert len({row["critical_value"] for row in rows}) == 1, kind
        null, shifted = sorted(rows, key=lambda r: r["h"])
        assert shifted["empirical_power"] >= null["empirical_power"] - 0.05
    assert set(result.summary["n=100"]) == {"ms", "np", "pl"}


def _dense_copy(coupling):
    """The same matrix stored densely, so it has no count law."""
    return CouplingMatrix(coupling.n, coupling.entries, coupling.family)


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls per n."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        first = args[0]
        calls.append(getattr(first, "n", first))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _assert_records_match_per_kind_calls(cfg, result):
    """Every record equals its own calibrate + empirical_power on fresh draw
    sets, bit for bit."""
    for n in cfg.n:
        coupling = harness._coupling_for(cfg, n)
        for kind in ("ms", "np", "pl"):
            spec = TestSpec(kind, cfg.theta0, cfg.alpha, n, cfg.calibration)
            null_seed = derive_seed(cfg.master_seed, 0)
            null = DrawSet(coupling, cfg.theta0, null_seed, max(cfg.reps, 1000))
            cal = calibrate(spec, coupling, null)
            rows = [r for r in result.records if (r["n"], r["kind"]) == (n, kind)]
            assert [r["h"] for r in rows] == list(cfg.h)
            for j, row in enumerate(rows):
                seed = derive_seed(cfg.master_seed, 1 + j)
                theta_n = cfg.theta0 + row["h"] / math.sqrt(n)
                draws = DrawSet(coupling, theta_n, seed, cfg.reps)
                power = empirical_power(cal, draws)
                assert row["empirical_power"] == power, (n, kind, j)
                assert row["critical_value"] == cal.critical_value
                assert row["gamma"] == cal.gamma
                if cal.achieved_level is None:  # asymptotic calibration
                    assert math.isnan(row["achieved_level"])
                else:
                    assert row["achieved_level"] == cal.achieved_level
                if sampler.count_law(coupling) is not None:
                    assert row["exact_power"] == exact_power(spec, coupling, row["h"], cal)
                else:
                    assert math.isnan(row["exact_power"])


def test_power_curve_draws_once_per_h_on_complete(monkeypatch):
    draws = _counting(monkeypatch, htests, "draw_counts")
    cfg = ExperimentConfig(
        experiment="power_curve", n=(100, 400), theta0=1.5, h=(0.0, 1.0, 2.0),
        reps=500, master_seed=3,
    )
    result = run_experiment(cfg)
    # exact calibration draws nothing; the three kinds share each h's draws
    assert draws == [100] * 3 + [400] * 3
    _assert_records_match_per_kind_calls(cfg, result)


def test_power_curve_tilts_the_count_law_once_per_theta(monkeypatch):
    # calibration, the draws and the exact power at one theta share one
    # tilted table; h = 0 sits at theta0 itself
    sampler._block_law.cache_clear()
    tilts = _counting(monkeypatch, sampler, "tilted_table")
    cfg = ExperimentConfig(experiment="power_curve", n=(300,), reps=50, master_seed=7)
    run_experiment(cfg)
    assert cfg.h == (0.0, 0.5, 1.0, 2.0, 4.0)
    assert len(tilts) == len(cfg.h)


@pytest.mark.parametrize("calibration", ["monte_carlo", "asymptotic"])
def test_power_curve_shares_glauber_draws_across_kinds(monkeypatch, calibration):
    # one null set per n, drawn only when a Glauber calibration reads it,
    # and one set per h shared by the three kinds; a dense copy of the
    # bipartite coupling has no count law, so it draws by Glauber
    block = harness._coupling_for
    monkeypatch.setattr(
        harness, "_coupling_for", lambda config, n: _dense_copy(block(config, n))
    )
    draws = _counting(monkeypatch, htests, "glauber_sample")
    # the chains run in this process, where the counter sees them
    monkeypatch.delenv("ISING_INFER_WORKERS", raising=False)
    cfg = ExperimentConfig(
        experiment="power_curve", family="bipartite", n=(4,), theta0=1.1,
        h=(0.0, 2.0), reps=100, master_seed=5, calibration=calibration,
    )
    result = run_experiment(cfg)
    null_draws = 1000 if calibration == "monte_carlo" else 0
    assert len(draws) == null_draws + 100 * 2
    _assert_records_match_per_kind_calls(cfg, result)


@pytest.mark.parametrize("calibration", ["monte_carlo", "asymptotic"])
def test_power_curve_summary_records_the_burn_in(monkeypatch, calibration):
    # a count law draws no chain; a dense copy draws every set by Glauber,
    # the asymptotic calibration's power draws included
    exact = ExperimentConfig(
        experiment="power_curve", n=(100,), theta0=1.5, h=(0.0,), reps=50,
        calibration=calibration,
    )
    for block in run_experiment(exact).summary["n=100"].values():
        assert block["burn_in"] is None
    build = harness._coupling_for
    monkeypatch.setattr(
        harness, "_coupling_for", lambda config, n: _dense_copy(build(config, n))
    )
    dense = dataclasses.replace(exact, family="bipartite", n=(4,), theta0=1.1, reps=100)
    summary = run_experiment(dense).summary["n=4"]
    assert set(summary) == {"ms", "np", "pl"}
    sampler_name = "glauber" if calibration == "monte_carlo" else "theory"
    for block in summary.values():
        assert block["sampler"] == sampler_name
        assert block["burn_in"] == sampler.default_burn_in(4, 1.1) == 40


def test_power_curve_hands_out_no_seed_twice(monkeypatch):
    # the critical pl limit Monte Carlo used to reuse the stream of the
    # first power draw at the next h; the limit power draws nothing, so
    # the run makes exactly one stream per replication per h. A stream is
    # either a Generator (default_rng) or a row of a batch (seed_uniforms)
    seeds = []
    default_rng = np.random.default_rng
    seed_uniforms = streams.seed_uniforms

    def recording(seed=None):
        seeds.append(seed)
        return default_rng(seed)

    def recording_batch(batch, k):
        seeds.extend(np.asarray(batch, dtype=np.uint64).tolist())
        return seed_uniforms(batch, k)

    monkeypatch.setattr(np.random, "default_rng", recording)
    monkeypatch.setattr(streams, "seed_uniforms", recording_batch)
    cfg = ExperimentConfig(
        experiment="power_curve", n=(100,), theta0=1.0, h=(0.0, 1.0, 2.0),
        reps=50, master_seed=7,
    )
    run_experiment(cfg)
    assert len(seeds) == 3 * 50
    assert all(isinstance(seed, int) for seed in seeds)
    assert len(set(seeds)) == len(seeds)


def _counting_limit_draws(monkeypatch):
    """Call counters on every route into the limit-law Monte Carlo."""
    return [
        _counting(monkeypatch, theory, "sample_mple_limit"),
        _counting(monkeypatch, theory, "sample_quadratic_limits"),
    ]


@pytest.mark.parametrize("calibration", ["monte_carlo", "asymptotic"])
def test_critical_power_curve_draws_no_limit_law(monkeypatch, calibration):
    # the asymptotic column and the pl cutoff come from quadrature; the
    # limit-law Monte Carlo must not creep back into the power curve
    draws = _counting_limit_draws(monkeypatch)
    cfg = ExperimentConfig(
        experiment="power_curve", family="bipartite", n=(4,), theta0=1.0,
        h=(0.0, 1.0), reps=20, master_seed=3, calibration=calibration,
    )
    result = run_experiment(cfg)
    assert draws == [[], []]
    assert "asymptotic_stderr" not in result.columns
    for row in result.records:
        want = limit_power(row["kind"], 1.0, row["h"], 0.05, limit_eigs=(1.0, -1.0), kappa=0.0)
        assert row["asymptotic_power"] == want


@pytest.mark.parametrize(
    "cfg",
    [
        ExperimentConfig(
            experiment="estimator_law", family="bipartite", n=(8,), theta0=1.0, reps=3
        ),
        ExperimentConfig(experiment="estimator_law", n=(100,), theta0=1.0, reps=20),
        ExperimentConfig(experiment="limit_law_density", family="bipartite", h=(1.0,)),
    ],
)
def test_critical_estimator_law_and_density_draw_no_limit_law(monkeypatch, cfg):
    # theory_quartiles and the density cells come from quadrature
    draws = _counting_limit_draws(monkeypatch)
    run_experiment(cfg)
    assert draws == [[], []]


def test_power_curve_exact_power_column():
    alpha, reps = 0.05, 2000
    cfg = ExperimentConfig(
        experiment="power_curve", n=(400,), theta0=1.5, h=(0.0, 1.0, 2.0, 4.0),
        reps=reps, alpha=alpha, master_seed=5,
    )
    result = run_experiment(cfg)
    for row in result.records:
        exact = row["exact_power"]
        if row["h"] == 0.0:
            assert abs(exact - alpha) <= 1e-12, row["kind"]
        bound = 4.0 * math.sqrt(exact * (1.0 - exact) / reps)
        assert abs(row["empirical_power"] - exact) <= bound, row


def test_limit_law_density_grid():
    cfg = ExperimentConfig(
        experiment="limit_law_density", n=(10000,), theta0=1.0, reps=2000
    )
    result = run_experiment(cfg)
    assert result.columns == ("index", "value", "mple_limit_density", "mle_limit_cdf")
    assert len(result.records) == 257
    values = [row["value"] for row in result.records]
    cdf = [row["mle_limit_cdf"] for row in result.records]
    assert values == sorted(values)
    assert all(b >= a for a, b in zip(cdf, cdf[1:]))
    assert 0.0 <= cdf[0] <= cdf[-1] <= 1.0
    assert all(row["mple_limit_density"] >= 0.0 for row in result.records)
    q1, q2, q3 = result.summary["mple_quartiles"]
    assert q1 < q2 < q3


def test_limit_law_density_builds_few_critical_laws():
    # mle_limit_cdf reads E U_h^2 by quadrature alone, so the 257 cells
    # neither build nor evict the shared critical_law grids
    cfg = ExperimentConfig(experiment="limit_law_density", family="bipartite", h=(0.7,))
    before = theory.critical_law.cache_info().misses
    run_experiment(cfg)
    assert theory.critical_law.cache_info().misses - before <= 4


# (family, config keys, limiting_spectrum keys); random_regular's eta is
# d / n at the default n = 10000
DENSITY_FAMILIES = (
    ("complete", {}, {}),
    ("bipartite", {}, {}),
    ("qpartite", {"q": 3}, {"q": 3}),
    ("cyclic_qpartite", {"q": 5}, {"q": 5}),
    ("random_regular", {"d": 1000}, {"eta": 0.1}),
)


@pytest.mark.parametrize("h", [0.0, 1.0])
@pytest.mark.parametrize("index", range(len(DENSITY_FAMILIES)))
def test_limit_law_density_cells_are_exact_masses(index, h):
    family, config_kwargs, limit_kwargs = DENSITY_FAMILIES[index]
    runs = [
        run_experiment(
            ExperimentConfig(
                experiment="limit_law_density", family=family, h=(h,),
                master_seed=seed, **config_kwargs,
            )
        )
        for seed in (7, 11)
    ]
    # quadrature only: nothing depends on the seed
    assert runs[0].records == runs[1].records
    assert runs[0].summary == runs[1].summary
    lim = limiting_spectrum(family, **limit_kwargs)
    eigs, kappa = lim.limit_eigs, lim.kappa
    lo = max(theory.mple_limit_quantile(0.005, h, eigs, kappa), -theory.H_MAX)
    hi = min(theory.mple_limit_quantile(0.995, h, eigs, kappa), theory.H_MAX)
    edges = np.linspace(lo, hi, 258)
    values = np.array([row["value"] for row in runs[0].records])
    dens = np.array([row["mple_limit_density"] for row in runs[0].records])
    assert np.array_equal(values, 0.5 * (edges[1:] + edges[:-1]))
    width = (hi - lo) / 257
    mass = theory.mple_limit_sf(lo, h, eigs, kappa) - theory.mple_limit_sf(
        hi, h, eigs, kappa
    )
    assert abs(dens.sum() * width - mass) <= 1e-12
    reps = 1_000_000
    draws = sample_mple_limit(h, eigs, kappa, reps, derive_seed(4729, 2 * index + int(h)))
    hist = np.histogram(draws, edges)[0] / (reps * width)
    cell = dens * width
    z = (hist - dens) / (np.sqrt(cell * (1.0 - cell) / reps) / width)
    # 4 SE for each case as a whole: per cell after Bonferroni over the 257
    # cells (about 5.2 SE), and the chi-square sum, which sees a small bias
    # spread over many cells, within 4 SD of its mean
    assert np.abs(z).max() <= -ndtri(ndtr(-4.0) / 257), (family, h)
    assert (z * z).sum() <= 257 + 4.0 * math.sqrt(2 * 257), (family, h)


def test_limit_law_density_requires_critical_theta():
    cfg = ExperimentConfig(experiment="limit_law_density", theta0=1.5, n=(100,))
    with pytest.raises(ConfigError, match="theta0"):
        run_experiment(cfg)


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"family": "qpartite"}, "family: qpartite needs q >= 2"),
        ({"family": "random_regular", "d": 200}, r"family: random_regular needs eta"),
        ({"family": "cyclic_qpartite", "q": 2}, "family: cyclic_qpartite needs q >= 3"),
    ],
)
def test_limit_law_density_names_the_parameter_at_fault(kwargs, message):
    cfg = ExperimentConfig(
        experiment="limit_law_density", theta0=1.0, n=(100,), **kwargs
    )
    with pytest.raises(ConfigError, match=message):
        run_experiment(cfg)


def test_spectrum_report_rows():
    cfg = ExperimentConfig(
        experiment="spectrum_report", family="qpartite", q=3, n=(12, 24)
    )
    result = run_experiment(cfg)
    assert len(result.records) == 2
    for row in result.records:
        assert row["family"] == "qpartite" and row["q"] == 3 and row["d"] == -1
        assert abs(row["eig_1"] - 1.0) < 1e-9
        assert abs(row["eig_2"] + 0.5) < 1e-9
        assert math.isclose(row["gamma_sq"], 1.5)
        assert row["assumptions_ok"] is True
        assert row["row_dev_max"] < 1e-12
    assert result.summary["all_ok"] is True


# every experiment's column line, as its records' keys give it
_COLUMN_LINES = {
    "estimator_law": (
        "replication", "derived_seed", "n", "theta0", "xbar", "suff_stat", "mple",
        "mple_exists", "mle", "mle_exists", "elapsed_s",
    ),
    "power_curve": (
        "n", "kind", "h", "theta_n", "empirical_power", "mc_stderr", "exact_power",
        "asymptotic_power", "critical_value", "gamma", "achieved_level",
        "calibration", "elapsed_s",
    ),
    "limit_law_density": ("index", "value", "mple_limit_density", "mle_limit_cdf"),
    "normalizer_check": (
        "n", "theta0", "h", "delta_log_z", "drift_term", "predicted_limit", "gap",
        "elapsed_s",
    ),
    "spectrum_report": (
        "n", "family", "q", "d", "eig_1", "eig_2", "eig_3", "eig_4", "frobenius_sq",
        "gamma_sq", "kappa", "spectral_gap", "row_dev_max", "assumptions_ok",
        "elapsed_s",
    ),
}
_SMALL_CONFIGS = {
    "estimator_law": {"n": (20,), "reps": 3},
    "power_curve": {"n": (20,), "h": (0.0, 1.0), "reps": 10},
    "limit_law_density": {},
    "normalizer_check": {"n": (100, 1000)},
    "spectrum_report": {"n": (12,)},
}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_every_experiment_pins_its_column_line(experiment):
    cfg = ExperimentConfig(experiment=experiment, **_SMALL_CONFIGS[experiment])
    result = run_experiment(cfg)
    assert result.columns == _COLUMN_LINES[experiment]
    assert all(tuple(row) == result.columns for row in result.records)
    assert render_csv(result).splitlines()[1] == ",".join(result.columns)


# ---------------------------------------------------------------------------
# result IO


def _small_spectrum_result():
    cfg = ExperimentConfig(experiment="spectrum_report", family="bipartite", n=(16,))
    return run_experiment(cfg)


def test_emit_and_read_results_round_trip(tmp_path):
    result = _small_spectrum_result()
    target = tmp_path / "spec.csv"
    written = emit(result, target)
    assert written == str(target)
    meta, records = read_results(target)
    assert meta["tool"] == "ising-infer"
    assert meta["config_hash"] == config_hash(result.config)
    assert meta["experiment"] == "spectrum_report"
    assert len(records) == 1
    rec = records[0]
    assert rec["n"] == 16 and isinstance(rec["n"], int)
    assert rec["assumptions_ok"] is True
    # integral floats come back as ints (syntactic cell typing)
    assert rec["gamma_sq"] == 2
    assert isinstance(rec["elapsed_s"], float)
    assert rec["family"] == "bipartite"
    # 17 significant digits round-trip floats exactly
    assert rec["frobenius_sq"] == result.records[0]["frobenius_sq"]


def test_emit_default_path_uses_config(tmp_path):
    cfg = ExperimentConfig(
        experiment="spectrum_report",
        family="complete",
        n=(8,),
        output_path=str(tmp_path / "out.csv"),
    )
    written = emit(run_experiment(cfg), None)
    assert written == cfg.output_path
    meta, records = read_results(written)
    assert meta["experiment"] == "spectrum_report" and records


def test_emit_refuses_empty_records(tmp_path):
    cfg = ExperimentConfig(experiment="spectrum_report", n=(8,))
    empty = ExperimentResult(cfg, ("a", "b"), [], {})
    target = tmp_path / "never.csv"
    with pytest.raises(ParameterError, match="no records"):
        emit(empty, target)
    assert not target.exists()


def test_render_json_payload(tmp_path):
    result = _small_spectrum_result()
    payload = json.loads(render_json(result))
    assert payload["version"] == __version__
    assert payload["config_hash"] == config_hash(result.config)
    assert payload["experiment"] == "spectrum_report"
    assert payload["columns"] == list(result.columns)
    assert len(payload["records"]) == 1
    cfg = dataclasses.replace(
        result.config, format="json", output_path=str(tmp_path / "r.json")
    )
    written = emit(ExperimentResult(cfg, result.columns, result.records, result.summary))
    with open(written, "r", encoding="utf-8") as fh:
        assert json.load(fh)["experiment"] == "spectrum_report"


def test_read_results_requires_header(tmp_path):
    bare = tmp_path / "bare.csv"
    bare.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(ParameterError, match="header"):
        read_results(bare)


def test_render_csv_header_and_stability():
    result = _small_spectrum_result()
    text = render_csv(result)
    first = text.splitlines()[0]
    assert first.startswith(f"# ising-infer v{__version__} ")
    assert f"config_hash={config_hash(result.config)}" in first
    again = render_csv(_small_spectrum_result())
    strip = lambda t: [
        ",".join(line.split(",")[:-1]) for line in t.splitlines()
    ]  # drop elapsed_s
    assert strip(text) == strip(again)


# ---------------------------------------------------------------------------
# CLI


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_cli_run_spectrum_config(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    out = tmp_path / "rows.csv"
    cfg.write_text(
        "experiment = spectrum_report\nfamily = bipartite\nn = 16\n"
        f"output_path = {out}\n",
        encoding="utf-8",
    )
    assert main(["run", str(cfg)]) == 0
    banner = json.loads(capsys.readouterr().out)
    assert banner["written"] == str(out)
    assert "all_ok" in banner["summary"]
    meta, records = read_results(out)
    assert meta["experiment"] == "spectrum_report" and len(records) == 1


def test_cli_run_output_override(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "experiment = spectrum_report\nfamily = complete\nn = 8\n", encoding="utf-8"
    )
    moved = tmp_path / "moved.csv"
    assert main(["run", str(cfg), "--output", str(moved)]) == 0
    assert moved.exists()


def test_cli_run_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment=spectrum_report\nbogus=1\n", encoding="utf-8")
    assert main(["run", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2


def test_cli_run_numeric_failure_exit_code(tmp_path, monkeypatch, capsys):
    from ising_infer.errors import NumericError

    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment=spectrum_report\nn=8\n", encoding="utf-8")

    def boom(config):
        raise NumericError("synthetic instability")

    monkeypatch.setattr(harness, "run_experiment", boom)
    assert main(["run", str(cfg)]) == 3
    assert "synthetic instability" in capsys.readouterr().err


@pytest.mark.parametrize("theta0", [20.0, 400.0])
def test_cli_run_far_above_the_transition(tmp_path, capsys, theta0):
    # the information rate rounds to 0 from theta0 near 19.1: the estimator
    # summary's theory_sd and the asymptotic pl cutoff divide by it and exit
    # 3 with one error line, while a monte_carlo power curve needs no limit
    # scale and runs
    runs = {
        "experiment = estimator_law\nn = 60\nreps = 5\n": 3,
        "experiment = power_curve\nn = 60\nreps = 20\nh = 0, 1\n"
        "calibration = asymptotic\n": 3,
        "experiment = power_curve\nn = 60\nreps = 20\nh = 0, 1\n": 0,
    }
    cfg = tmp_path / "exp.cfg"
    for text, code in runs.items():
        cfg.write_text(
            f"{text}theta0 = {theta0}\noutput_path = {tmp_path / 'o.csv'}\n",
            encoding="utf-8",
        )
        assert main(["run", str(cfg)]) == code, text
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert f"theta0={theta0}" in err
        else:
            assert err == ""


@pytest.mark.parametrize("theta0,code", [(1e308, 3), (1e300, 0)])
def test_cli_refuses_a_theta0_whose_tilt_overflows(tmp_path, capsys, theta0, code):
    # at 1e308 the exact tables' log weights overflow: one error line and
    # no warning, where the runs once exited 0 with NaN gamma and delta_log_z
    power = ["power", "--family", "complete", "--n", "10", "--reps", "10"]
    assert main([*power, "--theta0", repr(theta0)]) == code
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"experiment = normalizer_check\ntheta0 = {theta0!r}\n"
        f"output_path = {tmp_path / 'o.csv'}\n",
        encoding="utf-8",
    )
    assert main(["run", str(cfg)]) == code
    err = capsys.readouterr().err
    if code:
        lines = err.splitlines()
        assert len(lines) == 2 and all(line.startswith("error: theta=") for line in lines)
    else:
        assert err == ""


def test_random_regular_refuses_a_negative_master_seed(tmp_path, capsys):
    # the graph seed is the master seed; count-law families hash a negative
    # master seed like any other
    text = "experiment = spectrum_report\nfamily = random_regular\nd = 4\nn = 20\n"
    with pytest.raises(ParameterError, match="random_regular seed"):
        run_experiment(parse_config(text + "master_seed = -3\n"))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text + "master_seed = -3\n", encoding="utf-8")
    assert main(["run", str(cfg)]) == 2
    assert "random_regular seed" in capsys.readouterr().err
    args = ["spectra", "--family", "random_regular", "--d", "4", "--n", "20"]
    assert main([*args, "--seed", "-1"]) == 2
    assert "random_regular seed" in capsys.readouterr().err
    complete = "experiment = estimator_law\nn = 20\nreps = 3\nmaster_seed = -3\n"
    assert len(run_experiment(parse_config(complete)).records) == 3


def test_cli_spectra_stdout(capsys):
    assert main(["spectra", "--family", "qpartite", "--q", "3", "--n", "9,12"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# ising-infer")
    assert lines[1].split(",")[0] == "n"
    assert len(lines) == 4
    assert lines[2].split(",")[0] == "9" and lines[3].split(",")[0] == "12"


def test_cli_passes_only_the_flags_given(monkeypatch):
    # power and spectra leave every flag not given to the experiment's own
    # defaults, so a bare command runs the same config as the config file;
    # each verb reads the harness's functions when it runs
    configs = []
    monkeypatch.setattr(harness, "run_experiment", configs.append)
    monkeypatch.setattr(harness, "render_csv", lambda result: "")
    assert main(["power", "--family", "complete", "--n", "400", "--theta0", "1.5"]) == 0
    assert main(["spectra", "--family", "qpartite", "--q", "3", "--n", "90,180"]) == 0
    power = ["power", "--family", "complete", "--n", "40", "--theta0", "1"]
    flags = ["--h", "0,1", "--alpha", "0.1", "--reps", "30", "--seed", "5"]
    assert main([*power, *flags, "--calibration", "asymptotic"]) == 0
    assert configs == [
        ExperimentConfig(
            experiment="power_curve", family="complete", n=(400,), theta0=1.5
        ),
        ExperimentConfig(
            experiment="spectrum_report", family="qpartite", q=3, n=(90, 180)
        ),
        ExperimentConfig(
            experiment="power_curve", family="complete", n=(40,), theta0=1.0,
            h=(0.0, 1.0), alpha=0.1, reps=30, master_seed=5,
            calibration="asymptotic",
        ),
    ]


def test_cli_spectra_bad_grid(capsys):
    assert main(["spectra", "--family", "complete", "--n", "8,oops"]) == 2


@pytest.mark.parametrize(
    "flag,value,key",
    [("--reps", "2.5", "reps"), ("--q", "abc", "q"), ("--alpha", "x", "alpha"),
     ("--seed", "1.5", "master_seed")],
)
def test_cli_flags_parse_as_their_config_keys(capsys, flag, value, key):
    # a flag value goes through the config key's parser: one error line
    # naming the key, not argparse's usage text
    power = ["power", "--family", "complete", "--n", "10", "--theta0", "1"]
    assert main([*power, flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: cannot parse") and err.count("\n") == 1, err


def test_cli_power_n_is_a_grid_like_the_config_key(monkeypatch):
    configs = []
    monkeypatch.setattr(harness, "run_experiment", configs.append)
    monkeypatch.setattr(harness, "render_csv", lambda result: "")
    power = ["power", "--family", "complete", "--n", "40,80", "--theta0", "1.5"]
    assert main(power) == 0
    text = "experiment = power_curve\nn = 40, 80\ntheta0 = 1.5\n"
    assert configs == [parse_config(text)]
    assert configs[0].n == (40, 80)


def test_cli_refuses_an_empty_grid(capsys):
    # the config refuses it before a pipeline reads max(h) or emits no rows
    power = ["power", "--family", "complete", "--n", "10", "--theta0", "1", "--h", ","]
    assert main(power) == 2
    assert capsys.readouterr().err.startswith("error: h:")
    assert main(["spectra", "--family", "complete", "--n", ","]) == 2
    assert capsys.readouterr().err.startswith("error: n:")


def test_cli_estimate_both_methods(tmp_path):
    coupling = build_coupling("complete", 12)
    matrix_path = tmp_path / "coupling.csv"
    save_matrix(coupling, matrix_path)
    rng = np.random.default_rng(5)
    rows = []
    for i in range(3):
        spins = rng.choice([-1, 1], size=12)
        spins[0] = -spins[1]  # keep the estimate off the all-equal boundary
        xbx, xb2x = centered_quadratic_forms(coupling, spins)
        rows.append(
            {
                "seed": i,
                "n": 12,
                "theta": 0.0,
                "xbar": float(spins.mean()),
                "xqx": float(spins @ (coupling.entries @ spins)),
                "xbx": xbx,
                "xb2x": xb2x,
                "spins": spins,
            }
        )
    dump_path = tmp_path / "samples.csv"
    write_sample_dump(dump_path, rows)
    out = tmp_path / "estimates.csv"
    code = main(
        [
            "estimate",
            "--matrix",
            str(matrix_path),
            "--samples",
            str(dump_path),
            "--method",
            "both",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "replication,method,value,exists,iterations,residual"
    assert len(lines) == 1 + 6
    cells = [line.split(",") for line in lines[1:]]
    assert [c[1] for c in cells] == ["mple", "mle_exact"] * 3
    first = SpinConfiguration.from_spins(rows[0]["spins"], coupling)
    expected = mple(first)
    assert math.isclose(float(cells[0][2]), expected.value, rel_tol=0, abs_tol=1e-12)
    assert cells[0][3] == ("true" if expected.exists else "false")


def test_cli_estimate_mle_past_the_enumeration(tmp_path):
    # a complete matrix read from a file is a dense custom coupling: past
    # n = 24 it takes the plug-in, the complete count law's own MLE; an
    # irregular matrix and a sparse regular one have no route and no estimate
    n, plus = 30, (4, 11, 22, 27, 30)
    complete = build_coupling("complete", n)
    entries = complete.entries.copy()
    entries[:2] *= 2.0
    entries[:, :2] *= 2.0
    law = count_law(complete)
    expected = mle_suff_stats(complete, law.values[list(plus)])
    irregular = CouplingMatrix(n, entries)
    sparse = build_coupling("random_regular", n, d=4, seed=3)
    cases = (("complete", complete), ("irregular", irregular), ("sparse", sparse))
    for name, coupling in cases:
        rows = []
        for i, k in enumerate(plus):
            spins = np.repeat([1, -1], [k, n - k])
            xbx, xb2x = centered_quadratic_forms(coupling, spins)
            rows.append(
                {
                    "seed": i, "n": n, "theta": 0.0, "xbar": float(spins.mean()),
                    "xqx": float(spins @ (coupling.entries @ spins)),
                    "xbx": xbx, "xb2x": xb2x, "spins": spins,
                }
            )
        matrix_path, dump_path = tmp_path / f"{name}.txt", tmp_path / f"{name}.csv"
        save_matrix(coupling, matrix_path)
        write_sample_dump(dump_path, rows)
        out = tmp_path / f"{name}_mle.csv"
        argv = ["estimate", "--matrix", str(matrix_path), "--samples", str(dump_path)]
        assert main([*argv, "--method", "mle", "--output", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "replication,method,value,exists,iterations,residual"
        cells = [line.split(",") for line in lines]
        if name != "complete":
            assert {(c[1], c[2], c[3]) for c in cells[1:]} == {("mle", "nan", "false")}
            continue
        assert [c[1] for c in cells[1:]] == ["mle_plugin"] * len(plus)
        # all plus sits on the extreme, and 11 plus spins give a root below
        # 1: the plug-in gives no estimate at either
        assert [c[3] for c in cells[1:]] == ["true", "false", "true", "true", "false"]
        assert expected.value[-1] == math.inf and 0.0 < expected.value[1] < 1.0
        for c, value in zip(cells[1:], expected.value):
            if c[3] == "false":
                assert (c[2], c[4], c[5]) == ("nan", "0", "nan")
            else:
                assert math.isclose(float(c[2]), value, rel_tol=1e-12, abs_tol=0.0)


def test_cli_estimate_size_mismatch(tmp_path, capsys):
    big = build_coupling("complete", 12)
    matrix_path = tmp_path / "coupling.csv"
    save_matrix(big, matrix_path)
    small = build_coupling("complete", 8)
    spins = np.array([1, -1, 1, 1, -1, 1, -1, 1])
    xbx, xb2x = centered_quadratic_forms(small, spins)
    dump_path = tmp_path / "samples.csv"
    write_sample_dump(
        dump_path,
        [
            {
                "seed": 0,
                "n": 8,
                "theta": 0.0,
                "xbar": float(spins.mean()),
                "xqx": float(spins @ (small.entries @ spins)),
                "xbx": xbx,
                "xb2x": xb2x,
                "spins": spins,
            }
        ],
    )
    assert (
        main(["estimate", "--matrix", str(matrix_path), "--samples", str(dump_path)])
        == 2
    )
    assert "8 spins" in capsys.readouterr().err


def _estimate_exit(capsys, matrix_path, dump_path, *names):
    # the CLI's exit code; its error names each of ``names``, with no traceback
    code = main(["estimate", "--matrix", str(matrix_path), "--samples", str(dump_path)])
    err = capsys.readouterr().err
    assert all(name in err for name in names), err
    assert "Traceback" not in err
    return code


def test_cli_estimate_refuses_malformed_files(tmp_path, capsys):
    coupling = build_coupling("complete", 2)
    spins = np.array([1, -1])
    xbx, xb2x = centered_quadratic_forms(coupling, spins)
    row = {
        "seed": 0, "n": 2, "theta": 0.0, "xbar": 0.0, "xqx": -1.0,
        "xbx": xbx, "xb2x": xb2x, "spins": spins,
    }
    matrix_path, dump_path = tmp_path / "coupling.txt", tmp_path / "samples.csv"
    save_matrix(coupling, matrix_path)
    write_sample_dump(dump_path, [row, row])
    assert _estimate_exit(capsys, matrix_path, dump_path) == 0
    good = dump_path.read_text(encoding="ascii").splitlines()

    bad_matrix = tmp_path / "bad.txt"
    bad_matrix.write_text("2\n0 x\nx 0\n", encoding="ascii")
    assert _estimate_exit(capsys, bad_matrix, dump_path, str(bad_matrix)) == 2
    # a non-numeric xqx cell in the second row
    cells = good[2].split(",")
    cells[4] = "oops"
    bad_dump = "\n".join([*good[:2], ",".join(cells)]) + "\n"
    dump_path.write_text(bad_dump, encoding="ascii")
    names = (str(dump_path), "row 1", "column xqx")
    assert _estimate_exit(capsys, matrix_path, dump_path, *names) == 2
    # a first row cut short after its theta cell
    short = ",".join(good[1].split(",")[:3])
    dump_path.write_text("\n".join([good[0], short]) + "\n", encoding="ascii")
    names = (str(dump_path), "row 0", "column xbar")
    assert _estimate_exit(capsys, matrix_path, dump_path, *names) == 2


def test_cli_power_writes_rows(tmp_path):
    out = tmp_path / "power.csv"
    code = main(
        [
            "power",
            "--family",
            "complete",
            "--n",
            "100",
            "--theta0",
            "1.5",
            "--h",
            "0,2",
            "--reps",
            "1000",
            "--seed",
            "7",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    meta, records = read_results(out)
    assert meta["experiment"] == "power_curve"
    assert len(records) == 6
    assert {row["kind"] for row in records} == {"ms", "np", "pl"}


def test_cli_power_refuses_a_critical_h_above_the_cap(tmp_path, capsys):
    out = tmp_path / "power.csv"
    code = main(
        [
            "power", "--family", "complete", "--n", "400", "--theta0", "1",
            "--h", "0,60", "--output", str(out),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: h:")
    assert not out.exists()


def test_repeated_grid_entries_fail_in_the_config(tmp_path, capsys):
    # a repeated n would write every replication twice, and a repeated h
    # two powers for one (n, kind, h)
    with pytest.raises(ConfigError, match=r"^n: "):
        ExperimentConfig(experiment="estimator_law", n=(50, 50), reps=3)
    with pytest.raises(ConfigError, match=r"^h: "):
        ExperimentConfig(experiment="power_curve", h=(1.0, 1.0))
    out = tmp_path / "power.csv"
    code = main(
        [
            "power", "--family", "complete", "--n", "400", "--theta0", "1",
            "--h", "1,1", "--output", str(out),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: h:")
    assert not out.exists()


def test_cli_limits_columns(tmp_path):
    out = tmp_path / "lims.csv"
    code = main(
        [
            "limits",
            "--family",
            "bipartite",
            "--theta0",
            "1.0",
            "--reps",
            "40",
            "--seed",
            "3",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "index,centered_qf,centered_qf_sq,mple_limit"
    assert len(lines) == 41
    sample = [float(v) for v in lines[1].split(",")[1:]]
    assert all(math.isfinite(v) for v in sample)


def test_cli_limits_off_critical_has_nan_ratio(tmp_path):
    out = tmp_path / "lims.csv"
    assert (
        main(
            [
                "limits",
                "--family",
                "complete",
                "--theta0",
                "1.5",
                "--reps",
                "5",
                "--output",
                str(out),
            ]
        )
        == 0
    )
    for line in out.read_text(encoding="utf-8").splitlines()[1:]:
        assert line.split(",")[3] == "nan"


@pytest.mark.parametrize("reps", ["0", "-1"])
def test_cli_limits_refuses_reps_below_one(tmp_path, capsys, reps):
    out = tmp_path / "lims.csv"
    args = ["limits", "--family", "complete", "--reps", reps, "--output", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "--reps" in err and "Traceback" not in err
    assert not out.exists()


def test_cli_limits_random_regular_needs_eta(tmp_path, capsys):
    assert main(["limits", "--family", "random_regular", "--reps", "5"]) == 2
    assert "--eta" in capsys.readouterr().err
    out = tmp_path / "rr.csv"
    assert (
        main(
            [
                "limits",
                "--family",
                "random_regular",
                "--eta",
                "0.25",
                "--reps",
                "5",
                "--output",
                str(out),
            ]
        )
        == 0
    )
    assert len(out.read_text(encoding="utf-8").splitlines()) == 6
