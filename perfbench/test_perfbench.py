"""Self-tests of the benchmark: python3 -m pytest perfbench

They run one traced experiment process per workload (about 20 s in all)
and check the tracer's counts against closed forms, the metric names
against BENCHMARK.json, and the output checker against corrupted records.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import pytest

import checks
import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def glauber_site_updates(params: dict) -> int:
    """n * default burn-in sweeps (50n past theta = 1.2, else 10n) per draw."""
    theta = params["theta0"]
    return sum(
        params["reps"] * n * (50 * n if theta > 1.2 else 10 * n) for n in params["n"]
    )


def enumeration_states(params: dict) -> int:
    """One 2^n suff_stat_table per replication wherever n <= 24."""
    return sum(params["reps"] << n for n in params["n"] if n <= 24)


def limit_draws(params: dict) -> int:
    """Critical pl: one 4M-draw null quantile plus 1M draws per h."""
    return 4_000_000 + 1_000_000 * len(params["h"])


def substream_calls(params: dict) -> int:
    """One substream per aux-field draw: calibration, then each h, per kind
    (calibration draws max(reps, 1000), which is reps here)."""
    return len(checks.KINDS) * params["reps"] * (1 + len(params["h"])) * len(params["n"])


def entries_mb(params: dict) -> float:
    """Dense float64 coupling bytes, n^2 * 8 per built n, in 1e6 bytes."""
    return sum(8 * n * n for n in params["n"]) / 1e6


@pytest.fixture(scope="module")
def traced():
    """One traced child report per workload, at seed 7."""
    reports = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-test-", dir=run.ROOT) as work:
        for name in run.WORKLOADS:
            params = run.workload_params(name, 7)
            path = os.path.join(work, f"{name}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(run.config_text(params))
            reports[name] = (params, run.run_child(path, trace=True))
    return reports


def test_closed_forms_at_eight_replications():
    # the bipartite estimator the estimates were first made on
    bipartite = {"family": "bipartite", "n": (100,), "theta0": 1.5, "reps": 8}
    regular = dict(run.WORKLOADS["estimator_random_regular"], reps=8)
    power = run.WORKLOADS["power_complete_critical"]
    assert glauber_site_updates(bipartite) == 4_000_000
    assert enumeration_states(regular) == 8 * 2**20
    assert limit_draws(power) == 9_000_000
    assert substream_calls(power) == 36_000
    assert entries_mb(power) == 50.0


def test_traced_counts_equal_their_closed_forms(traced):
    for name, (params, report) in traced.items():
        layers = report["layers"]
        glauber = params["family"] != "complete" and params["experiment"] == "estimator_law"
        assert layers.get("sampler.glauber.site_updates", 0) == (
            glauber_site_updates(params) if glauber else 0
        ), name
        assert layers.get("sampler.enum.states", 0) == (
            enumeration_states(params) if glauber else 0
        ), name
        assert layers["coupling.entries_mb"] == pytest.approx(entries_mb(params)), name
    params, report = traced["power_complete_critical"]
    assert report["layers"]["theory.limit_draws.count"] == limit_draws(params)
    assert report["layers"]["streams.substream.calls"] == substream_calls(params)
    assert report["layers"]["sampler.aux.draws"] == substream_calls(params)


def test_self_times_account_for_traced_wall_time(traced):
    for name, (_, report) in traced.items():
        layers = report["layers"]
        assert abs(layers["trace.unattributed_s"]) <= 0.01 * layers["trace.wall_s"], name
        assert layers["harness.self_s"] > 0, name


def test_metric_names_are_well_formed_and_unique():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [m["name"] for section in ("end_to_end", "per_layer") for m in spec[section]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_every_workload_emits_every_metric(traced):
    for name, (_, report) in traced.items():
        plain = {k: v for k, v in report.items() if k != "layers"}
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            outcome = {
                "samples": {"plain": [plain], "traced": [report]},
                "failures": [],
                "attempted": 2,
            }
            result = run.summarize(outcome, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert set(result["metrics"]) == set(run.declared_units(section)), name
            assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    # a declared name the tracer never produces would read 0 everywhere;
    # only the catch-all groups may be unused by every workload
    produced = set().union(*(report["layers"] for _, report in traced.values()))
    unused = set(run.declared_units("per_layer")) - produced - {"trace.overhead_s"}
    assert all(".other." in name for name in unused), unused


def _corrupt(text: str, **cells: str) -> str:
    """``text`` with the given cells of its first record replaced."""
    lines = text.splitlines()
    columns = lines[1].split(",")
    row = lines[2].split(",")
    for column, value in cells.items():
        row[columns.index(column)] = value
    lines[2] = ",".join(row)
    return "\n".join(lines) + "\n"


def test_checker_accepts_real_outputs_and_rejects_corrupted_ones(traced):
    corruptions = {
        "power_complete_critical": [{"achieved_level": "0.051"}, {"empirical_power": "0.2"}],
        "estimator_random_regular": [
            {"mle": "nan"}, {"replication": "9"}, {"derived_seed": "12345"},
            {"mple_exists": "true", "mple": "inf"},
        ],
        "spectrum_qpartite": [{"eig_2": "-0.49999"}, {"assumptions_ok": "false"}],
    }
    for name, (params, report) in traced.items():
        text = report["csv"]
        checks.check_output(params, text)
        for cells in corruptions[name]:
            with pytest.raises(checks.CheckError):
                checks.check_output(params, _corrupt(text, **cells))
        dropped = "\n".join(text.splitlines()[:-1]) + "\n"
        with pytest.raises(checks.CheckError):
            checks.check_output(params, dropped)


def test_stable_body_ignores_only_timing_columns(traced):
    params, report = traced["estimator_random_regular"]
    text = report["csv"]
    assert checks.stable_body(_corrupt(text, elapsed_s="9.5")) == checks.stable_body(text)
    assert checks.stable_body(_corrupt(text, xbar="0.5")) != checks.stable_body(text)
    # a further metadata line, such as a run manifest with stage times
    with_manifest = text.replace("\n", "\n# stages build_s=0.125\n", 1)
    checks.check_output(params, with_manifest)
    assert checks.stable_body(with_manifest) == checks.stable_body(text)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectrum_qpartite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
