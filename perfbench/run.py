"""ising-infer benchmark: three `ising-infer run` experiments, end to end.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each experiment runs in a fresh
process (perfbench/child.py), one at a time, so the package's in-process
caches start cold as they do for every CLI invocation. The run repeats the
workload until ``--seconds`` have passed, checks every output, and prints
medians. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced processes and reports the
per-layer metrics. The last stdout line is the result object; the line
before it records the environment. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

from checks import CheckError, check_output, stable_body

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
MIN_PROCESSES = 4
# every process is started and reaped inside this budget, so a run ends
# within 180 s even when one experiment hangs
RUN_LIMIT_S = 170.0
WORKERS_ENV = "ISING_INFER_WORKERS"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Each workload keeps the family, theta0 and layer the benchmark is meant to
# stress; reps and grids are sized so one process takes 3-4 s on a 2-core
# machine, and a 40 s run holds ten or more processes.
WORKLOADS = {
    # ROADMAP default power config: aux-field sampler, seed streams,
    # mple_from_counts root-finds, critical limit-law Monte Carlo; no
    # Glauber, enumeration or eigvalsh. Builds a 50 MB coupling it never reads.
    "power_complete_critical": {
        "experiment": "power_curve", "family": "complete", "n": (2500,),
        "theta0": 1.0, "h": (0.0, 0.5, 1.0, 2.0, 4.0), "reps": 2000,
        "alpha": 0.05, "calibration": "monte_carlo",
    },
    # Glauber plus 2^20-state enumeration per replication; stays on the
    # dense path after a partite collapse
    "estimator_random_regular": {
        "experiment": "estimator_law", "family": "random_regular", "d": 10,
        "n": (20, 100), "theta0": 1.5, "reps": 2,
    },
    # reads every coupling entry; two dense eigvalsh per n
    "spectrum_qpartite": {
        "experiment": "spectrum_report", "family": "qpartite", "q": 3,
        "n": (1200, 2400),
    },
}



def workload_params(name: str, seed: int) -> dict:
    return dict(WORKLOADS[name], master_seed=seed)


def config_text(params: dict) -> str:
    """The flat key = value file `ising-infer run` reads."""
    lines = []
    for key, value in params.items():
        if isinstance(value, tuple):
            value = ", ".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def declared_units(section: str) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares in ``section``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(versions: dict) -> dict:
    env = {
        "git_commit": _git_commit(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        WORKERS_ENV: "unset for the measured processes (parent: %s)"
        % os.environ.get(WORKERS_ENV, "unset"),
    }
    env.update(versions)
    env.update({key: os.environ.get(key, "unset") for key in BLAS_ENV})
    return env


def run_child(config_path: str, trace: bool, timeout: float = RUN_LIMIT_S) -> dict:
    """Start one fresh process, wait for it, and return what it reported."""
    env = dict(os.environ)
    env.pop(WORKERS_ENV, None)
    start_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, CHILD, config_path, str(start_ns), "1" if trace else "0"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise CheckError(f"experiment process ran over {timeout:.0f} s")
    if proc.returncode != 0:
        raise CheckError(f"experiment process exited {proc.returncode}: {err.strip()[-2000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise CheckError("experiment process printed no report")
    return json.loads(lines[-1])


def measure(params: dict, seconds: float, trace: bool, config_path: str) -> dict:
    """Run fresh processes until ``seconds`` pass; check and collect each."""
    samples = {"plain": [], "traced": []}
    failures, attempted, reference = [], 0, None
    begin = time.monotonic()
    last = 0.0
    while True:
        elapsed = time.monotonic() - begin
        if attempted >= MIN_PROCESSES and elapsed + last > seconds or elapsed >= RUN_LIMIT_S:
            break
        traced = trace and attempted % 2 == 1
        attempted += 1
        started = time.monotonic()
        try:
            report = run_child(config_path, traced, RUN_LIMIT_S - (time.monotonic() - begin))
            check_output(params, report["csv"])
            body = stable_body(report.pop("csv"))
            if reference is None:
                reference = body
            elif body != reference:
                raise CheckError("records differ from the first run of the same seed")
        except (CheckError, KeyError, TypeError, ValueError) as exc:
            failures.append(str(exc))
            print(f"run {attempted} failed: {exc}", file=sys.stderr)
        else:
            samples["traced" if traced else "plain"].append(report)
        last = time.monotonic() - started
    return {"samples": samples, "failures": failures, "attempted": attempted}


def _median(reports: list[dict], key: str, sub: str | None = None) -> float:
    values = [(r[sub] if sub else r).get(key, 0) for r in reports]
    return float(statistics.median(values))


def summarize(outcome: dict, trace: bool) -> dict:
    plain, traced = outcome["samples"]["plain"], outcome["samples"]["traced"]
    attempted, failed = outcome["attempted"], len(outcome["failures"])
    if trace:
        units = declared_units("per_layer")
        values = {name: _median(traced, name, "layers") for name in units}
        values["trace.overhead_s"] = _median(traced, "wall_s") - _median(plain, "wall_s")
    else:
        units = declared_units("end_to_end")
        values = {name: _median(plain, name) for name in units}
        values["passed_frac"] = (attempted - failed) / attempted
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "ising_infer", "harness.py")):
        print(f"error: no ising_infer sources under {ROOT}/src", file=sys.stderr)
        return 2
    trace = args.trace == "1"
    params = workload_params(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        config_path = os.path.join(work, "experiment.cfg")
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(config_text(params))
        outcome = measure(params, args.seconds, trace, config_path)
    reports = outcome["samples"]["plain"] + outcome["samples"]["traced"]
    if not outcome["samples"]["plain"] or (trace and not outcome["samples"]["traced"]):
        print("error: no experiment process succeeded", file=sys.stderr)
        return 1
    print(json.dumps({
        "environment": environment(reports[0]["versions"]),
        "workload": args.workload, "seed": args.seed, "trace": trace,
        "processes": {kind: len(v) for kind, v in outcome["samples"].items()},
    }))
    print(json.dumps(summarize(outcome, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
