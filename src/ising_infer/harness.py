"""Config-driven experiment runner with reproducible seeding and CSV/JSON output.

A run is described by a flat key=value config (file or string), dispatched
to one of five experiment pipelines, and emitted with a metadata header
carrying the package version and a hash of the effective config. Outputs
are deterministic given the master seed: replication r always uses the
derived stream hash(master_seed, r), so serial and worker-pool runs agree
and records can be aggregated in any order.
"""
from __future__ import annotations

import concurrent.futures
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .coupling import (
    FAMILIES,
    build_coupling,
    family_limit,
    limiting_spectrum,
    validate_assumptions,
)
from .errors import ConfigError, ParameterError
from .htests import KINDS, TestSpec, asymptotic_power, calibrate, empirical_power
from .inference import mle_complete_large_n, mle_exact, mple, mple_from_counts
from .sampler import cw_aux_counts, cw_log_partition, glauber_sample
from .streams import derive_seed
from .theory import delta_log_partition, information_rate, sample_mple_limit

EXPERIMENTS = (
    "estimator_law",
    "power_curve",
    "limit_law_density",
    "normalizer_check",
    "spectrum_report",
)
WORKERS_ENV = "ISING_INFER_WORKERS"
FLOAT_FMT = "%.17g"

# keys accepted in config files, with parsers
_INT_KEYS = {"q", "d", "reps", "master_seed"}
_FLOAT_KEYS = {"theta0", "alpha"}
_GRID_KEYS = {"n", "h"}
_STR_KEYS = {"experiment", "family", "output_path", "format", "calibration"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _GRID_KEYS | _STR_KEYS

# desk-scale defaults, per experiment where they differ
_EXPERIMENT_DEFAULTS = {
    "estimator_law": {"n": (1600,), "theta0": 1.5, "reps": 400, "h": (0.0,)},
    "power_curve": {
        "n": (2500,),
        "theta0": 1.0,
        "reps": 2000,
        "h": (0.0, 0.5, 1.0, 2.0, 4.0),
    },
    "limit_law_density": {"n": (10000,), "theta0": 1.0, "reps": 2000, "h": (0.0,)},
    "normalizer_check": {
        "n": (1000, 10000, 100000, 1000000),
        "theta0": 1.5,
        "reps": 1,
        "h": (1.0,),
    },
    "spectrum_report": {"n": (100,), "theta0": 1.0, "reps": 1, "h": (0.0,)},
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    family: str = "complete"
    q: int | None = None
    d: int | None = None
    n: tuple = (1600,)
    theta0: float = 1.5
    h: tuple = (0.0,)
    alpha: float = 0.05
    reps: int = 400
    master_seed: int = 20260815
    output_path: str = "results.csv"
    format: str = "csv"
    calibration: str = "monte_carlo"

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"experiment: {self.experiment!r} is not one of {EXPERIMENTS}"
            )
        if self.family not in FAMILIES:
            raise ConfigError(f"family: {self.family!r} is not one of {FAMILIES}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha: must lie strictly in (0, 1)")
        if self.reps < 1:
            raise ConfigError("reps: must be a positive integer")
        if self.theta0 <= 0.0:
            raise ConfigError("theta0: must be positive")
        if any(v < 1 for v in self.n):
            raise ConfigError("n: all grid entries must be positive")
        if any(v < 0 for v in self.h):
            raise ConfigError("h: grid entries must be nonnegative")
        if self.format not in ("csv", "json"):
            raise ConfigError("format: must be csv or json")
        if self.calibration not in ("monte_carlo", "asymptotic"):
            raise ConfigError("calibration: must be monte_carlo or asymptotic")


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat key=value config text into an ExperimentConfig.

    Blank lines and # comments are ignored. Unknown keys, malformed
    values, and a missing experiment key all raise ConfigError naming the
    offending field. Grid keys (n, h) accept comma-separated lists.
    """
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    if "experiment" not in raw:
        raise ConfigError("experiment: key is required")
    experiment = raw.pop("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"experiment: {experiment!r} is not one of {EXPERIMENTS}"
        )
    values = dict(_EXPERIMENT_DEFAULTS[experiment])
    for key, text_value in raw.items():
        try:
            if key in _INT_KEYS:
                values[key] = int(text_value)
            elif key in _FLOAT_KEYS:
                values[key] = float(text_value)
            elif key in _GRID_KEYS:
                parts = [p.strip() for p in text_value.split(",") if p.strip()]
                if not parts:
                    raise ValueError("empty grid")
                if key == "n":
                    values[key] = tuple(int(p) for p in parts)
                else:
                    values[key] = tuple(float(p) for p in parts)
            else:
                values[key] = text_value
        except ValueError as exc:
            raise ConfigError(f"{key}: cannot parse {text_value!r} ({exc})") from exc
    return ExperimentConfig(experiment=experiment, **values)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def config_hash(config: ExperimentConfig) -> str:
    """Short stable digest over every effective config field."""
    lines = []
    for f in sorted(fields(config), key=lambda f: f.name):
        value = getattr(config, f.name)
        if isinstance(value, float):
            value = FLOAT_FMT % value
        elif isinstance(value, tuple):
            value = ",".join(
                FLOAT_FMT % v if isinstance(v, float) else str(v) for v in value
            )
        lines.append(f"{f.name}={value}")
    digest = hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()
    return digest[:12]


def worker_count() -> int:
    value = os.environ.get(WORKERS_ENV, "1")
    try:
        count = int(value)
    except ValueError as exc:
        raise ConfigError(f"{WORKERS_ENV}: cannot parse {value!r}") from exc
    return max(count, 1)


def _parallel_map(fn, items, workers: int):
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(len(items) // (4 * workers), 1)
        return list(pool.map(fn, items, chunksize=chunk))


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    columns: tuple
    records: list
    summary: dict


# ---------------------------------------------------------------------------
# Pipelines


def _coupling_for(config: ExperimentConfig, n: int):
    kwargs = {}
    if config.q is not None:
        kwargs["q"] = config.q
    if config.d is not None:
        kwargs["d"] = config.d
    if config.family == "random_regular":
        kwargs.setdefault("seed", config.master_seed)
    return build_coupling(config.family, n, **kwargs)


_ESTIMATOR_COLUMNS = (
    "replication",
    "derived_seed",
    "n",
    "theta0",
    "xbar",
    "suff_stat",
    "mple",
    "mple_exists",
    "mle",
    "mle_exists",
    "elapsed_s",
)


def _estimator_replication(args):
    """One non-complete replication: Glauber draw plus both estimates."""
    entries, family, params, theta0, master_seed, r, n = args
    from .coupling import CouplingMatrix

    coupling = CouplingMatrix(n=n, entries=entries, family=family, params=params)
    start = time.perf_counter()
    config = glauber_sample(coupling, theta0, derive_seed(master_seed, r))
    pl = mple(config)
    if n <= 24:
        ml = mle_exact(config, coupling)
        mle_value, mle_exists = ml.value, ml.exists
    else:
        mle_value, mle_exists = math.nan, False
    return {
        "replication": r,
        "derived_seed": derive_seed(master_seed, r),
        "n": n,
        "theta0": theta0,
        "xbar": config.xbar,
        "suff_stat": config.suff_stat(),
        "mple": pl.value,
        "mple_exists": pl.exists,
        "mle": mle_value,
        "mle_exists": mle_exists,
        "elapsed_s": time.perf_counter() - start,
    }


def _run_estimator_law(config: ExperimentConfig) -> ExperimentResult:
    records = []
    for n in config.n:
        if config.family == "complete":
            _, counts = cw_aux_counts(n, config.theta0, config.master_seed, config.reps)
            for r, k in enumerate(counts):
                start = time.perf_counter()
                k = int(k)
                pl = mple_from_counts(n, k)
                ml = mle_complete_large_n(n, k)
                xbar = (2.0 * k - n) / n
                records.append(
                    {
                        "replication": r,
                        "derived_seed": derive_seed(config.master_seed, r),
                        "n": n,
                        "theta0": config.theta0,
                        "xbar": xbar,
                        "suff_stat": n * xbar * xbar - 1.0,
                        "mple": pl.value,
                        "mple_exists": pl.exists,
                        "mle": ml.value,
                        "mle_exists": ml.exists,
                        "elapsed_s": time.perf_counter() - start,
                    }
                )
        else:
            coupling = _coupling_for(config, n)
            args = [
                (
                    coupling.entries,
                    coupling.family,
                    coupling.params,
                    config.theta0,
                    config.master_seed,
                    r,
                    n,
                )
                for r in range(config.reps)
            ]
            rows = _parallel_map(_estimator_replication, args, worker_count())
            records.extend(sorted(rows, key=lambda row: row["replication"]))
    summary = _estimator_summary(config, records)
    return ExperimentResult(config, _ESTIMATOR_COLUMNS, records, summary)


def _estimator_summary(config: ExperimentConfig, records) -> dict:
    summary = {}
    for n in config.n:
        rows = [row for row in records if row["n"] == n]
        scaled = np.array(
            [
                math.sqrt(n) * (row["mple"] - config.theta0)
                for row in rows
                if row["mple_exists"]
            ]
        )
        block = {
            "reps": len(rows),
            "mple_exists_rate": float(np.mean([row["mple_exists"] for row in rows])),
            "scaled_mple_mean": float(scaled.mean()) if scaled.size else math.nan,
            "scaled_mple_sd": float(scaled.std(ddof=1)) if scaled.size > 1 else math.nan,
        }
        if config.theta0 > 1.0:
            block["theory_sd"] = 1.0 / math.sqrt(information_rate(config.theta0))
        elif config.theta0 == 1.0 and config.family == "complete":
            draws = sample_mple_limit(
                0.0, (1.0,), 0.0, 200_000, derive_seed(config.master_seed, 1 << 32)
            )
            block["theory_quartiles"] = [
                float(np.quantile(draws, p)) for p in (0.25, 0.5, 0.75)
            ]
            block["scaled_quartiles"] = (
                [float(np.quantile(scaled, p)) for p in (0.25, 0.5, 0.75)]
                if scaled.size
                else []
            )
        summary[f"n={n}"] = block
    return summary


_POWER_COLUMNS = (
    "n",
    "kind",
    "h",
    "theta_n",
    "empirical_power",
    "mc_stderr",
    "asymptotic_power",
    "asymptotic_stderr",
    "critical_value",
    "gamma",
    "achieved_level",
    "calibration",
    "elapsed_s",
)


def _run_power_curve(config: ExperimentConfig) -> ExperimentResult:
    records = []
    summary = {}
    for n in config.n:
        coupling = _coupling_for(config, n)
        limit = family_limit(coupling) if config.theta0 >= 1.0 else None
        summary_block = {}
        for kind in KINDS:
            spec = TestSpec(
                kind=kind,
                theta0=config.theta0,
                alpha=config.alpha,
                n=n,
                calibration=config.calibration,
                reps=max(config.reps, 1000),
                seed=derive_seed(config.master_seed, 0),
            )
            cal = calibrate(spec, coupling)
            for j, h in enumerate(config.h):
                start = time.perf_counter()
                power = empirical_power(
                    spec,
                    coupling,
                    h,
                    config.reps,
                    derive_seed(config.master_seed, 1 + j),
                    calibration=cal,
                )
                if limit is not None:
                    asym, asym_err = asymptotic_power(
                        kind,
                        config.theta0,
                        h,
                        config.alpha,
                        limit_eigs=limit.limit_eigs,
                        kappa=limit.kappa,
                        seed=derive_seed(config.master_seed, 2 + j),
                    )
                else:
                    asym, asym_err = math.nan, math.nan
                records.append(
                    {
                        "n": n,
                        "kind": kind,
                        "h": h,
                        "theta_n": config.theta0 + h / math.sqrt(n),
                        "empirical_power": power,
                        "mc_stderr": math.sqrt(
                            max(power * (1.0 - power), 0.0) / config.reps
                        ),
                        "asymptotic_power": asym,
                        "asymptotic_stderr": asym_err,
                        "critical_value": cal.critical_value,
                        "gamma": cal.gamma,
                        "achieved_level": (
                            math.nan
                            if cal.achieved_level is None
                            else cal.achieved_level
                        ),
                        "calibration": config.calibration,
                        "elapsed_s": time.perf_counter() - start,
                    }
                )
            summary_block[kind] = {
                "critical_value": cal.critical_value,
                "gamma": cal.gamma,
                "achieved_level": cal.achieved_level,
                "sampler": cal.sampler,
            }
        summary[f"n={n}"] = summary_block
    return ExperimentResult(config, _POWER_COLUMNS, records, summary)


_DENSITY_COLUMNS = ("index", "value", "mple_limit_kde", "mle_limit_cdf")


def _run_limit_law_density(config: ExperimentConfig) -> ExperimentResult:
    from scipy.stats import gaussian_kde

    from .theory import H_MAX, mle_critical_cdf

    if config.theta0 != 1.0:
        raise ConfigError("theta0: limit_law_density is a critical-point experiment")
    kwargs = {} if config.q is None else {"q": config.q}
    if config.family == "random_regular":
        if config.d is None:
            raise ConfigError("d: random_regular needs a degree")
        kwargs["eta"] = config.d / min(config.n)
    try:
        limit = limiting_spectrum(config.family, **kwargs)
    except ParameterError as exc:
        raise ConfigError(
            "family: limit_law_density needs a cataloged family"
        ) from exc
    h = config.h[0]
    draws = sample_mple_limit(
        h,
        limit.limit_eigs,
        limit.kappa,
        max(config.reps, 2000),
        derive_seed(config.master_seed, 0),
    )
    # the ratio law has no mean; clamp the display window to the cdf domain
    # and fit the kde inside it, rescaled to the retained mass
    lo, hi = np.quantile(draws, [0.005, 0.995])
    lo, hi = max(float(lo), -H_MAX), min(float(hi), H_MAX)
    inside = draws[(draws >= lo) & (draws <= hi)]
    kde = gaussian_kde(inside)
    grid = np.linspace(lo, hi, 257)
    dens = (inside.size / draws.size) * kde(grid)
    records = [
        {
            "index": i,
            "value": float(grid[i]),
            "mple_limit_kde": float(dens[i]),
            "mle_limit_cdf": mle_critical_cdf(float(grid[i])),
        }
        for i in range(grid.size)
    ]
    summary = {
        "h": h,
        "draws": int(draws.size),
        "mple_quartiles": [float(np.quantile(draws, p)) for p in (0.25, 0.5, 0.75)],
    }
    return ExperimentResult(config, _DENSITY_COLUMNS, records, summary)


_NORMALIZER_COLUMNS = (
    "n",
    "theta0",
    "h",
    "delta_log_z",
    "drift_term",
    "predicted_limit",
    "gap",
    "elapsed_s",
)


def _run_normalizer_check(config: ExperimentConfig) -> ExperimentResult:
    if config.family != "complete":
        raise ConfigError("family: normalizer_check uses the mean-field closed form")
    records = []
    h = config.h[0]
    limit, drift = delta_log_partition(config.theta0, h)
    for n in config.n:
        start = time.perf_counter()
        theta_n = config.theta0 + h / math.sqrt(n)
        delta = cw_log_partition(n, theta_n) - cw_log_partition(n, config.theta0)
        gap = abs(delta - drift * math.sqrt(n) - limit)
        records.append(
            {
                "n": n,
                "theta0": config.theta0,
                "h": h,
                "delta_log_z": delta,
                "drift_term": drift * math.sqrt(n),
                "predicted_limit": limit,
                "gap": gap,
                "elapsed_s": time.perf_counter() - start,
            }
        )
    summary = {
        "predicted_limit": limit,
        "gaps_decreasing": all(
            records[i]["gap"] >= records[i + 1]["gap"] for i in range(len(records) - 1)
        ),
        "final_gap": records[-1]["gap"],
    }
    return ExperimentResult(config, _NORMALIZER_COLUMNS, records, summary)


_SPECTRUM_COLUMNS = (
    "n",
    "family",
    "q",
    "d",
    "eig_1",
    "eig_2",
    "eig_3",
    "eig_4",
    "frobenius_sq",
    "gamma_sq",
    "kappa",
    "spectral_gap",
    "row_dev_max",
    "assumptions_ok",
    "elapsed_s",
)


def _run_spectrum_report(config: ExperimentConfig) -> ExperimentResult:
    records = []
    for n in config.n:
        start = time.perf_counter()
        coupling = _coupling_for(config, n)
        report = validate_assumptions(coupling)
        summary_spec = report.spectrum
        eigs = summary_spec.finite_eigs
        row = {
            "n": n,
            "family": config.family,
            "q": -1 if config.q is None else config.q,
            "d": -1 if config.d is None else config.d,
            "frobenius_sq": summary_spec.frobenius_sq,
            "gamma_sq": (
                math.nan if summary_spec.gamma_sq is None else summary_spec.gamma_sq
            ),
            "kappa": math.nan if summary_spec.kappa is None else summary_spec.kappa,
            "spectral_gap": report.spectral_gap,
            "row_dev_max": report.row_dev_max,
            "assumptions_ok": report.ok,
            "elapsed_s": time.perf_counter() - start,
        }
        for j in range(4):
            row[f"eig_{j + 1}"] = float(eigs[j]) if j < eigs.size else math.nan
        records.append(row)
    summary = {"families": [config.family], "all_ok": all(r["assumptions_ok"] for r in records)}
    return ExperimentResult(config, _SPECTRUM_COLUMNS, records, summary)


_PIPELINES = {
    "estimator_law": _run_estimator_law,
    "power_curve": _run_power_curve,
    "limit_law_density": _run_limit_law_density,
    "normalizer_check": _run_normalizer_check,
    "spectrum_report": _run_spectrum_report,
}


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Dispatch a validated config to its pipeline.

    Deterministic given master_seed (timing columns aside); the summary
    carries the matching theory-side quantities next to each empirical
    figure.
    """
    return _PIPELINES[config.experiment](config)


# ---------------------------------------------------------------------------
# Emission


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return FLOAT_FMT % value
    return str(value)


def render_csv(result: ExperimentResult) -> str:
    """CSV text with a one-line metadata header comment.

    Bodies are byte-stable across identical configs except for columns
    named elapsed_s.
    """
    if not result.records:
        raise ParameterError("no records to emit")
    buf = io.StringIO()
    buf.write(
        f"# ising-infer v{__version__} "
        f"config_hash={config_hash(result.config)} "
        f"experiment={result.config.experiment}\n"
    )
    buf.write(",".join(result.columns) + "\n")
    for record in result.records:
        buf.write(
            ",".join(_format_value(record[col]) for col in result.columns) + "\n"
        )
    return buf.getvalue()


def render_json(result: ExperimentResult) -> str:
    if not result.records:
        raise ParameterError("no records to emit")
    payload = {
        "version": __version__,
        "config_hash": config_hash(result.config),
        "experiment": result.config.experiment,
        "columns": list(result.columns),
        "records": [
            {col: record[col] for col in result.columns} for record in result.records
        ],
        "summary": result.summary,
    }
    return json.dumps(payload, indent=2, default=float) + "\n"


def emit(result: ExperimentResult, path=None) -> str:
    """Write the result to ``path`` (default: the config's output_path).

    Returns the path written. Raises before creating the file when there
    is nothing to write.
    """
    target = str(path if path is not None else result.config.output_path)
    text = (
        render_json(result)
        if result.config.format == "json"
        else render_csv(result)
    )
    try:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write results to {target}: {exc}") from exc
    return target


def _parse_cell(cell: str):
    if cell == "true":
        return True
    if cell == "false":
        return False
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def read_results(path) -> tuple[dict, list]:
    """Re-ingest an emitted CSV: (metadata dict, list of typed records)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ParameterError(f"{path}: missing metadata header")
    meta = {}
    for token in lines[0][2:].split():
        if "=" in token:
            key, _, value = token.partition("=")
            meta[key] = value
        else:
            meta.setdefault("tool", token)
    columns = lines[1].split(",")
    records = [
        dict(zip(columns, map(_parse_cell, line.split(","))))
        for line in lines[2:]
        if line
    ]
    return meta, records
