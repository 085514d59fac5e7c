"""Config-driven experiment runner with reproducible seeding and CSV/JSON output.

A run is described by a flat key=value config (file or string), dispatched
to one of five experiment pipelines, and emitted with a metadata header
carrying the package version and a hash of the effective config. Outputs
are deterministic given the master seed: replication r always uses the
derived stream hash(master_seed, r), so serial and worker-pool runs agree
and records can be aggregated in any order. Every replication comes from
an htests.DrawSet, which draws the atoms or maps the Glauber chains. The
estimator law reads one DrawSet per n, at theta0 with the master seed,
and solves the MLE of its x'Qx column, exact or plug-in, once per distinct
value (inference.mle_suff_stats). A power curve holds one DrawSet per (n, h),
shared by ms, np and pl, and one null DrawSet per n, which only a Glauber
calibration reads and so draws; its asymptotic power is limit_power,
exact and drawn from no stream.
Every critical limit-law number (the estimator-law quartiles,
limit_law_density) comes from the quadrature of theory.mple_limit_sf and
draws nothing.

This module imports only errors, streams and coupling when it loads. Each
pipeline names the further modules it runs next to its entry in
_PIPELINES, and ExperimentConfig imports them when a config is made: a
spectrum report loads no sampler, estimator, test or limit-law module, and
no module of the package loads inside run_experiment. One import still
does: numpy.random, with the OpenSSL that its ``secrets`` import loads,
comes in on a run's first Generator, which only a Glauber chain or a
random_regular graph builds. Count-law runs, spectrum reports,
limit_law_density and normalizer_check build none and never load it.
"""
from __future__ import annotations

# numpy before the standard library: importing it starts OpenBLAS's worker
# threads, which spin for about 0.13 s before they sleep, so the sooner it
# loads, the less of that spin falls into a run made right after its config
import numpy as np

import importlib
import io
import json
import math
import time
from dataclasses import dataclass, fields

from . import __version__
from .coupling import (
    FAMILIES,
    build_coupling,
    family_limit,
    limiting_spectrum,
    validate_assumptions,
)
from .errors import CALIBRATIONS, H_MAX, ConfigError, ParameterError
from .streams import derive_seed, sha256

EXPERIMENTS = (
    "estimator_law",
    "power_curve",
    "limit_law_density",
    "normalizer_check",
    "spectrum_report",
)
FLOAT_FMT = "%.17g"

# keys accepted in config files, with parsers
_INT_KEYS = {"q", "d", "reps", "master_seed"}
_FLOAT_KEYS = {"theta0", "alpha"}
_GRID_KEYS = {"n", "h"}
_STR_KEYS = {"experiment", "family", "output_path", "format", "calibration"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _GRID_KEYS | _STR_KEYS

# desk-scale defaults of n, theta0, reps and h, per experiment; the only
# source of them: ExperimentConfig fills each field left unset from here
_EXPERIMENT_DEFAULTS = {
    "estimator_law": {"n": (1600,), "theta0": 1.5, "reps": 400, "h": (0.0,)},
    "power_curve": {
        "n": (2500,),
        "theta0": 1.0,
        "reps": 2000,
        "h": (0.0, 0.5, 1.0, 2.0, 4.0),
    },
    "limit_law_density": {"n": (10000,), "theta0": 1.0, "reps": 1, "h": (0.0,)},
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
    """One validated run; n, theta0, h and reps default per experiment."""

    experiment: str
    family: str = "complete"
    q: int | None = None
    d: int | None = None
    n: tuple | None = None
    theta0: float | None = None
    h: tuple | None = None
    alpha: float = 0.05
    reps: int | None = None
    master_seed: int = 20260815
    output_path: str = "results.csv"
    format: str = "csv"
    calibration: str = "monte_carlo"

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"experiment: {self.experiment!r} is not one of {EXPERIMENTS}"
            )
        for key, value in _EXPERIMENT_DEFAULTS[self.experiment].items():
            if getattr(self, key) is None:
                object.__setattr__(self, key, value)
        if self.family not in FAMILIES:
            raise ConfigError(f"family: {self.family!r} is not one of {FAMILIES}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha: must lie strictly in (0, 1)")
        if self.reps < 1:
            raise ConfigError("reps: must be a positive integer")
        if not 0.0 < self.theta0 < math.inf:
            raise ConfigError("theta0: must be positive and finite")
        if any(v < 1 for v in self.n):
            raise ConfigError("n: all grid entries must be positive")
        if not all(0.0 <= v < math.inf for v in self.h):
            raise ConfigError("h: grid entries must be nonnegative and finite")
        for key in ("n", "h"):
            grid = getattr(self, key)
            if not grid:
                raise ConfigError(f"{key}: the grid is empty")
            if len(set(grid)) < len(grid):
                raise ConfigError(f"{key}: grid entries must be distinct")
        # at theta0 = 1 these read critical_law(h), which caps h at H_MAX
        critical = ("power_curve", "limit_law_density", "normalizer_check")
        if self.theta0 == 1.0 and self.experiment in critical and max(self.h) > H_MAX:
            raise ConfigError(f"h: the critical limit law caps h at {H_MAX}")
        if self.format not in ("csv", "json"):
            raise ConfigError("format: must be csv or json")
        if self.calibration not in CALIBRATIONS:
            raise ConfigError(f"calibration: must be {' or '.join(CALIBRATIONS)}")
        for module in _PIPELINES[self.experiment][1]:
            importlib.import_module(f".{module}", __package__)


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
    values = {}
    for key, text_value in raw.items():
        try:
            if key in _INT_KEYS:
                values[key] = int(text_value)
            elif key in _FLOAT_KEYS:
                values[key] = float(text_value)
            elif key in _GRID_KEYS:
                parts = [p.strip() for p in text_value.split(",") if p.strip()]
                if key == "n":
                    values[key] = tuple(int(p) for p in parts)
                else:
                    values[key] = tuple(float(p) for p in parts)
            else:
                values[key] = text_value
        except ValueError as exc:
            raise ConfigError(f"{key}: cannot parse {text_value!r} ({exc})") from exc
    return ExperimentConfig(**values)


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
    digest = sha256("\n".join(lines).encode("ascii")).hexdigest()
    return digest[:12]


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


def _run_estimator_law(config: ExperimentConfig) -> ExperimentResult:
    """One DrawSet per n at theta0 with the master seed, and the MLE of its
    x'Qx column, exact or plug-in; ``elapsed_s`` is the set's wall time split
    evenly over its records."""
    from .htests import DrawSet
    from .inference import mle_suff_stats
    from .sampler import count_law

    records, limits, burn_ins, routes, reps = [], {}, {}, {}, config.reps
    for n in config.n:
        coupling = _coupling_for(config, n)
        limits[n] = family_limit(coupling)
        burn_ins[n] = _burn_in(count_law(coupling), n, config.theta0)
        start = time.perf_counter()
        draws = DrawSet(coupling, config.theta0, config.master_seed, reps)
        ml = mle_suff_stats(coupling, draws.columns["suff_stat"])
        routes[n] = ml.route
        arrays = {**draws.columns, "mle": ml.value, "mle_exists": ml.exists}
        columns = {
            "replication": range(reps), "derived_seed": draws.seeds.tolist(),
            "n": [n] * reps, "theta0": [config.theta0] * reps,
            **{key: array.tolist() for key, array in arrays.items()},
            "elapsed_s": [(time.perf_counter() - start) / reps] * reps,
        }
        records.extend(dict(zip(columns, row)) for row in zip(*columns.values()))
    summary = _estimator_summary(config, records, limits, burn_ins, routes)
    return ExperimentResult(config, _ESTIMATOR_COLUMNS, records, summary)


def _burn_in(law, n: int, theta: float) -> int | None:
    """Sweeps of each Glauber chain at n, or None under a count law."""
    from .sampler import default_burn_in

    return None if law is not None else default_burn_in(n, theta)


def _scaled_estimates(rows, key: str, n: int, theta0: float) -> tuple[dict, np.ndarray]:
    """The ``key`` estimate's exists rate and the mean and SD of
    sqrt(n)(estimate - theta0) over the estimates that exist, which it
    also returns."""
    scaled = np.array(
        [math.sqrt(n) * (row[key] - theta0) for row in rows if row[f"{key}_exists"]]
    )
    figures = {
        f"{key}_exists_rate": float(np.mean([row[f"{key}_exists"] for row in rows])),
        f"scaled_{key}_mean": float(scaled.mean()) if scaled.size else math.nan,
        f"scaled_{key}_sd": float(scaled.std(ddof=1)) if scaled.size > 1 else math.nan,
    }
    return figures, scaled


def _estimator_summary(
    config: ExperimentConfig, records, limits, burn_ins, routes
) -> dict:
    from .theory import information_rate, mple_limit_quantile

    summary = {}
    for n in config.n:
        rows = [row for row in records if row["n"] == n]
        mple_figures, scaled = _scaled_estimates(rows, "mple", n, config.theta0)
        block = {
            "sampler": "exact" if burn_ins[n] is None else "glauber",
            "burn_in": burn_ins[n],
            "reps": len(rows),
            **mple_figures,
            "mle_route": routes[n],
            **_scaled_estimates(rows, "mle", n, config.theta0)[0],
        }
        if config.theta0 > 1.0:
            block["theory_sd"] = 1.0 / math.sqrt(information_rate(config.theta0))
        elif config.theta0 == 1.0:
            lim = limits[n]
            block["theory_quartiles"] = [
                mple_limit_quantile(p, 0.0, lim.limit_eigs, lim.kappa)
                for p in (0.25, 0.5, 0.75)
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
    "exact_power",
    "asymptotic_power",
    "critical_value",
    "gamma",
    "achieved_level",
    "calibration",
    "elapsed_s",
)


def _run_power_curve(config: ExperimentConfig) -> ExperimentResult:
    from .htests import (
        KINDS,
        MIN_CALIBRATION_REPS,
        DrawSet,
        TestSpec,
        calibrate,
        empirical_power,
        exact_power,
        limit_power,
    )
    from .sampler import count_law

    records = []
    summary = {}
    for n in config.n:
        coupling = _coupling_for(config, n)
        limit = family_limit(coupling) if config.theta0 >= 1.0 else None
        law = count_law(coupling)
        # drawn on first read, and only a Glauber calibration reads it
        null_reps = max(config.reps, MIN_CALIBRATION_REPS)
        null = DrawSet(
            coupling, config.theta0, derive_seed(config.master_seed, 0), null_reps
        )
        calibrations = {}
        for kind in KINDS:
            spec = TestSpec(kind, config.theta0, config.alpha, n, config.calibration)
            calibrations[kind] = calibrate(spec, coupling, null)
        rows = {kind: [] for kind in KINDS}
        # kinds inner, so the three kinds at one h share one draw set, drawn
        # by the first kind's empirical_power
        for j, h in enumerate(config.h):
            theta_n = config.theta0 + h / math.sqrt(n)
            draws = DrawSet(
                coupling, theta_n, derive_seed(config.master_seed, 1 + j), config.reps
            )
            for kind, cal in calibrations.items():
                start = time.perf_counter()
                power = empirical_power(cal, draws)
                exact = (
                    exact_power(cal.spec, coupling, h, calibration=cal)
                    if law is not None
                    else math.nan
                )
                asym = (
                    limit_power(
                        kind,
                        config.theta0,
                        h,
                        config.alpha,
                        limit_eigs=limit.limit_eigs,
                        kappa=limit.kappa,
                    )
                    if limit is not None
                    else math.nan
                )
                rows[kind].append(
                    {
                        "n": n,
                        "kind": kind,
                        "h": h,
                        "theta_n": theta_n,
                        "empirical_power": power,
                        "mc_stderr": math.sqrt(
                            max(power * (1.0 - power), 0.0) / config.reps
                        ),
                        "exact_power": exact,
                        "asymptotic_power": asym,
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
        for kind in KINDS:
            records.extend(rows[kind])
        # one rule for the null and every theta_n, so one count per n
        burn_in = _burn_in(law, n, config.theta0)
        summary[f"n={n}"] = {
            kind: {
                "critical_value": cal.critical_value,
                "gamma": cal.gamma,
                "achieved_level": cal.achieved_level,
                "sampler": cal.sampler,
                "burn_in": burn_in,
            }
            for kind, cal in calibrations.items()
        }
    return ExperimentResult(config, _POWER_COLUMNS, records, summary)


_DENSITY_COLUMNS = ("index", "value", "mple_limit_density", "mle_limit_cdf")


def _run_limit_law_density(config: ExperimentConfig) -> ExperimentResult:
    from .theory import mle_critical_cdf, mple_limit_quantile, mple_limit_sf

    if config.theta0 != 1.0:
        raise ConfigError("theta0: limit_law_density is a critical-point experiment")
    if config.family == "random_regular" and config.d is None:
        raise ConfigError("d: random_regular needs a degree")
    eta = None if config.d is None else config.d / min(config.n)
    try:
        limit = limiting_spectrum(config.family, q=config.q, eta=eta)
    except ParameterError as exc:
        raise ConfigError(f"family: {exc}") from exc
    h = config.h[0]

    def quantile(p):
        return mple_limit_quantile(p, h, limit.limit_eigs, limit.kappa)

    # the ratio law has no mean; clamp the display window to the cdf domain.
    # Each cell's density is its exact mass over its width: the quadrature
    # sf is accurate in value but not in slope (the chi-square cusp of D)
    lo, hi = max(quantile(0.005), -H_MAX), min(quantile(0.995), H_MAX)
    edges = np.linspace(lo, hi, 258)  # 257 cells
    sf = np.array([mple_limit_sf(v, h, limit.limit_eigs, limit.kappa) for v in edges])
    mids = 0.5 * (edges[1:] + edges[:-1])
    dens = -np.diff(sf) / np.diff(edges)
    records = [
        {
            "index": i,
            "value": float(mids[i]),
            "mple_limit_density": float(dens[i]),
            "mle_limit_cdf": mle_critical_cdf(float(mids[i])),
        }
        for i in range(mids.size)
    ]
    summary = {"h": h, "mple_quartiles": [quantile(p) for p in (0.25, 0.5, 0.75)]}
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
    from .sampler import cw_log_partition
    from .theory import delta_log_partition

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


# experiment -> (pipeline, the modules it imports beyond errors, streams and
# coupling); ExperimentConfig imports them, and their own imports, when a
# config is made
_PIPELINES = {
    "estimator_law": (
        _run_estimator_law, ("htests", "inference", "sampler", "theory")
    ),
    "power_curve": (_run_power_curve, ("htests", "sampler")),
    "limit_law_density": (_run_limit_law_density, ("theory",)),
    "normalizer_check": (_run_normalizer_check, ("sampler", "theory")),
    "spectrum_report": (_run_spectrum_report, ()),
}


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Dispatch a validated config to its pipeline.

    Deterministic given master_seed (timing columns aside); the summary
    carries the matching theory-side quantities next to each empirical
    figure.
    """
    return _PIPELINES[config.experiment][0](config)


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
