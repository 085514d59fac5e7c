"""Command line front end.

Verbs: run (config file), spectra, estimate, power, limits. run writes
its result where the config says, in the harness's CSV or JSON format,
and prints the path and summary as one JSON line. The other verbs write
CSV to stdout unless --output is given: spectra and power start with the
harness's metadata header line, estimate and limits with their bare
column line. spectra and power run the spectrum_report and power_curve
experiments: each experiment flag they are given goes, as its raw text,
to harness.parse_fields, the parser config files use, so a flag reads as
the config key of its name (--seed as master_seed). Exit codes: 0
success, 2 configuration/parameter errors, 3 numeric failures.

Each verb imports the modules it runs: run, spectra and power load what
their experiment's config loads (harness.ExperimentConfig), estimate the
sampler and the estimators, limits the limit-law module.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .coupling import FAMILIES
from .errors import (
    CALIBRATIONS,
    ConfigError,
    ConstructionError,
    NumericError,
    ParameterError,
)


def _add_experiment_args(parser: argparse.ArgumentParser, experiment: str) -> None:
    # the flags common to the experiment verbs; every value is raw text
    parser.set_defaults(experiment=experiment)
    parser.add_argument("--family", required=True, choices=FAMILIES[:-1])
    parser.add_argument("--q", help="class count")
    parser.add_argument("--d", help="regular degree")
    parser.add_argument("--seed", dest="master_seed", metavar="SEED")
    parser.add_argument("--output", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ising-infer",
        description="Estimation and testing for one-parameter spin models "
        "on dense regular couplings.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run a config-file experiment")
    p_run.add_argument("config", help="key=value config file")
    p_run.add_argument("--output", default=None, help="override output_path")

    # spectra and power pass on only the experiment flags given; the
    # experiment fills the rest from its own defaults
    given = {"argument_default": argparse.SUPPRESS}
    p_spec = sub.add_parser("spectra", help="spectrum report for a family", **given)
    _add_experiment_args(p_spec, "spectrum_report")
    p_spec.add_argument("--n", required=True, help="size or comma list")

    p_est = sub.add_parser("estimate", help="estimate theta from a sample dump")
    p_est.add_argument("--matrix", required=True, help="coupling matrix file")
    p_est.add_argument("--samples", required=True, help="sample dump CSV")
    p_est.add_argument(
        "--method", choices=("mple", "mle", "both"), default="mple"
    )
    p_est.add_argument("--output", default=None)

    p_pow = sub.add_parser("power", help="empirical and limiting power curves", **given)
    _add_experiment_args(p_pow, "power_curve")
    p_pow.add_argument("--n", required=True, help="size or comma list")
    p_pow.add_argument("--theta0", required=True)
    p_pow.add_argument("--h", help="comma grid")
    p_pow.add_argument("--alpha")
    p_pow.add_argument("--reps")
    p_pow.add_argument("--calibration", choices=CALIBRATIONS)

    p_lim = sub.add_parser("limits", help="draws from the limiting laws")
    p_lim.add_argument("--family", required=True, choices=FAMILIES[:-1])
    p_lim.add_argument("--q", type=int, default=None)
    p_lim.add_argument(
        "--eta", type=float, default=None, help="limiting degree fraction d/n"
    )
    p_lim.add_argument("--theta0", type=float, default=1.0)
    p_lim.add_argument("--h", type=float, default=0.0)
    p_lim.add_argument("--reps", type=int, default=100000)
    p_lim.add_argument("--seed", type=int, default=20260815)
    p_lim.add_argument("--output", default=None)
    return parser


def _write_text(text: str, output) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_run(args) -> int:
    from .harness import emit, load_config, run_experiment

    config = load_config(args.config)
    result = run_experiment(config)
    path = emit(result, args.output)
    sys.stdout.write(
        json.dumps({"written": path, "summary": result.summary}, default=float)
        + "\n"
    )
    return 0


def _run_flag_verb(args) -> int:
    """Run the verb's experiment on the flags given, each parsed as the
    config key of its name, and write its CSV."""
    from .harness import parse_fields, render_csv, run_experiment

    given = {k: v for k, v in vars(args).items() if k not in ("verb", "output")}
    _write_text(render_csv(run_experiment(parse_fields(given))), args.output)
    return 0


def _cmd_estimate(args) -> int:
    from .coupling import load_matrix
    from .inference import mle_suff_stats, mple
    from .sampler import SpinConfiguration, read_sample_dump

    coupling = load_matrix(args.matrix)
    configs = []
    for index, row in enumerate(read_sample_dump(args.samples)):
        spins = row["spins"]
        if spins.size != coupling.n:
            raise ParameterError(
                f"sample row {index} has {spins.size} spins, matrix has {coupling.n}"
            )
        configs.append(SpinConfiguration.from_spins(spins, coupling))
    columns = {}
    if args.method != "mle":
        columns["mple"] = [
            (r.value, r.exists, r.iterations, r.diagnostics.get("residual", math.nan))
            for r in map(mple, configs)
        ]
    if args.method != "mple":
        ml = mle_suff_stats(coupling, [config.suff_stat() for config in configs])
        method = "mle" if ml.route is None else f"mle_{ml.route}"
        columns[method] = list(zip(ml.value, ml.exists, ml.iterations, ml.residual))
    lines = ["replication,method,value,exists,iterations,residual"]
    for index in range(len(configs)):
        for method, rows in columns.items():
            value, exists, iterations, residual = rows[index]
            flag = "true" if exists else "false"
            lines.append(
                "%d,%s,%.17g,%s,%d,%.17g"
                % (index, method, value, flag, iterations, residual)
            )
    _write_text("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_limits(args) -> int:
    import numpy as np

    from .coupling import limiting_spectrum
    from .streams import derive_seed
    from .theory import sample_mple_limit, sample_quadratic_limits

    if args.family == "random_regular" and args.eta is None:
        raise ConfigError("--eta: required for random_regular limits")
    if args.reps < 1:
        raise ConfigError("--reps: must be a positive integer")
    lim = limiting_spectrum(args.family, q=args.q, eta=args.eta)
    pair = sample_quadratic_limits(
        args.theta0, lim.limit_eigs, lim.kappa, args.reps, derive_seed(args.seed, 0)
    )
    if args.theta0 == 1.0:
        ratio = sample_mple_limit(
            args.h, lim.limit_eigs, lim.kappa, args.reps, derive_seed(args.seed, 1)
        )
    else:
        ratio = np.full(args.reps, math.nan)
    lines = ["index,centered_qf,centered_qf_sq,mple_limit"]
    for i in range(args.reps):
        lines.append(
            "%d,%.17g,%.17g,%.17g"
            % (i, pair.centered_qf[i], pair.centered_qf_sq[i], ratio[i])
        )
    _write_text("\n".join(lines) + "\n", args.output)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "spectra": _run_flag_verb,
    "estimate": _cmd_estimate,
    "power": _run_flag_verb,
    "limits": _cmd_limits,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except (ConfigError, ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
