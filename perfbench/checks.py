"""Output checks that any correct ising_infer passes.

The checks read the rendered CSV with their own parser and re-derive
replication seeds from the documented rule, so they do not trust the code
under test. They do not compare bytes with a stored output: a change that
alters the random streams but keeps the laws must still pass.
"""
from __future__ import annotations

import hashlib
import math

TIMING_COLUMNS = ("elapsed_s",)
KINDS = ("ms", "np", "pl")
EIG_TOL = 1e-9
# the calibration sample and the power sample at h = 0 are independent
# estimates of the same null level, so their difference has standard error
# sqrt(2 alpha (1 - alpha) / reps); five of those keep false alarms rare
H0_SIGMAS = 5.0


class CheckError(Exception):
    """An experiment output breaks a property every correct run has."""


def derive_seed(master_seed: int, index: int) -> int:
    """First 8 bytes, big-endian, of SHA-256(f"{master}:{index}")."""
    digest = hashlib.sha256(f"{master_seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def _cell(text: str):
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _split(text: str) -> tuple[list[str], list[str]]:
    """(leading '#' metadata lines, column line plus record lines)."""
    lines = text.splitlines()
    start = 0
    while start < len(lines) and lines[start].startswith("#"):
        start += 1
    if not start or not lines[0].startswith("# ising-infer") or start == len(lines):
        raise CheckError("missing '# ising-infer' metadata header or column line")
    return lines[:start], lines[start:]


def parse_csv(text: str) -> tuple[dict, list[dict]]:
    """(header fields, typed records) of one rendered result."""
    meta, table = _split(text)
    header = dict(
        token.split("=", 1) for line in meta for token in line[1:].split() if "=" in token
    )
    columns = table[0].split(",")
    records = []
    for number, line in enumerate(table[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(columns):
            raise CheckError(f"record {number}: {len(cells)} cells, {len(columns)} columns")
        records.append(dict(zip(columns, map(_cell, cells))))
    return header, records


def stable_body(text: str) -> list[tuple]:
    """Columns and records without timing columns, for determinism checks.

    Metadata lines are left out: they may carry run times.
    """
    _, table = _split(text)
    columns = table[0].split(",")
    keep = [i for i, col in enumerate(columns) if col not in TIMING_COLUMNS]
    return [tuple(line.split(",")[i] for i in keep) for line in table]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _check_power(params: dict, records: list[dict]) -> None:
    alpha, reps = params["alpha"], params["reps"]
    expected = {(n, kind, h) for n in params["n"] for kind in KINDS for h in params["h"]}
    got = [(r["n"], r["kind"], r["h"]) for r in records]
    _require(len(got) == len(expected) and set(got) == expected,
             f"power records {sorted(got)} != kinds x h grid {sorted(expected)}")
    h0_bound = alpha + H0_SIGMAS * math.sqrt(2.0 * alpha * (1.0 - alpha) / reps)
    for r in records:
        tag = f"n={r['n']} kind={r['kind']} h={r['h']}"
        _require(r["achieved_level"] <= alpha + 1e-12,
                 f"{tag}: achieved_level {r['achieved_level']} > alpha {alpha}")
        for col in ("empirical_power", "asymptotic_power"):
            _require(0.0 <= r[col] <= 1.0, f"{tag}: {col} {r[col]} outside [0, 1]")
        if r["h"] == 0.0:
            _require(r["empirical_power"] <= h0_bound,
                     f"{tag}: null rejection rate {r['empirical_power']} > {h0_bound:.4f}")


def _check_spectrum(params: dict, records: list[dict]) -> None:
    _require([r["n"] for r in records] == list(params["n"]),
             f"spectrum rows for n={[r['n'] for r in records]}, want {params['n']}")
    q = params["q"]
    want = {"eig_1": 1.0, "eig_2": -1.0 / (q - 1), "eig_3": -1.0 / (q - 1), "eig_4": 0.0}
    for r in records:
        for col, value in want.items():
            _require(abs(r[col] - value) <= EIG_TOL,
                     f"n={r['n']}: {col} = {r[col]!r}, want {value}")
        _require(r["assumptions_ok"] is True, f"n={r['n']}: assumptions_ok is not true")


def _check_estimators(params: dict, records: list[dict]) -> None:
    seed, reps = params["master_seed"], params["reps"]
    expected = [(n, rep) for n in params["n"] for rep in range(reps)]
    got = [(r["n"], r["replication"]) for r in records]
    _require(sorted(got) == expected, f"estimator records {got} != n x reps {expected}")
    for r in records:
        tag = f"n={r['n']} replication={r['replication']}"
        _require(r["derived_seed"] == derive_seed(seed, r["replication"]),
                 f"{tag}: derived_seed {r['derived_seed']} breaks the seed rule")
        if r["mple_exists"]:
            _require(isinstance(r["mple"], float) and math.isfinite(r["mple"]),
                     f"{tag}: mple_exists but mple = {r['mple']!r}")
        if r["n"] <= 24:
            _require(isinstance(r["mle"], float) and not math.isnan(r["mle"]),
                     f"{tag}: mle missing at n <= 24")


CHECKERS = {
    "power_curve": _check_power,
    "spectrum_report": _check_spectrum,
    "estimator_law": _check_estimators,
}


def check_output(params: dict, text: str) -> None:
    """Raise CheckError unless ``text`` is a correct result for ``params``."""
    header, records = parse_csv(text)
    _require(header.get("experiment") == params["experiment"],
             f"header names experiment {header.get('experiment')!r}")
    _require(bool(records), "no records")
    CHECKERS[params["experiment"]](params, records)

