"""Measure how many Glauber sweeps the dense path needs before its draws are in law.

Usage (from the root of a source checkout):
    python3 tools/burn_in_probe.py

Every chain is the sampler's own: ``glauber_series`` from random spins with
no burn-in, seeded ``derive_seed(master, r)`` for chain r, with ``master``
the CRC-32 of the configuration's tuple, run for
``default_burn_in(n, theta)`` sweeps. After each sweep it reads two
sign-invariant statistics, x'Qx and the folded plus count |2K - n|. At each
checkpoint k the draws of the independent chains are compared with a
reference law:

* block: bipartite at n = 100, 400, 900 and qpartite q = 3 at n = 99, 399,
  501 (under the count-law atom cap), theta = 1, 1.1, 1.2, 1.5, against
  the exact count law, by a chi-square test;
* enum: random_regular d = 10, n = 20 on graph seed 7, theta = 1, 1.5,
  against the 2^20 enumeration, by a chi-square test;
* regular: random_regular with d/n = 0.1 and 0.25 at n = 100 and 400,
  theta = 1, 1.5, 2, against independent reference chains of 20n sweeps,
  by a two-sample chi-square test.

Under an exact law the reference draws are as many independent draws from
it (``draw_counts``, or inverse CDF on the enumeration). Chi-square cells
are merged, in value order, until each expects at least 5 draws in every
sample. KS is the Kolmogorov distance of x'Qx to the reference law (the
exact law, or the reference chains' empirical law). R-hat is the
rank-normalised R-hat (the larger of bulk and folded; Vehtari et al. 2021)
of the chains' draws against the reference draws, each set taken as one
chain, the larger over the two statistics; for draws of one law R-hat^2 - 1
is about (chi2_1 - 1) / m with m draws per set. Every test is held at level
1e-4: a checkpoint passes when both chi-square p-values are at least 1e-4,
KS is at most its 1e-4 Kolmogorov bound and R-hat at most its 1e-4 bound,
sqrt(1 + (q - 1) / m) with q the 1e-4 upper quantile of chi2_1 (1.0175 at
m = 400). So a checkpoint in law fails with probability under 0.1 %.
``settled`` is the first checkpoint from which every later one passes, and
``safety`` is the default burn-in divided by it. Seeds are fixed, so a rerun
on one machine prints the same table. It runs the configurations in two worker
processes and takes about 35 minutes on 2 cores.
"""
from __future__ import annotations

import math
import multiprocessing
import os
import sys
import zlib
from concurrent.futures import ProcessPoolExecutor

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
# the per-code x'Qx table is a test oracle; the package keeps only its cells
sys.path.insert(0, os.path.join(ROOT, "tests"))

from ising_infer import (  # noqa: E402
    build_coupling,
    count_law,
    derive_seed,
    draw_counts,
)
from ising_infer.sampler import (  # noqa: E402
    default_burn_in,
    glauber_sample,
    glauber_series,
)
from ising_infer.special import chdtrc, ndtri  # noqa: E402
from ising_infer.streams import substream_uniforms  # noqa: E402
from oracles import suff_stats_by_code  # noqa: E402

LEVEL, MIN_EXPECTED = 1e-4, 5.0
CHECKPOINTS = (1, 2, 3, 5, 7, 10, 15, 20, 30, 50, 70, 100, 150, 200, 300, 500, 700)
SHOWN = (5, 10, 20, 50, 100)
CHAINS, ENUM_CHAINS = 400, 3000
WORKERS = 2
REFERENCE_SWEEPS_PER_N = 20


def _tasks() -> list:
    tasks = []
    for family, sizes in (("bipartite", (100, 400, 900)), ("qpartite", (99, 399, 501))):
        for n in sizes:
            for theta in (1.0, 1.1, 1.2, 1.5):
                tasks.append(("block", family, n, None, theta))
    for theta in (1.0, 1.5):
        tasks.append(("enum", "random_regular", 20, 10, theta))
    for n in (100, 400):
        for ratio in (0.1, 0.25):
            for theta in (1.0, 1.5, 2.0):
                tasks.append(("regular", "random_regular", n, round(ratio * n), theta))
    return tasks


def _coupling(family: str, n: int, d):
    if family == "qpartite":
        return build_coupling(family, n, q=3)
    if family == "random_regular":
        return build_coupling(family, n, d=d, seed=7)
    return build_coupling(family, n)


def _chains(coupling, theta: float, master: int, chains: int, sweeps: int):
    """(chains, sweeps) arrays of x'Qx and |2K - n| after each sweep."""
    suff = np.empty((chains, sweeps))
    fold = np.empty((chains, sweeps), dtype=np.int64)
    for r in range(chains):
        suff[r], xbar = glauber_series(
            coupling, theta, derive_seed(master, r), samples=sweeps, burn_in=0
        )
        fold[r] = np.abs(np.rint(xbar * coupling.n)).astype(np.int64)
    return suff, fold


def _cell_of(cells: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index of the nearest cell value to each value."""
    i = np.clip(np.searchsorted(cells, values), 1, cells.size - 1)
    return np.where(values - cells[i - 1] < cells[i] - values, i - 1, i)


def _merge(expected: np.ndarray) -> np.ndarray:
    """Group label of each cell: adjacent cells merged until each group's
    expected count (the smallest over the samples) reaches MIN_EXPECTED."""
    labels = np.empty(expected.shape[1], dtype=np.int64)
    group, acc = 0, np.zeros(expected.shape[0])
    for j in range(expected.shape[1]):
        labels[j] = group
        acc += expected[:, j]
        if acc.min() >= MIN_EXPECTED:
            group, acc = group + 1, np.zeros(expected.shape[0])
    if group > 0 and labels[-1] == group:
        labels[labels == group] = group - 1  # a short last group joins its neighbour
    return labels


def _chi_square(observed: np.ndarray, expected: np.ndarray) -> float:
    """p-value of observed counts (samples x cells) against expected counts."""
    labels = _merge(expected)
    obs = np.stack([np.bincount(labels, weights=row) for row in observed])
    exp = np.stack([np.bincount(labels, weights=row) for row in expected])
    if obs.shape[1] < 2:
        return 1.0
    stat = float(((obs - exp) ** 2 / exp).sum())
    # one sample against a law, or two samples against each other: a row
    # of cell counts less one constraint either way
    return float(chdtrc(obs.shape[1] - 1, stat))


def _one_sample(cells_drawn: np.ndarray, pmf: np.ndarray) -> float:
    observed = np.bincount(cells_drawn, minlength=pmf.size)[None, :].astype(float)
    return _chi_square(observed, cells_drawn.size * pmf[None, :])


def _two_sample(a: np.ndarray, b: np.ndarray) -> float:
    values, inverse = np.unique(np.concatenate([a, b]), return_inverse=True)
    counts = np.stack([
        np.bincount(inverse[: a.size], minlength=values.size),
        np.bincount(inverse[a.size :], minlength=values.size),
    ]).astype(float)
    share = counts.sum(axis=0) / counts.sum()
    return _chi_square(counts, np.outer(counts.sum(axis=1), share))


def _ks(a: np.ndarray, cells: np.ndarray, cdf: np.ndarray) -> float:
    """Kolmogorov distance of the draws ``a`` to a law with ``cdf`` at ``cells``."""
    empirical = np.searchsorted(np.sort(a), cells, side="right") / a.size
    return float(np.max(np.abs(empirical - cdf)))


def _ranks(x: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) of the flattened ``x``, ties shared."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    before = np.cumsum(counts) - counts
    return (before + (counts + 1) / 2.0)[inverse].reshape(x.shape)


def _rhat_classic(z: np.ndarray) -> float:
    m = z.shape[1]
    within = z.var(axis=1, ddof=1).mean()
    between = m * z.mean(axis=1).var(ddof=1)
    if within == 0.0:
        return 1.0 if between == 0.0 else math.inf
    return math.sqrt(((m - 1) / m * within + between / m) / within)


def _rank_normal(x: np.ndarray) -> np.ndarray:
    return ndtri((_ranks(x) - 0.375) / (x.size + 0.25))


def _rhat(groups: np.ndarray) -> float:
    """Rank-normalised R-hat of (chains, draws): the larger of bulk and folded."""
    folded = np.abs(groups - np.median(groups))
    return max(_rhat_classic(_rank_normal(groups)), _rhat_classic(_rank_normal(folded)))


def _reference(kind: str, coupling, theta: float, master: int, draws: int) -> dict:
    """``draws`` reference draws of x'Qx (rounded) and |2K - n|, and under an
    exact law its x'Qx cells, their pmf and the pmf of |2K - n|."""
    n = coupling.n
    if kind == "regular":
        sweeps = REFERENCE_SWEEPS_PER_N * n
        configs = [
            glauber_sample(coupling, theta, derive_seed(master, r), sweeps=sweeps)
            for r in range(draws)
        ]
        return {
            "suff": np.round([c.suff_stat() for c in configs], 6),
            "fold": np.array([abs(int(c.spins.sum())) for c in configs]),
        }
    if kind == "block":
        law = count_law(coupling)
        pmf = law.tilted(theta)[2].reshape(law.shape[0], -1)
        values = law.values.reshape(pmf.shape)
        rest = sum(np.ix_(*map(np.arange, law.shape[1:]))).reshape(-1)
        # one slice of the atom grid at a time, so no atom-sized temporaries
        exact = _exact(((values[k], pmf[k], k + rest) for k in range(pmf.shape[0])), n)
        picked = draw_counts(law, theta, substream_uniforms(master, draws, 1)[:, 0])
        suff, plus = law.values[picked], sum(law.class_counts(picked))
    else:
        values = suff_stats_by_code(coupling)
        logw = 0.5 * theta * values
        pmf = np.exp(logw - logw.max())
        pmf /= pmf.sum()
        codes = np.arange(1 << n, dtype=np.int64)
        exact = _exact([(values, pmf, sum((codes >> b) & 1 for b in range(n)))], n)
        u = np.random.default_rng(derive_seed(master, 0)).random(draws)
        picked = np.searchsorted(np.cumsum(pmf), u, side="right")
        picked = np.minimum(picked, pmf.size - 1)
        suff, plus = values[picked], sum((picked >> b) & 1 for b in range(n))
    cells, cell_pmf, fold_pmf = exact
    return {
        "suff": np.round(suff, 6),
        "fold": np.abs(2 * plus - n),
        "cells": cells,
        "pmf": cell_pmf,
        "fold_pmf": fold_pmf,
    }


def _exact(slices, n: int) -> tuple:
    """x'Qx cells with their pmf, and the pmf of |2K - n| over 0..n, from
    (x'Qx, probability, K) slices of an exact law."""
    fold_pmf, parts = np.zeros(n + 1), []
    for values, pmf, plus in slices:
        fold_pmf += np.bincount(np.abs(2 * plus - n), weights=pmf, minlength=n + 1)
        cells, inverse = np.unique(np.round(values, 6), return_inverse=True)
        parts.append((cells, np.bincount(inverse, weights=pmf)))
    values, masses = (np.concatenate(column) for column in zip(*parts))
    cells, inverse = np.unique(values, return_inverse=True)
    return cells, np.bincount(inverse, weights=masses), fold_pmf


def _checkpoint(ref: dict, suff: np.ndarray, fold: np.ndarray) -> tuple:
    """(p, KS, R-hat) of the chains' draws at one checkpoint against ``ref``."""
    if "cells" in ref:
        cell = _cell_of(ref["cells"], suff)
        suff = ref["cells"][cell]
        p = min(_one_sample(cell, ref["pmf"]), _one_sample(fold, ref["fold_pmf"]))
        cells, cdf = ref["cells"], np.cumsum(ref["pmf"])
    else:
        suff = np.round(suff, 6)
        p = min(_two_sample(suff, ref["suff"]), _two_sample(fold, ref["fold"]))
        cells = np.unique(np.concatenate([suff, ref["suff"]]))
        cdf = np.searchsorted(np.sort(ref["suff"]), cells, side="right")
        cdf = cdf / ref["suff"].size
    r_hat = max(
        _rhat(np.stack([suff, ref["suff"]])), _rhat(np.stack([fold, ref["fold"]]))
    )
    return p, _ks(suff, cells, cdf), r_hat


def _probe(task) -> dict:
    kind, family, n, d, theta = task
    coupling = _coupling(family, n, d)
    horizon = default_burn_in(n, theta)
    master = zlib.crc32(repr(task).encode("ascii"))
    chains = ENUM_CHAINS if kind == "enum" else CHAINS
    suff, fold = _chains(coupling, theta, master, chains, horizon)
    ref = _reference(kind, coupling, theta, master + 1, chains)
    # Kolmogorov's level-LEVEL bound, for one sample or for two of equal size
    ks_crit = math.sqrt(-math.log(LEVEL / 2.0) / 2.0)
    ks_crit *= math.sqrt((2.0 if kind == "regular" else 1.0) / chains)
    rhat_crit = math.sqrt(1.0 + (float(ndtri(1.0 - LEVEL / 2.0)) ** 2 - 1.0) / chains)
    rows = []
    for k in sorted({k for k in CHECKPOINTS if k < horizon} | {horizon}):
        p, ks, r_hat = _checkpoint(ref, suff[:, k - 1], fold[:, k - 1])
        ok = p >= LEVEL and ks <= ks_crit and r_hat <= rhat_crit
        rows.append((k, p, ks, r_hat, ok))
    settled = None
    for k, *_, ok in reversed(rows):
        if not ok:
            break
        settled = k
    return {"task": task, "chains": chains, "horizon": horizon, "ks_crit": ks_crit,
            "rhat_crit": rhat_crit,
            "rows": rows, "settled": settled}


def _format(result) -> str:
    kind, family, n, d, theta = result["task"]
    rows = {k: (p, ks, r) for k, p, ks, r, _ in result["rows"]}
    settled, horizon = result["settled"], result["horizon"]
    root = math.isqrt(n - 1) + 1
    p, ks, r_hat = rows[horizon]
    early = ", ".join(f"{rows[k][0]:.2g}" for k in SHOWN if k in rows and k < horizon)
    name = family + ("" if d is None else f" d={d}")
    if settled is None:
        found = "- | - | - |"
    else:
        found = f"{settled} | {settled / root:.2f} | {horizon / settled:.0f} |"
    return (f"| {kind} | {name} | {n} | {theta} | {result['chains']} | {found} "
            f"{horizon} | {p:.2f} | {ks:.3f} ({result['ks_crit']:.3f}) | "
            f"{r_hat:.4f} ({result['rhat_crit']:.4f}) | {early} |")


def main() -> int:
    print(
        "| part | family | n | theta | chains | settled | settled / ceil(sqrt n) "
        "| safety | default | p | KS (bound) | R-hat (bound) "
        f"| p at {', '.join(map(str, SHOWN))} |"
    )
    print("|" + " --- |" * 13)
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=WORKERS, mp_context=context) as pool:
        for result in pool.map(_probe, _tasks()):
            print(_format(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
