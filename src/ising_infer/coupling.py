"""Coupling matrices for one-parameter Ising models on dense regular graphs.

A coupling is a symmetric nonnegative matrix with zero diagonal whose row
sums are (exactly or asymptotically) 1. This module builds the cataloged
families, validates the standing assumptions (regularity, entrywise bound,
spectral gap), computes finite and limiting spectra, and evaluates the
centered quadratic forms that drive the limit laws without ever
materializing the centered matrix.

Families
--------
complete          (n-1) off-diagonal entries of 1/n; row sums (n-1)/n.
bipartite         2/n between the two halves of an even-n vertex set.
qpartite          q/(n(q-1)) between contiguous classes of size n/q.
cyclic_qpartite   q/(2n) between cyclically adjacent classes of size n/q.
random_regular    1/d on the edges of a d-regular simple graph.
custom            anything loaded from a matrix file.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, ParameterError
from .streams import as_generator

FAMILIES = (
    "complete",
    "bipartite",
    "qpartite",
    "cyclic_qpartite",
    "random_regular",
    "custom",
)

#: Families whose limiting spectrum is known in closed form.
CATALOGED = FAMILIES[:-1]


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """An immutable coupling matrix together with its family tag.

    Attributes
    ----------
    n : int
        Number of vertices (spins).
    entries : np.ndarray
        Dense (n, n) float64 array, symmetric, zero diagonal. The buffer is
        marked read-only at construction.
    family : str
        One of FAMILIES.
    params : dict
        Family parameters (``q`` for the partite families, ``d`` and
        ``seed`` for random regular graphs). Empty for complete/bipartite.
    """

    n: int
    entries: np.ndarray
    family: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ParameterError(f"unknown family {self.family!r}")
        e = np.asarray(self.entries, dtype=np.float64)
        if e.shape != (self.n, self.n):
            raise ParameterError(
                f"entries shape {e.shape} does not match n={self.n}"
            )
        if not np.array_equal(e, e.T):
            raise ParameterError("coupling matrix must be symmetric")
        if np.any(np.diagonal(e) != 0.0):
            raise ParameterError("coupling matrix must have zero diagonal")
        if np.any(e < 0.0) or not np.all(np.isfinite(e)):
            raise ParameterError("coupling entries must be finite and nonnegative")
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)

    def row_sums(self) -> np.ndarray:
        return self.entries.sum(axis=1)

    def local_fields(self, spins: np.ndarray) -> np.ndarray:
        """Return t with t_i = sum_j Q(i, j) * spins[j]."""
        return self.entries @ np.asarray(spins, dtype=np.float64)


@dataclass(frozen=True)
class LimitingSpectrum:
    """Limiting graphon eigenvalues and spectral defect of a family."""

    limit_eigs: tuple
    gamma_sq: float
    kappa: float


@dataclass(frozen=True)
class SpectralSummary:
    """Finite spectrum of a coupling plus its cataloged limit, if any.

    ``finite_eigs`` is sorted by descending absolute value with ties broken
    toward the positive eigenvalue, so the leading entry is the Perron root.
    ``limit_eigs``/``gamma_sq``/``kappa`` are None for custom couplings.
    """

    n: int
    family: str
    finite_eigs: np.ndarray
    frobenius_sq: float
    limit_eigs: tuple | None
    gamma_sq: float | None
    kappa: float | None

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "family": self.family,
            "finite_eigs": [float(v) for v in self.finite_eigs],
            "frobenius_sq": float(self.frobenius_sq),
            "limit_eigs": None
            if self.limit_eigs is None
            else [float(v) for v in self.limit_eigs],
            "gamma_sq": None if self.gamma_sq is None else float(self.gamma_sq),
            "kappa": None if self.kappa is None else float(self.kappa),
        }


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_assumptions.

    ``passes`` has one boolean per checked assumption; ``ok`` is their
    conjunction. ``spectrum`` is the summary the gap was read from. All
    recorded quantities are deterministic functions of the matrix and the
    tolerances.
    """

    n: int
    row_dev_max: float
    entry_bound: float
    spectral_gap: float
    row_tol: float
    gap_tol: float
    passes: dict
    spectrum: SpectralSummary

    @property
    def ok(self) -> bool:
        return all(self.passes.values())


def _sort_by_abs_desc(values: np.ndarray) -> np.ndarray:
    order = np.lexsort((-values, -np.abs(values)))
    return values[order]


def _class_labels(n: int, q: int) -> np.ndarray:
    # contiguous classes of size n/q; vertex i belongs to class i*q//n
    return np.repeat(np.arange(q), n // q)


def build_coupling(
    family: str,
    n: int,
    *,
    q: int | None = None,
    d: int | None = None,
    seed: int | None = None,
) -> CouplingMatrix:
    """Build a cataloged coupling matrix.

    Parameters
    ----------
    family : str
        One of the cataloged family tags (not "custom").
    n : int
        Number of vertices; must satisfy the family's divisibility rules.
    q : int, optional
        Class count for qpartite (q >= 2) and cyclic_qpartite (q >= 3).
    d : int, optional
        Degree for random_regular (1 <= d < n, d*n even).
    seed : int, optional
        Seed for the random_regular pairing; required for that family.
    """
    if n < 2:
        raise ParameterError("n must be at least 2")
    if family == "complete":
        e = np.full((n, n), 1.0 / n)
        np.fill_diagonal(e, 0.0)
        return CouplingMatrix(n, e, "complete")
    if family == "bipartite":
        if n % 2:
            raise ParameterError("bipartite coupling needs even n")
        half = n // 2
        e = np.zeros((n, n))
        e[:half, half:] = 2.0 / n
        e[half:, :half] = 2.0 / n
        return CouplingMatrix(n, e, "bipartite")
    if family == "qpartite":
        if q is None or q < 2:
            raise ParameterError("qpartite needs q >= 2")
        if n % q:
            raise ParameterError("qpartite needs q | n")
        labels = _class_labels(n, q)
        e = (labels[:, None] != labels[None, :]) * (q / (n * (q - 1.0)))
        return CouplingMatrix(n, e, "qpartite", {"q": q})
    if family == "cyclic_qpartite":
        if q is None or q < 3:
            raise ParameterError("cyclic_qpartite needs q >= 3")
        if n % q:
            raise ParameterError("cyclic_qpartite needs q | n")
        labels = _class_labels(n, q)
        diff = (labels[:, None] - labels[None, :]) % q
        e = np.isin(diff, (1, q - 1)) * (q / (2.0 * n))
        return CouplingMatrix(n, e, "cyclic_qpartite", {"q": q})
    if family == "random_regular":
        if d is None or not 1 <= d < n:
            raise ParameterError("random_regular needs 1 <= d < n")
        if (n * d) % 2:
            raise ParameterError("random_regular needs n*d even")
        if seed is None:
            raise ParameterError("random_regular needs an explicit seed")
        edges = _pair_regular_graph(n, d, seed)
        e = np.zeros((n, n))
        idx = np.array(sorted(edges))
        e[idx[:, 0], idx[:, 1]] = 1.0 / d
        e[idx[:, 1], idx[:, 0]] = 1.0 / d
        return CouplingMatrix(n, e, "random_regular", {"d": d, "seed": seed})
    raise ParameterError(f"cannot build family {family!r}")


def _pair_regular_graph(n: int, d: int, seed: int, restarts: int = 100) -> set:
    """Sample a d-regular simple graph by stub pairing with swap repair.

    A uniform stub matching is drawn, then conflicting pairs (self loops,
    duplicate edges) are repaired by random degree-preserving double swaps.
    The law is close to, but not exactly, uniform over simple d-regular
    graphs, which suffices here: only cut-metric limit behavior is used.
    """
    rng = as_generator(seed)
    for _ in range(restarts):
        stubs = np.repeat(np.arange(n), d)
        rng.shuffle(stubs)
        pairs = [tuple(sorted(p)) for p in stubs.reshape(-1, 2)]
        good: set = set()
        bad: list = []
        for p in pairs:
            if p[0] == p[1] or p in good:
                bad.append(p)
            else:
                good.add(p)
        edge_list = list(good)
        failed = False
        for u, v in bad:
            fixed = False
            for _ in range(200 * n):
                j = rng.integers(len(edge_list))
                a, b = edge_list[j]
                if rng.integers(2):
                    a, b = b, a
                e1 = tuple(sorted((u, a)))
                e2 = tuple(sorted((v, b)))
                if (
                    u != a
                    and v != b
                    and e1 != e2
                    and e1 not in good
                    and e2 not in good
                ):
                    good.remove((min(a, b), max(a, b)))
                    good.add(e1)
                    good.add(e2)
                    edge_list[j] = e1
                    edge_list.append(e2)
                    fixed = True
                    break
            if not fixed:
                failed = True
                break
        if not failed and len(good) == n * d // 2:
            return good
    raise ConstructionError(
        f"could not realize a simple {d}-regular graph on {n} vertices "
        f"within {restarts} restarts"
    )


def limiting_spectrum(
    family: str,
    *,
    q: int | None = None,
    eta: float | None = None,
) -> LimitingSpectrum:
    """Return the limiting eigenvalues, Frobenius limit and spectral defect.

    ``eta`` is the limiting edge density d/n for random_regular; the other
    families need no extra data. Eigenvalues are sorted by descending
    absolute value, positive first on ties, so entry 0 is always 1.
    """
    if family == "complete":
        return LimitingSpectrum((1.0,), 1.0, 0.0)
    if family == "bipartite":
        return LimitingSpectrum((1.0, -1.0), 2.0, 0.0)
    if family == "qpartite":
        if q is None or q < 2:
            raise ParameterError("qpartite needs q >= 2")
        eigs = (1.0,) + (-1.0 / (q - 1),) * (q - 1)
        return LimitingSpectrum(eigs, q / (q - 1.0), 0.0)
    if family == "cyclic_qpartite":
        if q is None or q < 3:
            raise ParameterError("cyclic_qpartite needs q >= 3")
        vals = np.cos(2.0 * np.pi * np.arange(q) / q)
        eigs = tuple(_sort_by_abs_desc(vals))
        return LimitingSpectrum(eigs, q / 2.0, 0.0)
    if family == "random_regular":
        if eta is None or not 0 < eta <= 1:
            raise ParameterError("random_regular needs eta = lim d/n in (0, 1]")
        return LimitingSpectrum((1.0,), 1.0 / eta, 1.0 / eta - 1.0)
    raise ParameterError(f"no cataloged limiting spectrum for {family!r}")


def family_limit(coupling: CouplingMatrix) -> LimitingSpectrum:
    """The cataloged limiting spectrum of a built coupling, from its family.

    q comes from the coupling's params and, for random_regular, eta = d/n.
    Never eigendecomposes; raises ParameterError for uncataloged families.
    """
    kwargs = {}
    if "q" in coupling.params:
        kwargs["q"] = coupling.params["q"]
    if coupling.family == "random_regular":
        kwargs["eta"] = coupling.params["d"] / coupling.n
    return limiting_spectrum(coupling.family, **kwargs)


def spectrum(coupling: CouplingMatrix) -> SpectralSummary:
    """Eigendecompose a coupling and attach its cataloged limit if known.

    The finite eigenvalue sum of squares always equals ``frobenius_sq``
    (both are computed, one from the entries and one from the spectrum, and
    the library keeps them independent so tests can compare the two).
    """
    eigs = _sort_by_abs_desc(np.linalg.eigvalsh(coupling.entries))
    frob = float(np.sum(coupling.entries * coupling.entries))
    limit = family_limit(coupling) if coupling.family in CATALOGED else None
    return SpectralSummary(
        n=coupling.n,
        family=coupling.family,
        finite_eigs=eigs,
        frobenius_sq=frob,
        limit_eigs=None if limit is None else limit.limit_eigs,
        gamma_sq=None if limit is None else limit.gamma_sq,
        kappa=None if limit is None else limit.kappa,
    )


def validate_assumptions(
    coupling: CouplingMatrix,
    *,
    row_tol: float | None = None,
    gap_tol: float = 0.0,
    entry_tol: float | None = None,
) -> ValidationReport:
    """Check regularity, the entrywise bound and the spectral gap.

    ``row_tol`` defaults to 2/n so the complete family's row sums of
    (n-1)/n pass without special casing. The gap is the signed difference
    between the leading eigenvalue and the largest remaining one, read from
    spectrum(coupling), which the report carries. The
    entrywise record is n * max entry; it fails only when ``entry_tol``
    is supplied and exceeded.
    """
    n = coupling.n
    if row_tol is None:
        row_tol = 2.0 / n
    row_dev = float(np.max(np.abs(coupling.row_sums() - 1.0)))
    entry_bound = float(n * coupling.entries.max())
    summary = spectrum(coupling)
    eigs = summary.finite_eigs
    gap = float(eigs[0] - np.max(eigs[1:])) if n > 1 else math.inf
    passes = {
        "regular": row_dev <= row_tol,
        "entry_bound": True if entry_tol is None else entry_bound <= entry_tol,
        "spectral_gap": gap > gap_tol,
    }
    return ValidationReport(
        n=n,
        row_dev_max=row_dev,
        entry_bound=entry_bound,
        spectral_gap=gap,
        row_tol=row_tol,
        gap_tol=gap_tol,
        passes=passes,
        spectrum=summary,
    )


def quadratic_form(coupling: CouplingMatrix, spins: np.ndarray) -> float:
    """Return x'Qx for a +-1 configuration x."""
    x = np.asarray(spins, dtype=np.float64)
    return float(x @ (coupling.entries @ x))


def centered_quadratic_forms(
    coupling: CouplingMatrix, spins: np.ndarray
) -> tuple[float, float]:
    """Return (x'Bx, x'B^2x) with B = Q - ones/n, without forming B.

    Both forms follow from u = Qx alone: Bx = u - xbar * ones identically
    for any symmetric Q, hence x'Bx = x'u - n*xbar^2 and x'B^2x equals
    the squared norm of u - xbar * ones.
    """
    x = np.asarray(spins, dtype=np.float64)
    n = coupling.n
    if x.shape != (n,):
        raise ParameterError("spin vector length does not match coupling size")
    u = coupling.entries @ x
    xbar = x.mean()
    xbx = float(x @ u - n * xbar * xbar)
    centered = u - xbar
    xb2x = float(centered @ centered)
    return xbx, xb2x


def save_matrix(coupling: CouplingMatrix, path) -> None:
    """Write the text format: first line n, then n rows of n entries."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{coupling.n}\n")
        for row in coupling.entries:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_matrix(path, family: str = "custom") -> CouplingMatrix:
    """Read the text format written by save_matrix."""
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ParameterError(f"matrix file {path} is empty")
    try:
        n = int(tokens[0])
    except ValueError as exc:
        raise ParameterError("first token of a matrix file must be n") from exc
    values = tokens[1:]
    if len(values) != n * n:
        raise ParameterError(
            f"matrix file holds {len(values)} entries, expected {n}*{n}"
        )
    entries = np.array(values, dtype=np.float64).reshape(n, n)
    return CouplingMatrix(n, entries, family)


def describe(coupling: CouplingMatrix) -> dict:
    """Small JSON-friendly description used by the CLI."""
    d = {"n": coupling.n, "family": coupling.family}
    d.update(coupling.params)
    return d
