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

The first four are block couplings, stored as class sizes and a q x q
weight matrix: their spectrum, Frobenius norm, row sums and entry bound
come in closed form, and the dense n x n matrix is built only when a
dense consumer (Glauber, enumeration, quadratic forms, save_matrix) reads
``entries``. random_regular and custom are dense from the start. No dense
matrix above DENSE_MAX_N is ever built.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConstructionError, ParameterError, as_integer
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


#: Largest n for which a dense (n, n) float64 coupling is built: 3.2 GB.
DENSE_MAX_N = 20_000


@dataclass(frozen=True, eq=False, init=False)
class CouplingMatrix:
    """An immutable coupling matrix together with its family tag.

    A coupling is stored either densely or as a block coupling: contiguous
    classes of sizes m (length q) and a symmetric (q, q) weight matrix W,
    with Q(i, j) = W[c(i), c(j)] for i != j and a zero diagonal. Spectrum,
    Frobenius norm, row sums and the entry bound of a block coupling come
    from (m, W) alone; the dense array is built only when ``entries`` is
    read.

    Attributes
    ----------
    n : int
        Number of vertices (spins).
    entries : np.ndarray
        Dense (n, n) float64 array, symmetric, zero diagonal, read-only.
        For a block coupling it is built on first access and cached; above
        DENSE_MAX_N that raises CapacityError.
    family : str
        One of FAMILIES.
    params : dict
        Family parameters (``q`` for the partite families, ``d`` and
        ``seed`` for random regular graphs). Empty for complete/bipartite.
    sizes : np.ndarray or None
        Class sizes m of a block coupling (positive, summing to n); None
        for a dense coupling.
    weights : np.ndarray or None
        The (q, q) weight matrix W of a block coupling; None when dense.
    """

    n: int
    family: str
    params: dict
    sizes: np.ndarray | None
    weights: np.ndarray | None

    def __init__(
        self,
        n: int,
        entries: np.ndarray | None = None,
        family: str = "custom",
        params: dict | None = None,
        *,
        sizes=None,
        weights=None,
    ) -> None:
        if family not in FAMILIES:
            raise ParameterError(f"unknown family {family!r}")
        if (entries is None) == (sizes is None and weights is None):
            raise ParameterError("give either entries or both sizes and weights")
        if entries is None:
            sizes, weights = _check_blocks(n, sizes, weights)
        else:
            entries = _check_entries(n, entries)
        for name, value in (
            ("n", n),
            ("family", family),
            ("params", {} if params is None else params),
            ("sizes", sizes),
            ("weights", weights),
            ("_entries", entries),
        ):
            object.__setattr__(self, name, value)

    def __setstate__(self, state: dict) -> None:
        # numpy unpickles arrays writeable; the stored arrays stay read-only
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        self.__dict__.update(state)

    @property
    def entries(self) -> np.ndarray:
        if self._entries is None:
            if self.n > DENSE_MAX_N:
                raise CapacityError(
                    f"dense coupling matrices are capped at n={DENSE_MAX_N}, "
                    f"got {self.n}"
                )
            e = np.repeat(np.repeat(self.weights, self.sizes, 0), self.sizes, 1)
            np.fill_diagonal(e, 0.0)
            e.flags.writeable = False
            object.__setattr__(self, "_entries", e)
        return self._entries

    def row_sums(self) -> np.ndarray:
        if self.sizes is None:
            return self.entries.sum(axis=1)
        w = self.weights
        return np.repeat(w @ self.sizes - np.diagonal(w), self.sizes)

    def max_entry(self) -> float:
        """The largest entry of Q (0 on the diagonal included)."""
        if self.sizes is None:
            return float(self.entries.max())
        # W[a, a] occurs off the diagonal of Q only when class a has two members
        absent = np.diag(self.sizes < 2)
        return float(np.where(absent, 0.0, self.weights).max())

    def local_fields(self, spins: np.ndarray) -> np.ndarray:
        """Return t = Qx, with t_i = sum_j Q(i, j) * spins[j].

        The one place the package forms Qx; callers check the spins.
        """
        return self.entries @ np.asarray(spins, dtype=np.float64)


def as_spins(values, n: int | None = None) -> np.ndarray:
    """A writable int8 copy of a 1-D +-1 vector, of length n when n is given."""
    s = np.asarray(values)
    if s.ndim != 1 or n not in (None, s.shape[0]):
        length = "" if n is None else f" of length {n}"
        raise ParameterError(f"spins must be a 1-D vector{length}, got shape {s.shape}")
    if not np.all((s == 1) | (s == -1)):
        raise ParameterError("spins must be +-1")
    return s.astype(np.int8)


def _check_entries(n: int, entries) -> np.ndarray:
    e = np.asarray(entries, dtype=np.float64)
    if e.shape != (n, n):
        raise ParameterError(f"entries shape {e.shape} does not match n={n}")
    if not np.array_equal(e, e.T):
        raise ParameterError("coupling matrix must be symmetric")
    if np.any(np.diagonal(e) != 0.0):
        raise ParameterError("coupling matrix must have zero diagonal")
    if np.any(e < 0.0) or not np.all(np.isfinite(e)):
        raise ParameterError("coupling entries must be finite and nonnegative")
    e.flags.writeable = False
    return e


def _check_blocks(n: int, sizes, weights) -> tuple[np.ndarray, np.ndarray]:
    m = np.array(sizes, dtype=np.int64)
    w = np.array(weights, dtype=np.float64)
    if m.ndim != 1 or m.size == 0 or np.any(m < 1) or int(m.sum()) != n:
        raise ParameterError(f"class sizes must be positive and sum to n={n}")
    if w.shape != (m.size, m.size):
        raise ParameterError(
            f"weights shape {w.shape} does not match {m.size} classes"
        )
    if not np.array_equal(w, w.T):
        raise ParameterError("coupling weights must be symmetric")
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise ParameterError("coupling weights must be finite and nonnegative")
    m.flags.writeable = False
    w.flags.writeable = False
    return m, w


@dataclass(frozen=True)
class LimitingSpectrum:
    """Limiting graphon eigenvalues and spectral defect of a family."""

    limit_eigs: tuple
    gamma_sq: float
    kappa: float


@dataclass(frozen=True)
class SpectralSummary:
    """Finite spectrum of a coupling plus its cataloged limit, if any.

    ``finite_eigs`` leads with the largest eigenvalue (the Perron root of
    the nonnegative matrix); the rest follow by descending absolute value,
    ties broken toward the positive eigenvalue.
    ``limit_eigs``/``gamma_sq``/``kappa`` are None for custom couplings.
    """

    n: int
    family: str
    finite_eigs: np.ndarray
    frobenius_sq: float
    limit_eigs: tuple | None
    gamma_sq: float | None
    kappa: float | None


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_assumptions.

    ``passes`` has one boolean per checked assumption; ``ok`` is their
    conjunction. ``spectrum`` is the summary the gap was read from. All
    recorded quantities are deterministic functions of the matrix.
    """

    n: int
    row_dev_max: float
    entry_bound: float
    spectral_gap: float
    passes: dict
    spectrum: SpectralSummary

    @property
    def ok(self) -> bool:
        return all(self.passes.values())


def _sort_by_abs_desc(values: np.ndarray) -> np.ndarray:
    order = np.lexsort((-values, -np.abs(values)))
    return values[order]


def _perron_first(values: np.ndarray) -> np.ndarray:
    # the largest value first, even when float noise makes a negative
    # eigenvalue of equal modulus look larger in absolute value
    top = int(np.argmax(values))
    rest = _sort_by_abs_desc(np.delete(values, top))
    return np.concatenate((values[top : top + 1], rest))


def _block(n: int, family: str, weights: np.ndarray, params: dict) -> CouplingMatrix:
    # equal contiguous classes, one per row of the weight matrix
    q = weights.shape[0]
    return CouplingMatrix(
        n, family=family, params=params, sizes=np.full(q, n // q), weights=weights
    )


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
        Seed for the random_regular pairing; required for that family, and
        a nonnegative integer (anything else raises ParameterError).
    """
    if n < 2:
        raise ParameterError("n must be at least 2")
    if family == "complete":
        return _block(n, "complete", np.full((1, 1), 1.0 / n), {})
    if family == "bipartite":
        if n % 2:
            raise ParameterError("bipartite coupling needs even n")
        return _block(n, "bipartite", np.array([[0.0, 2.0 / n], [2.0 / n, 0.0]]), {})
    if family == "qpartite":
        if q is None or q < 2:
            raise ParameterError("qpartite needs q >= 2")
        if n % q:
            raise ParameterError("qpartite needs q | n")
        k = np.arange(q)
        w = (k[:, None] != k[None, :]) * (q / (n * (q - 1.0)))
        return _block(n, "qpartite", w, {"q": q})
    if family == "cyclic_qpartite":
        if q is None or q < 3:
            raise ParameterError("cyclic_qpartite needs q >= 3")
        if n % q:
            raise ParameterError("cyclic_qpartite needs q | n")
        k = np.arange(q)
        diff = (k[:, None] - k[None, :]) % q
        w = np.isin(diff, (1, q - 1)) * (q / (2.0 * n))
        return _block(n, "cyclic_qpartite", w, {"q": q})
    if family == "random_regular":
        if d is None or not 1 <= d < n:
            raise ParameterError("random_regular needs 1 <= d < n")
        if (n * d) % 2:
            raise ParameterError("random_regular needs n*d even")
        if seed is None:
            raise ParameterError("random_regular needs an explicit seed")
        if as_integer(seed, "random_regular seed") < 0:
            raise ParameterError(
                f"random_regular seed must be nonnegative, got {seed}"
            )
        if n > DENSE_MAX_N:
            raise CapacityError(
                f"random_regular is dense and capped at n={DENSE_MAX_N}, got {n}"
            )
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
        pairs = list(map(tuple, np.sort(stubs.reshape(-1, 2), axis=1).tolist()))
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
        # cos(2 pi k/q) = cos(2 pi (q - k)/q): evaluate k <= q/2 once and
        # mirror it, so each pair is exactly equal and shares one chi-square
        # draw in the limit laws
        half = np.cos(2.0 * np.pi * np.arange(q // 2 + 1) / q)
        vals = np.concatenate([half, half[1 : (q + 1) // 2][::-1]])
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
    eta = None
    if coupling.family == "random_regular":
        eta = coupling.params["d"] / coupling.n
    return limiting_spectrum(coupling.family, q=coupling.params.get("q"), eta=eta)


def spectrum(coupling: CouplingMatrix) -> SpectralSummary:
    """Eigendecompose a coupling and attach its cataloged limit if known.

    The finite eigenvalue sum of squares always equals ``frobenius_sq``
    (both are computed, one from the entries or block weights and one from
    the spectrum, and the library keeps them independent so tests can
    compare the two).

    A block coupling (sizes m, weights W) is never densified. Its spectrum
    is the q eigenvalues of diag(sqrt m) W diag(sqrt m) - diag(W_aa), which
    act on class-constant vectors, plus -W_aa with multiplicity m_a - 1 on
    the vectors summing to zero within class a; its squared Frobenius norm
    is m'(W o W)m - sum_a m_a W_aa^2. Dense couplings use eigvalsh.
    """
    if coupling.sizes is None:
        e = coupling.entries
        eigs = np.linalg.eigvalsh(e)
        frob = float(np.sum(e * e))
    else:
        m, w = coupling.sizes, coupling.weights
        root = np.sqrt(m)
        diag = np.diagonal(w)
        top = np.linalg.eigvalsh(root[:, None] * w * root[None, :] - np.diag(diag))
        # 0.0 - x rather than -x, so a zero weight gives +0.0, not -0.0
        eigs = np.concatenate((top, np.repeat(0.0 - diag, m - 1)))
        frob = float(m @ (w * w) @ m - m @ (diag * diag))
    eigs = _perron_first(eigs)
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


def regularity(coupling: CouplingMatrix) -> tuple[float, bool]:
    """The largest |row sum - 1| of ``coupling``, and whether it is regular.

    Regular means every row sum lies within 2/n of 1, so the complete
    family's row sums of (n-1)/n pass without special casing. A block
    coupling is read from its sizes and weights without building the dense
    matrix.
    """
    row_dev = float(np.max(np.abs(coupling.row_sums() - 1.0)))
    return row_dev, row_dev <= 2.0 / coupling.n


def validate_assumptions(coupling: CouplingMatrix) -> ValidationReport:
    """Check regularity and the spectral gap, and record the entrywise bound.

    Regularity is the rule of ``regularity``. The gap, the difference
    between the largest eigenvalue and the largest remaining one, must be
    positive; it is read from spectrum(coupling), which the report carries.
    The entrywise bound n * max entry is recorded, not checked. A block
    coupling is checked from its sizes and weights without building the
    dense matrix.
    """
    n = coupling.n
    row_dev, regular = regularity(coupling)
    entry_bound = n * coupling.max_entry()
    summary = spectrum(coupling)
    eigs = summary.finite_eigs
    gap = float(eigs[0] - np.max(eigs[1:])) if n > 1 else math.inf
    passes = {"regular": regular, "spectral_gap": gap > 0.0}
    return ValidationReport(
        n=n,
        row_dev_max=row_dev,
        entry_bound=entry_bound,
        spectral_gap=gap,
        passes=passes,
        spectrum=summary,
    )


def quadratic_form(coupling: CouplingMatrix, spins: np.ndarray) -> float:
    """Return x'Qx for a +-1 configuration x."""
    x = as_spins(spins, coupling.n).astype(np.float64)
    return float(x @ coupling.local_fields(x))


def centered_quadratic_forms(
    coupling: CouplingMatrix, spins: np.ndarray
) -> tuple[float, float]:
    """Return (x'Bx, x'B^2x) with B = Q - ones/n, without forming B.

    Both forms follow from u = Qx alone: Bx = u - xbar * ones identically
    for any symmetric Q, hence x'Bx = x'u - n*xbar^2 and x'B^2x equals
    the squared norm of u - xbar * ones.
    """
    n = coupling.n
    x = as_spins(spins, n).astype(np.float64)
    u = coupling.local_fields(x)
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
    try:
        entries = np.array(values, dtype=np.float64).reshape(n, n)
    except ValueError as exc:
        raise ParameterError(f"matrix file {path}: {exc}") from exc
    return CouplingMatrix(n, entries, family)
