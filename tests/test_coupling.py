"""Coupling construction, spectra, validation, and matrix IO."""
import hashlib
import pickle
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ising_infer import (
    CapacityError,
    ConstructionError,
    CouplingMatrix,
    ParameterError,
    build_coupling,
    centered_quadratic_forms,
    limiting_spectrum,
    load_matrix,
    quadratic_form,
    save_matrix,
    spectrum,
    validate_assumptions,
)


def test_complete_entries():
    cpl = build_coupling("complete", 6)
    assert cpl.entries.shape == (6, 6)
    assert np.all(np.diagonal(cpl.entries) == 0.0)
    off = cpl.entries[~np.eye(6, dtype=bool)]
    assert np.all(off == 1.0 / 6.0)
    # row sums (n-1)/n pass the default regularity tolerance of 2/n
    assert validate_assumptions(cpl).ok


def test_bipartite_structure():
    cpl = build_coupling("bipartite", 8)
    half = 4
    assert np.all(cpl.entries[:half, :half] == 0.0)
    assert np.all(cpl.entries[half:, half:] == 0.0)
    assert np.all(cpl.entries[:half, half:] == 2.0 / 8.0)
    assert np.allclose(cpl.row_sums(), 1.0)


def test_bipartite_odd_n_rejected():
    with pytest.raises(ParameterError):
        build_coupling("bipartite", 9)


def test_qpartite_contiguous_classes():
    cpl = build_coupling("qpartite", 12, q=3)
    labels = np.repeat(np.arange(3), 4)
    value = 3.0 / (12.0 * 2.0)
    for i in range(12):
        for j in range(12):
            expected = 0.0 if labels[i] == labels[j] else value
            assert cpl.entries[i, j] == expected
    assert np.allclose(cpl.row_sums(), 1.0)


def test_cyclic_adjacent_classes_only():
    q, n = 5, 20
    cpl = build_coupling("cyclic_qpartite", n, q=q)
    labels = np.repeat(np.arange(q), n // q)
    for i in range(n):
        for j in range(n):
            adjacent = (labels[i] - labels[j]) % q in (1, q - 1)
            expected = q / (2.0 * n) if adjacent else 0.0
            assert cpl.entries[i, j] == expected
    assert np.allclose(cpl.row_sums(), 1.0)


def test_class_divisibility_enforced():
    with pytest.raises(ParameterError):
        build_coupling("qpartite", 10, q=3)


def test_random_regular_is_regular_simple():
    d = 6
    cpl = build_coupling("random_regular", 16, d=d, seed=5)
    e = cpl.entries
    assert np.array_equal(e, e.T)
    assert np.all(np.diagonal(e) == 0.0)
    mask = e != 0.0
    assert np.all(mask.sum(axis=1) == d)
    assert np.all(e[mask] == 1.0 / d)


def test_random_regular_deterministic():
    a = build_coupling("random_regular", 20, d=5, seed=11)
    b = build_coupling("random_regular", 20, d=5, seed=11)
    c = build_coupling("random_regular", 20, d=5, seed=12)
    assert np.array_equal(a.entries, b.entries)
    assert not np.array_equal(a.entries, c.entries)


# SHA-256 of random_regular entries at (n, d, seed): the graph a seed names
# is part of every random_regular output, so a faster pairing must make the
# same draws and keep these digests
_REGULAR_DIGESTS = {
    (20, 10, 7): "f9a22e529c9999cf44731e735302ba5dcd98d98782fd2053e246861bf11e5da9",
    (100, 10, 1): "7850b300520e15683cda1b994c854e0ad7aaec258c7a944457f277e7c180b439",
    (16, 4, 11): "cb979e42bee46d161387457f20aaf72123da45e33f83d86647162d4fabfbd20e",
    (34, 17, 5): "b2528fd39fbe951eb60b313009c005f0f51b75162cf502ff1d202a36b79ecec8",
    (400, 40, 3): "88dea84f6e5cf44d00e2f42c2747fe4c69bd267f9ca2596232d4b7d7a20e203c",
    (1000, 100, 2): "cfe4fe960d12505b9b78fe47b136c0f06858f14dfb7f61eb63f892dc7453f92f",
}


@pytest.mark.parametrize("n, d, seed", sorted(_REGULAR_DIGESTS))
def test_random_regular_graph_of_a_seed_is_pinned(n, d, seed):
    entries = build_coupling("random_regular", n, d=d, seed=seed).entries
    assert hashlib.sha256(entries.tobytes()).hexdigest() == _REGULAR_DIGESTS[n, d, seed]


def test_random_regular_refuses_a_seed_that_is_not_a_nonnegative_integer():
    # the pairing's Generator would refuse a negative seed with numpy's own
    # ValueError; the builder names the family and the argument first
    for seed in (-3, -1, 1.5, 2.0, True, "7"):
        with pytest.raises(ParameterError, match="random_regular seed"):
            build_coupling("random_regular", 20, d=4, seed=seed)
    assert np.array_equal(
        build_coupling("random_regular", 20, d=4, seed=np.int64(3)).entries,
        build_coupling("random_regular", 20, d=4, seed=3).entries,
    )


def test_random_regular_odd_product_rejected():
    # n*d must be even for a pairing to exist
    with pytest.raises((ParameterError, ConstructionError)):
        build_coupling("random_regular", 15, d=5, seed=1)


def test_matrix_validation():
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ParameterError):
        CouplingMatrix(2, bad)
    with pytest.raises(ParameterError):
        CouplingMatrix(2, np.array([[1.0, 0.5], [0.5, 0.0]]))
    with pytest.raises(ParameterError):
        CouplingMatrix(2, np.array([[0.0, -0.5], [-0.5, 0.0]]))


def test_entries_read_only():
    cpl = build_coupling("complete", 4)
    with pytest.raises(ValueError):
        cpl.entries[0, 1] = 2.0


def test_pickle_round_trip_keeps_arrays_read_only():
    block = build_coupling("qpartite", 12, q=3)
    block.entries  # the lazy dense array travels with the pickle once built
    dense = build_coupling("random_regular", 20, d=4, seed=3)
    for cpl in (block, dense):
        copy = pickle.loads(pickle.dumps(cpl))
        assert (copy.n, copy.family, copy.params) == (cpl.n, cpl.family, cpl.params)
        for name in ("entries", "sizes", "weights"):
            original, restored = getattr(cpl, name), getattr(copy, name)
            if original is None:
                assert restored is None
                continue
            assert np.array_equal(restored, original), (cpl.family, name)
            assert not restored.flags.writeable, (cpl.family, name)


def test_bipartite_spectrum_exact():
    summary = spectrum(build_coupling("bipartite", 100))
    expected = np.zeros(100)
    expected[0], expected[1] = 1.0, -1.0
    assert np.max(np.abs(summary.finite_eigs - expected)) < 1e-10


def test_qpartite_second_eigenvalue():
    summary = spectrum(build_coupling("qpartite", 12, q=3))
    assert abs(summary.finite_eigs[0] - 1.0) < 1e-10
    assert abs(summary.finite_eigs[1] + 0.5) < 1e-10


def test_frobenius_matches_spectrum():
    # two independent computations: entrywise sum vs eigenvalue squares
    for family, kwargs in [
        ("complete", {}),
        ("bipartite", {}),
        ("qpartite", {"q": 4}),
        ("cyclic_qpartite", {"q": 4}),
    ]:
        summary = spectrum(build_coupling(family, 16, **kwargs))
        assert abs(np.sum(summary.finite_eigs**2) - summary.frobenius_sq) < 1e-8


def test_limiting_spectrum_catalog():
    assert limiting_spectrum("complete").limit_eigs == (1.0,)
    assert limiting_spectrum("complete").gamma_sq == 1.0
    bip = limiting_spectrum("bipartite")
    assert bip.limit_eigs == (1.0, -1.0)
    assert bip.gamma_sq == 2.0
    qp = limiting_spectrum("qpartite", q=4)
    assert qp.limit_eigs == (1.0, -1.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0)
    assert abs(qp.gamma_sq - 4.0 / 3.0) < 1e-15
    cyc = limiting_spectrum("cyclic_qpartite", q=4)
    assert cyc.gamma_sq == 2.0
    rr = limiting_spectrum("random_regular", eta=0.25)
    assert rr.limit_eigs == (1.0,)
    assert rr.gamma_sq == 4.0
    assert rr.kappa == 3.0
    assert limiting_spectrum("complete").kappa == 0.0


def test_limiting_spectrum_sorted_positive_first():
    eigs = np.array(limiting_spectrum("cyclic_qpartite", q=4).limit_eigs)
    assert eigs[0] == 1.0
    assert np.all(np.abs(eigs[:-1]) >= np.abs(eigs[1:]) - 1e-15)


def test_custom_has_no_limit():
    entries = np.zeros((4, 4))
    entries[0, 1] = entries[1, 0] = 0.5
    summary = spectrum(CouplingMatrix(4, entries))
    assert summary.limit_eigs is None
    assert summary.kappa is None


def test_validate_assumptions_flags_irregular():
    entries = np.zeros((4, 4))
    entries[0, 1] = entries[1, 0] = 1.0
    report = validate_assumptions(CouplingMatrix(4, entries))
    assert not report.passes["regular"]
    assert not report.ok


def test_validate_gap_positive_for_families():
    # bipartite at n = 600 and 2500: eigvalsh returns the -1 eigenvalue with
    # a larger modulus than the Perron root; the gap must still be positive
    for family, n, kwargs in [
        ("complete", 12, {}),
        ("qpartite", 12, {"q": 3}),
        ("cyclic_qpartite", 12, {"q": 3}),
        ("bipartite", 12, {}),
        ("bipartite", 600, {}),
        ("bipartite", 2500, {}),
    ]:
        cpl = build_coupling(family, n, **kwargs)
        # the same entries as a dense custom coupling take the eigvalsh path
        for coupling in (cpl, CouplingMatrix(n, cpl.entries)):
            report = validate_assumptions(coupling)
            assert report.spectral_gap > 0.0, (family, n, coupling.family)
            assert report.passes["spectral_gap"]
            assert report.spectrum.finite_eigs[0] == report.spectrum.finite_eigs.max()
            assert report.ok


def _reference_entries(family: str, n: int, q: int) -> np.ndarray:
    """The dense construction expressions, one per block family."""
    labels = np.repeat(np.arange(q), n // q)
    if family == "complete":
        e = np.full((n, n), 1.0 / n)
        np.fill_diagonal(e, 0.0)
    elif family == "bipartite":
        half = n // 2
        e = np.zeros((n, n))
        e[:half, half:] = 2.0 / n
        e[half:, :half] = 2.0 / n
    elif family == "qpartite":
        e = (labels[:, None] != labels[None, :]) * (q / (n * (q - 1.0)))
    else:
        diff = (labels[:, None] - labels[None, :]) % q
        e = np.isin(diff, (1, q - 1)) * (q / (2.0 * n))
    return e


@st.composite
def _block_families(draw):
    family = draw(st.sampled_from(["complete", "bipartite", "qpartite", "cyclic_qpartite"]))
    q = {"complete": 1, "bipartite": 2}.get(family) or draw(
        st.integers(2 if family == "qpartite" else 3, 8)
    )
    n = q * draw(st.integers(2 if q == 1 else 1, 60 // q))
    return family, n, q


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_block_families())
def test_block_closed_forms_match_dense(case):
    family, n, q = case
    kwargs = {"q": q} if family in ("qpartite", "cyclic_qpartite") else {}
    cpl = build_coupling(family, n, **kwargs)
    report = validate_assumptions(cpl)
    e = cpl.entries
    assert np.array_equal(e, _reference_entries(family, n, q))
    assert not e.flags.writeable
    dense = validate_assumptions(CouplingMatrix(n, e))
    eigs = report.spectrum.finite_eigs
    assert eigs.shape == (n,)
    assert np.max(np.abs(np.sort(eigs) - np.linalg.eigvalsh(e))) < 1e-12
    assert abs(report.spectrum.frobenius_sq - np.sum(e * e)) < 1e-12
    assert np.max(np.abs(cpl.row_sums() - e.sum(axis=1))) < 1e-12
    assert report.entry_bound == n * e.max()
    assert abs(report.spectral_gap - dense.spectral_gap) < 1e-12
    assert abs(report.row_dev_max - dense.row_dev_max) < 1e-12


def test_dense_cap_refused_before_allocation():
    tracemalloc.start()
    try:
        start = time.perf_counter()
        cpl = build_coupling("complete", 10**5)
        report = validate_assumptions(cpl)
        assert time.perf_counter() - start < 1.0
        assert report.ok
        with pytest.raises(CapacityError):
            cpl.entries
        start = time.perf_counter()
        with pytest.raises(CapacityError):
            build_coupling("random_regular", 10**5, d=10, seed=0)
        assert time.perf_counter() - start < 1.0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a handful of length-n arrays; the dense matrix would be 80 GB
    assert peak < 20e6


def test_quadratic_forms_match_dense_centering():
    rng = np.random.default_rng(3)
    n = 10
    raw = rng.random((n, n))
    raw = (raw + raw.T) / 2.0
    np.fill_diagonal(raw, 0.0)
    cpl = CouplingMatrix(n, raw)
    x = rng.choice([-1, 1], size=n).astype(np.float64)
    dense_b = raw - np.ones((n, n)) / n
    xbx, xb2x = centered_quadratic_forms(cpl, x)
    assert abs(xbx - x @ dense_b @ x) < 1e-10
    assert abs(xb2x - x @ dense_b @ dense_b @ x) < 1e-10
    assert abs(quadratic_form(cpl, x) - x @ raw @ x) < 1e-10


def test_save_load_round_trip(tmp_path):
    cpl = build_coupling("qpartite", 12, q=3)
    path = tmp_path / "q.txt"
    save_matrix(cpl, path)
    back = load_matrix(path)
    assert back.family == "custom"
    assert np.array_equal(back.entries, cpl.entries)


def test_load_rejects_bad_token_count(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n0 1 0\n1 0\n")
    with pytest.raises(ParameterError):
        load_matrix(path)
