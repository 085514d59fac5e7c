"""Smoke tests of the scripts under tools/."""
import importlib.util
from pathlib import Path

import numpy as np

from ising_infer import build_coupling, derive_seed
from oracles import doubling_suff_stats

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_burn_in_probe_enum_reference_reads_every_code():
    probe = _load("burn_in_probe")
    n, theta, master, draws = 12, 1.0, 11, 25
    coupling = build_coupling("random_regular", n, d=4, seed=7)
    ref = probe._reference("enum", coupling, theta, master, draws)
    # the same law from the full 2^n doubling, code by code
    values = doubling_suff_stats(coupling)
    logw = 0.5 * theta * values
    pmf = np.exp(logw - logw.max())
    pmf /= pmf.sum()
    plus = np.array([bin(code).count("1") for code in range(1 << n)])
    cells, inverse = np.unique(np.round(values, 6), return_inverse=True)
    assert np.array_equal(ref["cells"], cells)
    assert np.array_equal(ref["pmf"], np.bincount(inverse, weights=pmf))
    fold_pmf = np.bincount(np.abs(2 * plus - n), weights=pmf, minlength=n + 1)
    assert np.array_equal(ref["fold_pmf"], fold_pmf)
    u = np.random.default_rng(derive_seed(master, 0)).random(draws)
    picked = np.minimum(np.searchsorted(np.cumsum(pmf), u, side="right"), pmf.size - 1)
    assert np.array_equal(ref["suff"], np.round(values[picked], 6))
    assert np.array_equal(ref["fold"], np.abs(2 * plus[picked] - n))


def test_code_lines_leaves_out_docstrings_comments_and_blank_lines(tmp_path):
    code_lines = _load("code_lines")
    source = '''"""Module docstring,
over two lines."""
import math  # a comment


# a comment line
def f(x):
    """Docstring."""
    text = ("a string in an expression "
            "counts")
    return math.sqrt(x) + len(text)


class C:
    "one-line docstring"
    value = 1
'''
    # import, def, the two lines of text, return, class, value
    assert code_lines.count_source(source) == 7
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(source)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n\ny = [\n    2,\n]\n")
    assert code_lines.count_path(tmp_path / "pkg") == 7 + 4
