"""The package's public namespace and its module boundaries."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ising_infer


def test_every_export_resolves():
    missing = [name for name in ising_infer.__all__ if not hasattr(ising_infer, name)]
    assert not missing
    assert len(set(ising_infer.__all__)) == len(ising_infer.__all__)


def test_star_import_gives_every_export():
    namespace = {}
    exec("from ising_infer import *", namespace)
    assert set(ising_infer.__all__) <= set(namespace)


def test_no_module_imports_a_private_name_from_a_sibling():
    # a single-underscore name is private to its module; a sibling that
    # needs it should get a public entry point instead (dunders are exempt)
    offenders = []
    for path in sorted(Path(ising_infer.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("ising_infer"):
                continue
            offenders += [
                f"{path.name}:{node.lineno} {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
                and not (alias.name.startswith("__") and alias.name.endswith("__"))
            ]
    assert not offenders, offenders


def test_only_local_fields_forms_qx():
    # Qx has one home, CouplingMatrix.local_fields, so a structured matvec
    # (O(n) on block couplings, say) is a change to one function
    home, offenders = [], []
    for path in sorted(Path(ising_infer.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name == "CouplingMatrix":
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef) and fn.name == "local_fields":
                        allowed |= {id(node) for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.MatMult)
                and isinstance(node.left, ast.Attribute)
                and node.left.attr == "entries"
            ):
                (home if id(node) in allowed else offenders).append(
                    f"{path.name}:{node.lineno}"
                )
    assert len(home) == 1, home
    assert not offenders, offenders


def _family_tests(path: Path, value=None) -> list:
    """Names of the functions holding a comparison of ``.family``, with
    ``value`` when one is given."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left, *node.comparators]
            family = any(
                isinstance(side, ast.Attribute) and side.attr == "family"
                for side in sides
            )
            named = value is None or any(
                isinstance(leaf, ast.Constant) and leaf.value == value
                for side in sides
                for leaf in ast.walk(side)
            )
            if family and named:
                found.append(fn.name)
    return found


def test_count_law_decides_the_exact_path():
    # the exact count path is chosen by count_law(coupling), not by the
    # family name: the sampler, the estimators and the tests name no family,
    # and only the mean-field normalizer check names the complete one
    package = Path(ising_infer.__file__).parent
    for module in ("sampler.py", "inference.py", "htests.py"):
        assert _family_tests(package / module) == [], module
    assert _family_tests(package / "harness.py", "complete") == ["_run_normalizer_check"]


def _decorator_name(node) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def test_no_cached_function_takes_a_seed():
    # a cache keyed on a seed shares draws only by call order; a set of
    # draws is a value its caller holds (htests.DrawSet)
    offenders = []
    for path in sorted(Path(ising_infer.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cached = {_decorator_name(d) for d in fn.decorator_list}
            args = fn.args
            names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            if cached & {"lru_cache", "cache"} and names & {"seed", "master_seed"}:
                offenders.append(f"{path.name}:{fn.lineno} {fn.name}")
    assert not offenders, offenders


_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _sha256_route(node) -> list:
    """Modules a try/except ImportError chain imports sha256 from, in order."""
    if isinstance(node, ast.Try):
        (handler,) = node.handlers
        assert getattr(handler.type, "id", "") == "ImportError"
        return _sha256_route(*node.body) + _sha256_route(*handler.body)
    if isinstance(node, ast.ImportFrom) and [a.name for a in node.names] == ["sha256"]:
        return [node.module]
    return [None]


def test_seed_hashing_has_one_home():
    # every SHA-256 reads one binding in streams, the interpreter's built-in
    # hash with hashlib only as its last fallback, so no run loads OpenSSL
    # for a digest; derive_seed and its batch form derive_seeds hash seeds,
    # harness.config_hash digests configs. A comprehension over derive_seed
    # would be a second, slower batch path
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(ising_infer.__file__).parent.glob("*.py"))
    }
    (binding,) = [
        node for node in trees["streams"].body
        if isinstance(node, ast.Try) and "sha256" in ast.dump(node)
    ]
    assert _sha256_route(binding) == ["_sha2", "_sha256", "hashlib"]
    binding = {id(node) for node in ast.walk(binding)}
    readers, offenders = set(), []
    for module, tree in trees.items():
        home = {}
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef):
                home.update((id(node), fn.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            where = f"{module}.py:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Import):
                offenders += [
                    f"{where} import hashlib"
                    for alias in node.names if alias.name == "hashlib"
                ]
            elif isinstance(node, ast.ImportFrom) and node.module == "hashlib":
                if id(node) not in binding:
                    offenders.append(f"{where} from hashlib import")
            elif (
                isinstance(node, ast.Name) and node.id == "sha256"
                or isinstance(node, ast.Attribute) and node.attr == "sha256"
            ):
                readers.add(f"{module}.{home.get(id(node), '<module>')}")
            elif isinstance(node, _COMPREHENSIONS):
                offenders += [
                    f"{where} derive_seed in a comprehension"
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                    and _decorator_name(call) == "derive_seed"
                ]
    assert readers == {
        "streams.derive_seed", "streams.derive_seeds", "harness.config_hash"
    }, readers
    assert not offenders, offenders


def test_only_htests_draws_replications():
    # a DrawSet maps every replication's chain or atom, so a replication
    # block or a batched sampler changes one mapping site, not two
    homes = {
        "parallel_map": "workers.py",
        "glauber_sample": "sampler.py",
        "draw_counts": "sampler.py",
        "seed_uniforms": "streams.py",
    }
    callers = set()
    for path in sorted(Path(ising_infer.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = _decorator_name(node) if isinstance(node, ast.Call) else None
            if name in homes and path.name != homes[name]:
                callers.add((path.name, name))
    assert callers == {("htests.py", name) for name in homes}, callers


def test_limit_cutoffs_have_one_home():
    # calibration, limit power and the Monte Carlo oracle read each level-alpha
    # limit cutoff from one htests function, so they cannot drift apart
    path = Path(ising_infer.__file__).parent / "htests.py"
    callers = set()
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and getattr(node.func, "id", "") in {
                "ndtri",
                "mple_limit_quantile",
            }:
                callers.add(fn.name)
    assert len(callers) == 1, callers


def _chain_imports(path: Path) -> list:
    # imports of the streams module, and names of a Glauber chain or its
    # burn-in, whether imported or read as an attribute
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if (node.module or "").rpartition(".")[2] == "streams":
                names.append("streams")
        elif isinstance(node, ast.Import):
            names = [alias.name.rpartition(".")[2] for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [
            f"{path.name}:{node.lineno} {name}"
            for name in names
            if name == "streams" or "glauber" in name or "burn_in" in name
        ]
    return found


def test_no_estimator_draws_a_chain():
    # every estimate solves an exact or plug-in table; an estimator that
    # imports a Glauber chain or a seed stream would draw again
    assert _chain_imports(Path(ising_infer.__file__).parent / "inference.py") == []


def test_both_likelihood_equations_share_one_root_finder():
    # every root the package solves goes through special.solve_rows, the
    # one bracket-and-Newton loop: both likelihood equations, the
    # spontaneous magnetization and the critical MPLE limit quantiles. No
    # module defines, imports or names a Brent solver.
    callers = []
    for path in sorted(Path(ising_infer.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {alias.name.rpartition(".")[2] for alias in node.names}
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
        assert "brentq" not in names, path.name
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and any(
                isinstance(node, ast.Call)
                and "solve_rows"
                in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
                for node in ast.walk(fn)
            ):
                callers.append(fn.name)
    assert sorted(callers) == sorted(
        ["_pl_rows", "_table_mle", "spontaneous_magnetization", "_limit_quantile"]
    )


def _imported_modules(path: Path) -> set:
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module or "")
    return modules


def test_no_module_imports_scipy():
    # the package's numerics are numpy and math (ising_infer.special);
    # scipy is the tests' oracle only, and importing it costs every
    # process about half a second
    offenders = []
    for path in sorted(Path(ising_infer.__file__).parent.glob("*.py")):
        offenders += [
            f"{path.name}: {name}"
            for name in _imported_modules(path)
            if name == "scipy" or name.startswith("scipy.")
        ]
    assert not offenders, offenders


_RUN_WITHOUT_SCIPY = """
import sys
import ising_infer
from ising_infer import cli, harness

configs = [
    dict(experiment="power_curve", family="complete", n=(60,), theta0=1.0,
         h=(0.0, 1.0), reps=50),
    dict(experiment="estimator_law", family="random_regular", d=4, n=(12,),
         theta0=1.5, reps=2),
    dict(experiment="spectrum_report", family="qpartite", q=3, n=(12,)),
    dict(experiment="limit_law_density", family="bipartite", n=(100,)),
    dict(experiment="normalizer_check", family="complete", n=(100, 1000)),
]
for params in configs:
    config = harness.ExperimentConfig(master_seed=7, **params)
    harness.render_csv(harness.run_experiment(config))
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def _fresh(code: str, timeout: float = 120) -> str:
    """The last stdout line of ``code`` run in a fresh interpreter."""
    src = str(Path(ising_infer.__file__).parent.parent)
    env = dict(os.environ, ISING_INFER_WORKERS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def test_experiments_run_without_loading_scipy():
    # one small run of each experiment path in a fresh interpreter
    assert _fresh(_RUN_WITHOUT_SCIPY, timeout=600) == "[]"


_LOADED = (
    "sorted(m.split('.')[1] for m in sys.modules if m.startswith('ising_infer.'))"
)


def test_importing_the_harness_loads_no_module_it_does_not_run():
    # the worker pool, the existence-disagreement log and the sample dumps
    # import their modules when they run, not when the package loads; the
    # harness itself imports the modules a pipeline runs when its config
    # is made
    code = (
        "import sys, ising_infer.harness\n"
        "lazy = ('concurrent.futures', 'csv', 'logging')\n"
        f"print((sorted(m for m in lazy if m in sys.modules), {_LOADED}))"
    )
    assert _fresh(code) == str(([], ["coupling", "errors", "harness", "streams"]))


_EVERY_LAYER = [
    "coupling", "errors", "harness", "htests", "inference", "sampler", "special",
    "streams", "theory", "workers",
]
_CONFIG_MODULES = {
    "spectrum_report": ["coupling", "errors", "harness", "streams"],
    "limit_law_density": ["coupling", "errors", "harness", "special", "streams", "theory"],
    "normalizer_check": [
        "coupling", "errors", "harness", "sampler", "special", "streams", "theory"
    ],
    "estimator_law": _EVERY_LAYER,
    "power_curve": _EVERY_LAYER,
}
# one small run of each experiment, so a test can check it loads nothing more
_SMALL_RUN = {
    "spectrum_report": "family='qpartite', q=3, n=(12,)",
    "limit_law_density": "family='bipartite', n=(100,)",
    "normalizer_check": "n=(100, 1000)",
    "estimator_law": "family='random_regular', d=4, n=(12,), theta0=1.5, reps=2",
    "power_curve": "n=(60,), h=(0.0, 1.0), reps=50",
}


@pytest.mark.parametrize("experiment", sorted(_CONFIG_MODULES))
def test_a_config_loads_the_modules_its_experiment_runs(experiment):
    # making the config imports every module its pipeline runs, so the run
    # that follows imports no module of the package (none in a timed run)
    code = (
        "import sys\n"
        "from ising_infer import harness\n"
        f"config = harness.ExperimentConfig(experiment={experiment!r},"
        f" master_seed=7, {_SMALL_RUN[experiment]})\n"
        f"made = {_LOADED}\n"
        "harness.render_csv(harness.run_experiment(config))\n"
        f"print((made, {_LOADED}))"
    )
    modules = _CONFIG_MODULES[experiment]
    assert _fresh(code) == str((modules, modules))


_OPENSSL_ROUTE = """
import sys
before = set(sys.modules)
from ising_infer import harness
config = harness.ExperimentConfig(master_seed=7, {params})
harness.render_csv(harness.run_experiment(config))
added = set(sys.modules) - before
print(sorted(m for m in ("_hashlib", "hashlib", "numpy.random") if m in added))
"""
# runs that build no numpy Generator, and so never load OpenSSL
_NO_GENERATOR = {
    "complete power_curve": "experiment='power_curve', n=(60,), h=(0.0, 1.0), reps=50",
    "complete estimator_law": "experiment='estimator_law', n=(60,), theta0=1.5, reps=20",
    "spectrum_report": "experiment='spectrum_report', family='qpartite', q=3, n=(12,)",
    "limit_law_density": "experiment='limit_law_density', family='bipartite', n=(100,)",
    "normalizer_check": "experiment='normalizer_check', n=(100, 1000)",
}


@pytest.mark.parametrize("run", sorted(_NO_GENERATOR))
def test_a_run_without_a_generator_loads_no_openssl(run):
    # seeds and config digests use the interpreter's built-in SHA-256, so
    # neither hashlib nor its libcrypto binding loads; the modules present
    # before the package (a site that imports hashlib, say) do not count
    assert _fresh(_OPENSSL_ROUTE.format(params=_NO_GENERATOR[run])) == "[]"


def test_only_a_generator_loads_numpy_random():
    # numpy.random (through secrets and hmac, OpenSSL) is the one route to
    # libcrypto: a random_regular graph and its Glauber chains take it
    params = "experiment='estimator_law', " + _SMALL_RUN["estimator_law"]
    assert "numpy.random" in _fresh(_OPENSSL_ROUTE.format(params=params))


_HASHLIB_FALLBACK = """
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import hashlib
from ising_infer import harness, streams

def head(master, index):
    return int.from_bytes(hashlib.sha256(b"%d:%d" % (master, index)).digest()[:8], "big")

wrong = []
for master in (-2**63, -1, 0, 2**64 - 1):
    for reps in (0, 1, 4097):
        if streams.derive_seed(master, reps) != head(master, reps):
            wrong.append(("derive_seed", master, reps))
        if streams.derive_seeds(master, reps).tolist() != [
            head(master, r) for r in range(reps)
        ]:
            wrong.append(("derive_seeds", master, reps))
config = harness.ExperimentConfig(experiment="power_curve", master_seed=7)
print((streams.sha256 is hashlib.sha256, harness.config_hash(config), wrong))
"""


def test_the_hashlib_fallback_gives_the_same_digests():
    # an interpreter built without the built-in hashes reads hashlib's
    # sha256 through the same binding; the config digest is the one
    # hashlib gave before the built-in hash was used
    assert _fresh(_HASHLIB_FALLBACK) == str((True, "64fdd2480901", []))


def test_importing_the_package_loads_only_its_errors():
    code = (
        "import sys, ising_infer\n"
        "print(('numpy' in sys.modules,"
        " sorted(m for m in sys.modules if m.startswith('ising_infer'))))"
    )
    assert _fresh(code) == str((False, ["ising_infer", "ising_infer.errors"]))


_RESOLVE = """
import importlib, sys
import ising_infer

wrong = []
for name in ising_infer.__all__:
    value = getattr(ising_infer, name)
    home = "errors" if name in dir(sys.modules["ising_infer.errors"]) else None
    home = home or ising_infer._HOMES.get(name)
    module = importlib.import_module(f"ising_infer.{home}") if home else ising_infer
    defined = getattr(value, "__module__", module.__name__)
    if getattr(module, name) is not value or defined != module.__name__:
        wrong.append(name)
missing = sorted(set(ising_infer.__all__) - set(dir(ising_infer)))
try:
    ising_infer.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
print((wrong, missing, unknown))
"""


def test_every_lazy_export_is_its_home_modules_object():
    # in a fresh interpreter each name goes through the module __getattr__;
    # it must hand out the object its defining module holds
    assert _fresh(_RESOLVE) == str(([], [], "AttributeError"))


_CLI_LOADED = """
import contextlib, io, sys
from ising_infer.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print((code, %s))
""" % _LOADED


def test_each_cli_verb_loads_only_what_it_runs(tmp_path):
    from ising_infer.coupling import (
        build_coupling,
        centered_quadratic_forms,
        save_matrix,
    )
    from ising_infer.sampler import glauber_sample, write_sample_dump

    coupling = build_coupling("random_regular", 12, d=4, seed=3)
    save_matrix(coupling, tmp_path / "q.txt")
    spins = glauber_sample(coupling, 1.2, 5).spins
    xbx, xb2x = centered_quadratic_forms(coupling, spins)
    row = {
        "seed": 5, "n": 12, "theta": 1.2, "xbar": float(spins.mean()),
        "xqx": float(spins @ (coupling.entries @ spins)), "xbx": xbx, "xb2x": xb2x,
        "spins": spins,
    }
    write_sample_dump(tmp_path / "x.csv", [row])

    def loaded(*argv):
        return _fresh(_CLI_LOADED.replace("sys.argv[1:]", repr(list(argv))))

    spectra = loaded("spectra", "--family", "qpartite", "--q", "3", "--n", "12")
    assert spectra == str((0, ["cli", *_CONFIG_MODULES["spectrum_report"]]))
    limits = loaded("limits", "--family", "complete", "--reps", "3")
    assert limits == str((0, ["cli", "coupling", "errors", "special", "streams", "theory"]))
    estimate = loaded(
        "estimate", "--matrix", str(tmp_path / "q.txt"),
        "--samples", str(tmp_path / "x.csv"), "--method", "both",
    )
    assert estimate == str(
        (0, ["cli", "coupling", "errors", "inference", "sampler", "special", "streams"])
    )


def _module_level_imports(path: Path) -> set:
    """The package modules a file imports at module level (``.`` for the package)."""
    found = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.add(node.module or ".")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "ising_infer"
        ):
            found.add(node.module)
        elif isinstance(node, ast.Import):
            found |= {a.name for a in node.names if a.name.startswith("ising_infer")}
    return found


def test_harness_and_cli_import_only_the_spectrum_path_at_load():
    # every other module comes in through a config (harness) or a verb (cli)
    package = Path(ising_infer.__file__).parent
    assert _module_level_imports(package / "harness.py") == {
        ".", "errors", "streams", "coupling"
    }
    assert _module_level_imports(package / "cli.py") == {".", "errors", "coupling"}
