"""The package's public namespace."""
import ising_infer


def test_every_export_resolves():
    missing = [name for name in ising_infer.__all__ if not hasattr(ising_infer, name)]
    assert not missing
    assert len(set(ising_infer.__all__)) == len(ising_infer.__all__)


def test_star_import_gives_every_export():
    namespace = {}
    exec("from ising_infer import *", namespace)
    assert set(ising_infer.__all__) <= set(namespace)
