"""Estimation and hypothesis testing for one-parameter spin models on
dense regular coupling matrices: samplers, limit-law theory, point
estimators, calibrated tests, and a config-driven experiment harness.

``__version__`` and the error classes load with the package. Every other
public name is loaded on its first access (PEP 562 module ``__getattr__``)
from its home module in ``_HOMES``, so ``import ising_infer`` loads no
numpy and each experiment loads only the modules it runs.
"""
import importlib

__version__ = "0.1.0"

from .errors import (
    CapacityError,
    ConfigError,
    ConstructionError,
    IsingInferError,
    NumericError,
    ParameterError,
)

# home module -> the public names it exports through the package
_EXPORTS = {
    "streams": ("derive_seed", "derive_seeds", "substream"),
    "coupling": (
        "FAMILIES",
        "CouplingMatrix",
        "LimitingSpectrum",
        "SpectralSummary",
        "ValidationReport",
        "build_coupling",
        "limiting_spectrum",
        "spectrum",
        "validate_assumptions",
        "quadratic_form",
        "centered_quadratic_forms",
        "save_matrix",
        "load_matrix",
    ),
    "sampler": (
        "SpinConfiguration",
        "suff_stat_table",
        "glauber_sample",
        "glauber_series",
        "count_law",
        "cw_log_partition",
        "draw_counts",
        "write_sample_dump",
        "read_sample_dump",
    ),
    "theory": (
        "CriticalLaw",
        "critical_law",
        "spontaneous_magnetization",
        "magnetization_variance",
        "magnetization_slope",
        "information_rate",
        "sample_quadratic_limits",
        "quadratic_limit_mean",
        "sample_mple_limit",
        "mple_limit_sf",
        "mple_limit_quantile",
        "log_partition_shift",
        "delta_log_partition",
        "mle_critical_cdf",
    ),
    "inference": (
        "EstimateResult",
        "mple",
        "mple_counts",
        "suff_stat_bounds",
        "mle_exact",
        "mle_suff_stats",
    ),
    "htests": (
        "TestSpec",
        "Calibration",
        "TestOutcome",
        "DrawSet",
        "test_statistic",
        "calibrate",
        "run_test",
        "empirical_power",
        "exact_power",
        "limit_power",
    ),
    "harness": (
        "ExperimentConfig",
        "parse_config",
        "load_config",
        "run_experiment",
        "emit",
        "read_results",
        "config_hash",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [
    "__version__",
    "IsingInferError",
    "ParameterError",
    "CapacityError",
    "ConstructionError",
    "ConfigError",
    "NumericError",
    *_HOMES,
]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
