"""Exception hierarchy and argument limits shared across the package.

Every error raised on purpose derives from IsingInferError so callers can
catch package failures without swallowing programming errors. The CLI
(``cli.main``) exits with code 2 on bad input: ConfigError, ParameterError
(CapacityError among them) and OSError; and with code 3 on a run that
could not finish: NumericError and ConstructionError.

The limits that an experiment config is checked against live here too, so
checking a config loads no module its experiment does not run: the
calibration modes (htests) and the cap on the local alternative h of the
critical limit law (theory).
"""
import numbers

CALIBRATIONS = ("monte_carlo", "asymptotic")
H_MAX = 50.0


class IsingInferError(Exception):
    """Base class for all package-level errors."""


class ParameterError(IsingInferError, ValueError):
    """An argument violates a documented precondition."""


class CapacityError(ParameterError):
    """A size cap was exceeded (enumeration width, partition-sum length)."""


class ConstructionError(IsingInferError, RuntimeError):
    """A randomized builder exhausted its retry budget."""


class ConfigError(IsingInferError, ValueError):
    """An experiment configuration file is malformed or inconsistent."""


class NumericError(IsingInferError, RuntimeError):
    """A numeric routine failed to reach its documented tolerance."""


def as_integer(value, name: str) -> int:
    """``value`` as an int; a bool or a non-integer raises ParameterError.

    Python and numpy integers pass. A float, even an integral one, does not:
    seeds are hashed from their decimal text, so 2.0 and 2 would differ.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return int(value)
