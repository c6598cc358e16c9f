"""Exception types shared across the package, and the argument checks every module shares."""

import math
import numbers


class BhvqeError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(BhvqeError):
    """Matrix or vector dimensions are incompatible for the requested operation."""


class NotHermitianError(BhvqeError):
    """Input matrix deviates from its conjugate transpose beyond tolerance."""


class NotPowerOfTwoError(BhvqeError):
    """Matrix dimension is not a power of two, so it has no qubit decomposition."""


class DomainError(BhvqeError):
    """Physical parameter outside its valid domain (e.g. mass <= 0)."""


class UnsupportedLatticeError(BhvqeError):
    """Lattice size not supported by the requested Hamiltonian layout."""


class ParamLengthMismatchError(BhvqeError):
    """Parameter vector length does not match the circuit's slot count."""


class QubitMismatchError(BhvqeError):
    """Operands act on different numbers of qubits."""


class TooFewQubitsError(BhvqeError):
    """Ansatz family needs more qubits than were requested."""


class NonFiniteObjectiveError(BhvqeError):
    """Objective function returned NaN or infinity."""


class DegenerateDataError(BhvqeError):
    """Fit input has too few points or no usable variation."""


class NegativeInterceptError(BhvqeError):
    """Linearized fit produced a non-positive intercept; the quartic-root model is invalid."""


class OutOfRangeError(BhvqeError):
    """Requested inversion target lies outside the fitted curve's range."""


class ConfigError(BhvqeError):
    """Run configuration failed validation (unknown key, bad value, bad combination)."""


def require_int(name: str, value, minimum: int, maximum: int | None = None) -> None:
    """TypeError unless value is an int (a bool is not), ValueError outside [minimum, maximum]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < minimum or (maximum is not None and value > maximum):
        bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise ValueError(f"{name} must be {bound}, got {value}")


def finite_float(name: str, value) -> float:
    """value as a float: TypeError unless it is real (a bool is not), ValueError unless finite."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {number}")
    return number
