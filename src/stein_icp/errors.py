"""Exception taxonomy.

Two families matter to callers: bad input (files, configs, shapes) and
numerical failure during a run. The CLI maps the first to exit code 2 and
the second to exit code 1. check_count, check_real and real_array are the
integer, real-number and real-array checks the configs share.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = ["RegistrationError", "InputError", "CloudParseError", "NumericalError",
           "DivergedError", "MatchRejectionError"]


class RegistrationError(Exception):
    """Base class for all package-specific errors."""


class InputError(RegistrationError):
    """Invalid user input: files, configuration values, shapes."""


class CloudParseError(InputError):
    """A point cloud file could not be parsed. Message carries line context."""


class NumericalError(RegistrationError):
    """A computation failed numerically."""


class DivergedError(NumericalError):
    """An optimizer run produced non-finite parameters."""


class MatchRejectionError(NumericalError):
    """Every correspondence in a batch was rejected (clouds do not overlap)."""


def check_count(name: str, value, minimum: int) -> None:
    """Raise InputError unless value is an integer >= minimum. numpy integers
    count; a bool or a float (even 3.0) does not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InputError(f"{name} must be >= {minimum}, got {value}")


def check_real(name: str, value, *, zero_ok: bool = False) -> None:
    """Raise InputError unless value is a real number, not a bool, whose
    float() is finite and > 0 (>= 0 with zero_ok). The engine reads these
    values through float(), so an int beyond the float range (10**400)
    fails here instead of as an OverflowError mid-run."""
    bound = "non-negative" if zero_ok else "positive"
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{name} must be a {bound} finite number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise InputError(f"{name} must be {bound} and finite, got an integer beyond "
                         "the float range") from None
    if not (0 <= number < np.inf if zero_ok else 0 < number < np.inf):
        raise InputError(f"{name} must be {bound} and finite, got {value}")


def real_array(name: str, value) -> np.ndarray:
    """value as a float64 array. An entry that is not a number, or an int
    beyond the float range (10**400), raises InputError naming the field
    instead of numpy's TypeError, ValueError or OverflowError."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{name} must hold real numbers within the float range") from None
