"""Exception taxonomy.

Two families matter to callers: bad input (files, configs, shapes) and
numerical failure during a run. The CLI maps the first to exit code 2 and
the second to exit code 1. check_count is the integer check the configs
share.
"""

from __future__ import annotations

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
