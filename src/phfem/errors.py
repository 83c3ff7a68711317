"""Exception taxonomy shared across the package.

Every error carries an ``exit_code`` so the command-line front end can map
failures onto its documented process exit codes:

    1 -- a structural check failed (skewness, factorization, rank, residual)
    2 -- bad configuration or parameters (including malformed JSON)
    3 -- a referenced artifact (model directory, matrix file) is missing
    4 -- numerical failure (solver breakdown, NaN/Inf during time stepping)

Every public entry point passes each scalar argument through `scalar` and
then applies only its own range rule.  Only the standard library is
imported here, so the command-line front end can load this before numpy.
"""

from __future__ import annotations

import contextlib
import math
import numbers


class PhfemError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InvalidArgumentError(PhfemError):
    """An argument is outside the supported range or malformed."""

    exit_code = 2


def scalar(value, name: str, integer: bool = False):
    """`value` as an int when `integer`, else as a finite float; a bool, a
    non-number, a non-integer where an integer is meant (4.0 included) or a
    number that is not a finite float raises InvalidArgumentError naming
    the parameter `name` and the value."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, kind) and not isinstance(value, bool):
        if integer:
            return int(value)
        with contextlib.suppress(OverflowError):  # an int beyond the floats
            if math.isfinite(value := float(value)):
                return value
    what = "an integer" if integer else "a finite number"
    raise InvalidArgumentError(f"{name} must be {what}, got {value!r}")


class SingularHodgeError(PhfemError):
    """The requested Hodge matrix is singular or indefinite."""

    exit_code = 2


class StructureViolationError(PhfemError):
    """A power-preservation/skewness identity failed beyond tolerance."""

    exit_code = 1


class MissingArtifactError(PhfemError):
    """A model directory or matrix file does not exist."""

    exit_code = 3


class NumericalFailureError(PhfemError):
    """An eigen/linear solver failed, or the state left the finite range."""

    exit_code = 4
