"""Exception taxonomy shared across the package.

Every error carries an ``exit_code`` so the command-line front end can map
failures onto its documented process exit codes:

    1 -- a structural check failed (skewness, factorization, rank, residual)
    2 -- bad configuration or parameters (including malformed JSON)
    3 -- a referenced artifact (model directory, matrix file) is missing
    4 -- numerical failure (solver breakdown, NaN/Inf during time stepping)

Every public entry point passes each scalar argument through `scalar`,
each list of numbers through `scalars` and each config object through
`fields`, and then applies only its own range rule.  Only the standard
library is imported here, so the command-line front end can load this
before numpy.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from collections.abc import Sequence


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


def scalars(values, name: str, integer: bool = False) -> tuple:
    """`values` as a tuple of `scalar`s named `name`: a sequence other than
    a string, or a 1-d array (told by `ndim`, without numpy).  Anything
    else, such as a set (it has no order), dict, generator, None, number or
    array of another dimension, raises InvalidArgumentError."""
    if isinstance(values, (str, bytes)) or not (
        isinstance(values, Sequence) or getattr(values, "ndim", None) == 1
    ):
        what = "integers" if integer else "numbers"
        raise InvalidArgumentError(f"{name} must be a list of {what}, got {values!r}")
    return tuple(scalar(v, name, integer) for v in values)


def fields(obj, name: str, known) -> dict:
    """`obj` when it is an object (a dict) whose keys all lie in `known`;
    otherwise InvalidArgumentError naming `name` and the first unknown key."""
    if not isinstance(obj, dict):
        raise InvalidArgumentError(f"{name} must be an object, got {obj!r}")
    for key in obj:
        if key not in known:
            raise InvalidArgumentError(f"unknown {name} key {key!r}")
    return obj


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
