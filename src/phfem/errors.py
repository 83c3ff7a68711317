"""Exception taxonomy shared across the package.

Every error carries an ``exit_code`` so the command-line front end can map
failures onto its documented process exit codes:

    1 -- a structural check failed (skewness, factorization, rank, residual)
    2 -- bad configuration or parameters (including malformed JSON)
    3 -- a referenced artifact (model directory, matrix file) is missing
    4 -- numerical failure (solver breakdown, NaN/Inf during time stepping)
"""

from __future__ import annotations


class PhfemError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InvalidArgumentError(PhfemError):
    """An argument is outside the supported range or malformed."""

    exit_code = 2


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
