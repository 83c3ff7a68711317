"""Structure-preserving mixed Galerkin discretization of port-Hamiltonian
systems of two conservation laws on 1D and 2D simplicial meshes.

The pipeline mirrors the construction chain:

    mesh -> incidence -> Whitney Galerkin matrices -> power-preserving
    reduction maps -> discrete Hodge -> explicit state-space model ->
    simulation / spectral analysis

Each stage lives in its own module; `cli` exposes the command-line front end.
"""

from .errors import (
    InvalidArgumentError,
    MissingArtifactError,
    NumericalFailureError,
    PhfemError,
    SingularHodgeError,
    StructureViolationError,
)

__version__ = "0.1.0"

__all__ = [
    "InvalidArgumentError",
    "MissingArtifactError",
    "NumericalFailureError",
    "PhfemError",
    "SingularHodgeError",
    "StructureViolationError",
    "__version__",
]
