"""One rule for scalar arguments (`errors.scalar`): every public entry point
rejects a bool, a string, None, a non-integer count and a non-finite real
with an InvalidArgumentError naming the parameter."""

import math

import numpy as np
import pytest

from phfem import analysis as an
from phfem import hodge as hg
from phfem import mesh as msh
from phfem import power_maps as pm
from phfem import sim
from phfem.errors import InvalidArgumentError, scalar

#: (entry point, parameter, name in the message, integer?, call with value v)
ENTRY_POINTS = [
    ("build_rect_mesh", "N", "N", True, lambda v: msh.build_rect_mesh(v, 3, 1.0)),
    ("build_rect_mesh", "M", "M", True, lambda v: msh.build_rect_mesh(2, v, 1.0)),
    ("build_rect_mesh", "h", "h", False, lambda v: msh.build_rect_mesh(2, 3, v)),
    ("build_interval_mesh", "N", "N", True, lambda v: msh.build_interval_mesh(v, 1.0)),
    ("build_interval_mesh", "L", "L", False, lambda v: msh.build_interval_mesh(4, v)),
    ("build_1d_maps", "N", "N", True, lambda v: pm.build_1d_maps(v, 0.0)),
    ("build_1d_maps", "alpha", "alpha", False, lambda v: pm.build_1d_maps(4, v)),
    ("build_golo_1d_maps", "N", "N", True, lambda v: pm.build_golo_1d_maps(v, 0.0)),
    ("build_golo_1d_maps", "alpha_prime", "alpha_prime", False,
     lambda v: pm.build_golo_1d_maps(4, v)),
    ("triangle_weights", "alpha_I", "alpha_I", False,
     lambda v: pm.triangle_weights(v, 0.25, 0.25, 0.5)),
    ("triangle_weights", "beta_II", "beta_II", False,
     lambda v: pm.triangle_weights(0.5, 0.25, 0.25, v)),
    ("hodge_1d", "N", "N", True, lambda v: hg.hodge_1d(v, 0.0, 1.0)),
    ("hodge_1d", "alpha", "alpha", False, lambda v: hg.hodge_1d(4, v, 1.0)),
    ("hodge_1d", "h", "h", False, lambda v: hg.hodge_1d(4, 0.0, v)),
    ("SimConfig", "dt", "dt", False, lambda v: sim.SimConfig(dt=v, T=1.0).validate()),
    ("SimConfig", "T", "horizon T", False,
     lambda v: sim.SimConfig(dt=0.1, T=v).validate()),
    ("MidpointStepper", "dt", "dt", False,
     lambda v: sim.MidpointStepper(an.build_1d_model(4, 0.0), v)),
    ("wave2d_experiment", "N", "grid size N", True, lambda v: sim.wave2d_experiment(v)),
    ("wave2d_experiment", "dt", "dt", False, lambda v: sim.wave2d_experiment(4, dt=v)),
    ("eig_table", "value", "'alpha'", False,
     lambda v: an.eig_table("mixed", [("a", v)], (20,))),
    ("eig_table", "N", "grid size N", True,
     lambda v: an.eig_table("mixed", [("0", 0.0)], (v,))),
    ("eig_table", "k", "mode index", True,
     lambda v: an.eig_table("mixed", [("0", 0.0)], (20,), ks=(1, v))),
    ("exact_frequencies", "L", "length L", False, lambda v: an.exact_frequencies([1], v)),
    ("chebyshev_iterations", "a", "a", False, lambda v: sim.chebyshev_iterations(v, 2.0)),
    ("chebyshev_iterations", "b", "b", False, lambda v: sim.chebyshev_iterations(0.5, v)),
    ("diagonal_front_radius", "h", "h", False,
     lambda v: sim.diagonal_front_radius(np.eye(3), v)),
]

COMMON = {"bool": True, "string": "1", "none": None}
INTEGER_ONLY = {"float": 2.5}
REAL_ONLY = {"nan": math.nan, "inf": math.inf}

CASES = [
    pytest.param(call, value, name, id=f"{entry}-{param}-{kind}")
    for entry, param, name, integer, call in ENTRY_POINTS
    for kind, value in {**COMMON, **(INTEGER_ONLY if integer else REAL_ONLY)}.items()
]


@pytest.mark.parametrize("call, value, name", CASES)
def test_bad_scalar_raises_naming_the_parameter(call, value, name):
    with pytest.raises(InvalidArgumentError) as info:
        call(value)
    assert name in str(info.value)


@pytest.mark.parametrize(
    "value, integer, expected",
    [(3, True, 3), (3, False, 3.0), (-0.5, False, -0.5), (10**400, True, 10**400)],
)
def test_scalar_accepts_numbers(value, integer, expected):
    got = scalar(value, "x", integer)
    assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize(
    "value, integer",
    [(4.0, True), (True, False), (10**400, False), (-math.inf, False), ("2", False)],
)
def test_scalar_rejects(value, integer):
    with pytest.raises(InvalidArgumentError, match="^x must be"):
        scalar(value, "x", integer)


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0)])
def test_chebyshev_interval_range(a, b):
    """The certified count needs a spectral interval 0 < a <= b."""
    with pytest.raises(InvalidArgumentError, match="0 < a <= b"):
        sim.chebyshev_iterations(a, b)


@pytest.mark.parametrize(
    "snapshot, h",
    [(np.eye(3), 0.0), (np.eye(3), -1.0), (np.ones(4), 0.5), (np.ones((3, 4)), 0.5),
     (np.ones((2, 2, 2)), 0.5), (np.ones((0, 0)), 0.5)],
    ids=["h-zero", "h-negative", "1-d", "not-square", "3-d", "empty"],
)
def test_front_radius_range(snapshot, h):
    """The front radius needs a non-empty square 2-D snapshot and h > 0."""
    with pytest.raises(InvalidArgumentError, match="square 2-D snapshot and h > 0"):
        sim.diagonal_front_radius(snapshot, h)
