"""Golden digests of midpoint runs.

Each digest is a sha256 over the bytes of a 200-step trajectory's energy
series, its outputs and its final state, then the JSON of its
`node_solve` record.  They pin the stepper bit for bit on both node-solve
routes, on a model with feedthrough (D != 0) and on one with no q-type
inputs (m = 0): a refactoring of
`MidpointStepper` or of the node coupling it is built from must leave them
unchanged.  Like `test_golden`, they hold for one build of numpy, scipy
and their BLAS (the energy is a BLAS dot product).
"""

import hashlib
import json

import numpy as np
import pytest

from phfem import sim
from test_golden import CONFIGS

STEPS = 200


def sinusoidal_ports(n_u):
    """0.1 sin(t + port) on every port."""
    phase = np.arange(n_u, dtype=float)
    return lambda t: 0.1 * np.sin(t + phase)


def corner_pulse_port(n_u):
    def u(t):
        out = np.zeros(n_u)
        out[0] = sim.corner_pulse(t)
        return out

    return u


#: name: (golden config, dt, input, random x0, expected route)
RUNS = {
    "24x24-bottom-chebyshev": ("cli-roundtrip", 0.01, sinusoidal_ports, True, "chebyshev"),
    "24x24-bottom-superlu": ("cli-roundtrip", 1.0, sinusoidal_ports, True, "superlu"),
    "20x20-wave": ("wave", 0.05, corner_pulse_port, False, "superlu"),
    "golo-1/12": ("golo", 0.01, sinusoidal_ports, True, "superlu"),
    "3x3-p-sides-all": ("p-sides-all", 0.05, sinusoidal_ports, True, "superlu"),
}

GOLDEN = {
    "20x20-wave": "bea805664860395090d1da81871d588b6af13e42b9469be7b3dfc915bbfafba6",
    "24x24-bottom-chebyshev": "ebe23797f403dc8c6384bd094eed837e6364fecb23f5af1ac89a5ce7342229b8",
    "24x24-bottom-superlu": "92e49b34abeb69ccaf4bb1bff705e6d2fe3d765693e271e171c6b0938ff5fdc1",
    "3x3-p-sides-all": "78b6017f745bc0fc90412e5438d266fb9a8a2a35421429b4917d09834ab2c4e7",
    "golo-1/12": "c4f1d385cf7796ccb90b18c054ae9ed31767948b1991f371c20baf22817c5deb",
}


def run_digest(name):
    config, dt, make_input, random_x0, route = RUNS[name]
    model = sim.build_model(CONFIGS[config]).model
    x0 = 0.1 * np.random.default_rng(0).standard_normal(model.n) if random_x0 else None
    T = STEPS * dt
    cfg = sim.SimConfig(dt=dt, T=T, input=make_input(model.n_u), x0=x0, snapshot_times=(T,))
    traj = sim.simulate(model, cfg)
    assert len(traj.t) == STEPS + 1
    assert traj.node_solve["route"] == route
    hsh = hashlib.sha256()
    for array in (traj.energy, traj.y, traj.x[-1]):
        hsh.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    hsh.update(json.dumps(traj.node_solve, sort_keys=True).encode())
    return hsh.hexdigest()


def test_golo_run_has_feedthrough():
    assert sim.build_model(CONFIGS["golo"]).model.D.count_nonzero() > 0


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_digest(name):
    assert run_digest(name) == GOLDEN[name]
