"""Implicit midpoint integration: conservation, oracle agreement, wave run."""

import csv
import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse._compressed as compressed
import scipy.sparse.linalg as spla

import oracles
from phfem import hodge as hg
from phfem import mesh as msh
from phfem import power_maps as pm
from phfem import sim
from phfem import statespace as ss
from phfem.errors import (
    InvalidArgumentError,
    NumericalFailureError,
    StructureViolationError,
)
from test_golden import CONFIGS as GOLDEN_CONFIGS


def model_1d(N, alpha, L=1.0):
    m = msh.build_interval_mesh(N, L)
    inc = msh.incidence(m)
    maps = pm.build_1d_maps(N, alpha)
    pair = hg.hodge_1d(N, alpha, L / N)
    return ss.assemble_model(pm.effort_stacks(maps, inc), pair)


def gentle_pulse(t):
    return np.array([0.2 * np.sin(np.pi * t) ** 2, 0.0])


def wave_config(N, causality=None, weights="set4"):
    return {
        "mesh": {"kind": "rect", "N": N, "M": N, "h": 20.0 / N},
        "causality": causality or {"p_nodes": [0], "q_edges": "rest"},
        "weights": weights,
    }


def bottom_config(N, M, weights):
    return {
        "mesh": {"kind": "rect", "N": N, "M": M},
        "causality": {"p_sides": ["bottom"], "q_edges": "rest"},
        "weights": weights,
    }


BOTTOM_4X3 = bottom_config(4, 3, "set1")
BOTTOM_24X24 = bottom_config(24, 24, "set2")


def reference_step(model, x, u_mid, dt):
    """One midpoint step by a plain LU of the full stepping matrix."""
    A = oracles.state_matrix(model)
    I = sp.identity(model.n, format="csr")
    rhs = (I + (dt / 2.0) * A) @ x + dt * (model.B @ u_mid)
    return spla.splu(sp.csc_matrix(I - (dt / 2.0) * A)).solve(rhs)


def hand_built_model(J, Q):
    """A PH model from given J and Q, with two random collocated ports."""
    n, n_u = J.shape[0], 2
    B = sp.csr_matrix(np.random.default_rng(5).standard_normal((n, n_u)))
    return ss.PHModel(
        J=sp.csr_matrix(J),
        Q=sp.csr_matrix(Q),
        B=B,
        C=B.T.tocsr(),
        D=sp.csr_matrix((n_u, n_u)),
        n_p=n // 2,
        n_q=n - n // 2,
        m_hat=1,
        m=n_u - 1,
        meta={},
    )


def vector_products(run, *args) -> int:
    """The number of scipy sparse matrix-vector products one call
    run(*args) makes, counted by a spy on `_matmul_vector`, where every
    `A @ x` of a CSR or CSC matrix ends."""
    matmul, count = compressed._cs_matrix._matmul_vector, [0]

    def spy(self, other):
        count[0] += 1
        return matmul(self, other)

    compressed._cs_matrix._matmul_vector = spy
    try:
        run(*args)
    finally:
        compressed._cs_matrix._matmul_vector = matmul
    return count[0]


def loop_products(steps: int) -> int:
    """`vector_products` of a `steps`-step `simulate` of the cli-roundtrip
    model as `phfem simulate` runs it there: dt = 0.01, zero input, a
    random x0 and no kept state."""
    model = sim.build_model(GOLDEN_CONFIGS["cli-roundtrip"]).model
    x0 = np.random.default_rng(0).standard_normal(model.n)
    cfg = sim.SimConfig(dt=0.01, T=steps * 0.01, x0=x0, snapshot_times=())
    return vector_products(sim.simulate, model, cfg)


def outside_mixed_structure(kind):
    """(J, Q) failing exactly one condition of `PHModel.node_blocks`."""
    n, rng = 6, np.random.default_rng(5)
    S = 0.3 * rng.standard_normal((n, n))
    R = 0.3 * rng.standard_normal((n, n))
    q = 1.0 + rng.random(n)
    mixed = np.zeros((n, n))
    mixed[: n // 2, n // 2 :] = S[: n // 2, n // 2 :]
    mixed -= mixed.T
    if kind == "full-skew-J":
        return S - S.T, np.diag(q)
    if kind == "non-skew-blocks":
        return mixed + np.tril(np.full((n, n), 1e-9), -n // 2), np.diag(q)
    if kind == "non-diagonal-Q":
        return mixed, np.eye(n) + R @ R.T
    if kind == "non-finite-Q":
        q[4] = np.inf
        return mixed, np.diag(q)
    q[4] = -q[4]
    return mixed, np.diag(q)


class TestStepMidpoint:
    def test_zero_stays_zero(self):
        model = model_1d(6, 0.0)
        x = sim.MidpointStepper(model, 0.01).step(np.zeros(model.n), np.zeros(2))
        assert np.all(x == 0)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1 / 6])
    def test_unforced_energy_exact(self, alpha):
        model = model_1d(10, alpha)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(model.n)
        h0 = oracles.hamiltonian(model, x)
        stepper = sim.MidpointStepper(model, 0.02)
        for _ in range(50):
            x = stepper.step(x, np.zeros(2))
        assert abs(oracles.hamiltonian(model, x) - h0) <= 1e-12 * h0 + 1e-14

    def test_exact_step_balance(self):
        """Energy change per step equals dt * u_mid^T y_mid identically."""
        model = model_1d(8, 1 / 6)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.standard_normal(model.n)
            u_mid = rng.standard_normal(model.n_u)
            dt = 0.015
            x_next = sim.MidpointStepper(model, dt).step(x, u_mid)
            x_mid = (x + x_next) / 2.0
            y_mid = oracles.output(model, x_mid, u_mid)
            dH = oracles.hamiltonian(model, x_next) - oracles.hamiltonian(model, x)
            assert abs(dH - dt * (u_mid @ y_mid)) <= 1e-12

    def test_invalid_dt(self):
        model = model_1d(4, 0.0)
        with pytest.raises(InvalidArgumentError):
            sim.MidpointStepper(model, 0.0)

    def test_step_shapes_checked(self):
        """A state one entry too long with an input one entry short has the
        right total length; the step still refuses it."""
        model = model_1d(4, 0.0)
        stepper = sim.MidpointStepper(model, 0.01)
        expected = rf"x of shape \({model.n},\) and u_mid of shape \(2,\)"
        for x, u in (
            (np.zeros(model.n + 1), np.zeros(1)),
            (np.zeros(model.n), np.zeros(3)),
            (np.zeros((model.n, 1)), np.zeros(2)),
            (np.zeros(model.n), np.zeros((2, 1))),
        ):
            with pytest.raises(InvalidArgumentError, match=expected):
                stepper.step(x, u)

    def test_setup_memory(self):
        """Set-up peaks at about 3.5 times the storage of J (the node
        blocks, then the two maps, then the scaled node matrix built in the
        memory of the coupling block): the bound is four times it.  Building
        the maps from scaled copies of every block peaked at about seven.
        At this dt the node solve is a Chebyshev iteration; the SuperLU
        route's factor lives in C memory that tracemalloc does not see."""
        model = sim.build_model(wave_config(48)).model
        J = model.J
        j_bytes = J.data.nbytes + J.indices.nbytes + J.indptr.nbytes
        tracemalloc.start()
        try:
            sim.MidpointStepper(model, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * j_bytes


class TestStepperRoutes:
    """The node-system step against a plain LU of the full stepping matrix,
    and the model contract it enforces."""

    @pytest.mark.parametrize(
        "config",
        [
            wave_config(6, {"p_sides": ["bottom"], "q_edges": "rest"}, "set2"),
            # J_q + J_p^T keeps round-off of order 1e-20 at this size
            {"mesh": {"kind": "interval", "N": 40}, "method": "golo",
             "alpha_prime": 1 / 12},
        ],
        ids=["2d-mixed-causality", "golo"],
    )
    def test_schur_route_matches_full_lu(self, config):
        model = sim.build_model(config).model
        dt = 0.05
        stepper = sim.MidpointStepper(model, dt)
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = rng.standard_normal(model.n)
            u_mid = rng.standard_normal(model.n_u)
            ref = reference_step(model, x, u_mid, dt)
            got = stepper.step(x, u_mid)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize(
        "config, dt, route",
        [
            (BOTTOM_24X24, 0.01, "chebyshev"),
            (BOTTOM_24X24, 1.0, "superlu"),
            # four iterations as at 24x24, but on 15 p-states a SuperLU
            # solve costs less than three products
            (BOTTOM_4X3, 0.01, "superlu"),
            (BOTTOM_4X3, 1.0, "superlu"),
        ],
        ids=["24x24-small-dt", "24x24-large-dt", "4x3-small-dt", "4x3-large-dt"],
    )
    def test_each_node_solve_route_matches_full_lu(self, config, dt, route):
        """The route follows the certified count and the model's size; the
        4x3 and 24x24 cases are the models and step sizes CI runs through
        the console script."""
        model = sim.build_model(config).model
        stepper = sim.MidpointStepper(model, dt)
        assert stepper.node_solve["route"] == route
        rng = np.random.default_rng(12)
        for _ in range(5):
            x = rng.standard_normal(model.n)
            u_mid = rng.standard_normal(model.n_u)
            ref = reference_step(model, x, u_mid, dt)
            got = stepper.step(x, u_mid)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize(
        "N, dt, route, iterations",
        [(160, 0.1, "chebyshev", 24), (64, 0.2, "superlu", 20)],
        ids=["160-chebyshev", "64-superlu"],
    )
    def test_one_route_rule_at_every_size(self, N, dt, route, iterations):
        """One cost rule picks the route at every size: the 160 x 160 wave
        grid keeps Chebyshev at 24 iterations, while N = 64 takes SuperLU
        at 20.  Only the route is checked; a full LU of the 160 x 160
        stepping matrix is too heavy here."""
        stepper = sim.MidpointStepper(sim.build_model(wave_config(N)).model, dt)
        assert stepper.node_solve["route"] == route
        assert stepper.node_solve["iterations"] == iterations

    @pytest.mark.parametrize(
        "config",
        [
            wave_config(6, {"p_sides": ["bottom"], "q_edges": "rest"}, "set2"),
            wave_config(12),
            wave_config(12, {"q_edges": "all"}, "set1"),
            {"mesh": {"kind": "interval", "N": 40}, "method": "golo",
             "alpha_prime": 1 / 12},
            {"mesh": {"kind": "interval", "N": 12}, "alpha": 0.5},
        ],
        ids=["6x6-mixed", "12x12-corner", "12x12-q-all", "golo", "mixed-1d"],
    )
    @pytest.mark.parametrize("dt", [0.01, 0.5, 5.0])
    def test_certified_interval_holds_spectrum(self, config, dt):
        """Every eigenvalue of the diagonally scaled node matrix lies in the
        stepper's [a, b], up to the round-off of eigvalsh."""
        model = sim.build_model(config).model
        J_p, q_p, q_q = model.node_blocks()
        h = dt / 2.0
        K = np.diag(1.0 / q_p) + h * h * (J_p @ sp.diags(q_q) @ J_p.T).toarray()
        w = 1.0 / np.sqrt(np.diag(K))
        eigs = np.linalg.eigvalsh(w[:, None] * K * w[None, :])
        a, b = sim.MidpointStepper(model, dt).node_solve["interval"]
        assert a * (1 - 1e-13) <= eigs.min() and eigs.max() <= b * (1 + 1e-13)

    @pytest.mark.parametrize(
        "config, exact",
        [
            ({"mesh": {"kind": "interval", "N": 40}, "alpha": 0.5}, True),
            (wave_config(12), False),
            (BOTTOM_24X24, False),
        ],
        ids=["mixed-1d", "12x12-corner", "24x24-bottom"],
    )
    def test_profile_fill_bounds_superlu_fill(self, config, exact):
        """The route's estimate of the L + U fill is exact for the
        tridiagonal node matrix of a 1-D model and at least SuperLU's
        minimum-degree fill on 2-D ones."""
        model = sim.build_model(config).model
        J_p, q_p, q_q = model.node_blocks()
        h = 0.05 / 2.0
        K = sp.diags(1.0 / q_p) + h * h * (J_p @ sp.diags(q_q) @ J_p.T)
        lu = spla.splu(sp.csc_matrix(K), permc_spec="MMD_AT_PLUS_A")
        fill = lu.L.nnz + lu.U.nnz
        estimate = sim._profile_fill(sp.csr_matrix(K))
        assert estimate == fill if exact else estimate >= fill

    @pytest.mark.parametrize("dt", [0.01, 1.0], ids=["chebyshev", "superlu"])
    def test_steppers_on_one_model_agree_bitwise(self, dt):
        model = sim.build_model(BOTTOM_24X24).model
        rng = np.random.default_rng(13)
        x, u_mid = rng.standard_normal(model.n), rng.standard_normal(model.n_u)
        first = sim.MidpointStepper(model, dt).step(x, u_mid)
        second = sim.MidpointStepper(model, dt).step(x, u_mid)
        assert first.tobytes() == second.tobytes()

    @pytest.mark.parametrize("dt", [0.01, 1.0], ids=["chebyshev", "superlu"])
    def test_step_inputs_step_as_float64_copies(self, dt):
        """A strided x, a float32 x and an integer u_mid give the bits of
        their contiguous float64 copies, and each step returns a new array
        that a later step leaves alone."""
        model = sim.build_model(BOTTOM_24X24).model
        stepper = sim.MidpointStepper(model, dt)
        rng = np.random.default_rng(16)
        strided = rng.standard_normal((model.n, 2))[:, 0]
        x32 = rng.standard_normal(model.n).astype(np.float32)
        u_int = rng.integers(-3, 4, model.n_u)
        u = rng.standard_normal(model.n_u)
        for x, u_mid in [(strided, u), (x32, u), (strided, u_int)]:
            want = stepper.step(np.array(x, dtype=float), np.array(u_mid, dtype=float))
            got = stepper.step(x, u_mid)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
            kept = got.copy()
            assert stepper.step(got, u_mid) is not got
            assert got.tobytes() == kept.tobytes()

    def test_interleaved_steppers_match_each_alone(self):
        """Two steppers of one model at different dt, stepped in turn, step
        as each does alone: they share no buffer."""
        model = sim.build_model(BOTTOM_24X24).model
        rng = np.random.default_rng(17)
        x0, us = rng.standard_normal(model.n), rng.standard_normal((5, model.n_u))

        def run(stepper):
            x = x0
            for u_mid in us:
                x = stepper.step(x, u_mid)
                yield x

        steppers = [sim.MidpointStepper(model, dt) for dt in (0.005, 0.01)]
        assert [s.node_solve["route"] for s in steppers] == ["chebyshev"] * 2
        alone = [list(run(sim.MidpointStepper(model, dt))) for dt in (0.005, 0.01)]
        for pair, want in zip(zip(*map(run, steppers)), zip(*alone)):
            assert [x.tobytes() for x in pair] == [x.tobytes() for x in want]

    def test_identity_node_system_takes_one_iteration(self):
        """With J = 0 and Q = I the scaled node matrix is I: kappa = 1."""
        model = hand_built_model(np.zeros((6, 6)), np.eye(6))
        stepper = sim.MidpointStepper(model, 0.1)
        assert stepper.node_solve == {
            "route": "chebyshev", "iterations": 1, "interval": [1.0, 1.0]
        }
        rng = np.random.default_rng(14)
        x, u_mid = rng.standard_normal(model.n), rng.standard_normal(model.n_u)
        ref = reference_step(model, x, u_mid, 0.1)
        assert np.abs(stepper.step(x, u_mid) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_model_without_p_states(self):
        """A 1x1 rectangle with p-type ports on every side has no p-state:
        the node system is empty and a step is the explicit q update."""
        model = sim.build_model(
            {"mesh": {"kind": "rect", "N": 1, "M": 1},
             "causality": {"p_sides": ["bottom", "top", "left", "right"]},
             "weights": "set1"}
        ).model
        assert model.n_p == 0
        stepper = sim.MidpointStepper(model, 0.1)
        assert stepper.node_solve["iterations"] == 1
        rng = np.random.default_rng(15)
        x, u_mid = rng.standard_normal(model.n), rng.standard_normal(model.n_u)
        ref = reference_step(model, x, u_mid, 0.1)
        assert np.abs(stepper.step(x, u_mid) - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize(
        "a, b, k", [(1.0, 1.0, 1), (0.9776342512583099, 1.0252489145057093, 9)]
    )
    def test_chebyshev_iterations_least_certified_count(self, a, b, k):
        """k is the least count with 2 rho^k sqrt(kappa) <= CHEBYSHEV_TOL."""
        assert sim.chebyshev_iterations(a, b) == k
        kappa = b / a
        rho = (np.sqrt(kappa) - 1) / (np.sqrt(kappa) + 1)
        assert 2 * rho**k * np.sqrt(kappa) <= sim.CHEBYSHEV_TOL
        assert k == 1 or 2 * rho ** (k - 1) * np.sqrt(kappa) > sim.CHEBYSHEV_TOL

    @pytest.mark.parametrize(
        "kind, condition",
        [
            ("full-skew-J", "J has a nonzero diagonal block"),
            ("non-skew-blocks", r"\|J_q \+ J_p\^T\| = 1\.000e-09 exceeds"),
            ("non-diagonal-Q", "Q is not diagonal"),
            ("non-finite-Q", "Q is not finite and positive"),
            ("non-positive-Q", "Q is not positive"),
        ],
        ids=[
            "full-skew-J", "non-skew-blocks", "non-diagonal-Q", "non-finite-Q",
            "non-positive-Q",
        ],
    )
    def test_model_outside_mixed_structure_rejected(self, kind, condition):
        model = hand_built_model(*outside_mixed_structure(kind))
        with pytest.raises(StructureViolationError, match=condition):
            sim.MidpointStepper(model, 1e-3)
        with pytest.raises(StructureViolationError, match=condition):
            sim.simulate(model, sim.SimConfig(dt=1e-3, T=1e-2))

    def test_inf_in_exported_hodge_stops_the_load(self, tmp_path):
        """An exported model whose Q.mtx holds inf in its first entry is
        refused by `load_model`, before any stepper or spectrum sees a
        non-finite Hodge matrix."""
        model = sim.build_model(GOLDEN_CONFIGS["interval"]).model
        out = ss.export_model(model, tmp_path / "m")
        lines = (out / "Q.mtx").read_text().splitlines()
        first = 1 + next(i for i, line in enumerate(lines) if not line.startswith("%"))
        lines[first] = " ".join(lines[first].split()[:-1] + ["inf"])
        (out / "Q.mtx").write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidArgumentError, match=r"Q\.mtx has entry \(0, 0\) = inf"):
            ss.load_model(out)

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_built_and_loaded_models_accepted(self, name, tmp_path):
        """Every golden config builds a model the stepper accepts, before
        and after an export/load round trip, with the same step."""
        model = sim.build_model(GOLDEN_CONFIGS[name]).model
        loaded = ss.load_model(ss.export_model(model, tmp_path / "m"))
        rng = np.random.default_rng(4)
        x, u_mid = rng.standard_normal(model.n), rng.standard_normal(model.n_u)
        step = sim.MidpointStepper(model, 0.05).step(x, u_mid)
        step_loaded = sim.MidpointStepper(loaded, 0.05).step(x, u_mid)
        assert np.all(np.isfinite(step))
        assert np.abs(step_loaded - step).max() <= 1e-12 * np.abs(step).max()

    def test_build_model_memory_grows_with_nnz(self):
        """The build never holds a dense n x n (or edges x nodes) array."""
        config = wave_config(
            48, {"p_nodes": [0], "p_sides": ["bottom"], "q_edges": "rest"}
        )
        tracemalloc.start()
        try:
            model = sim.build_model(config).model
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dense_bytes = 8 * model.n**2
        assert dense_bytes > 600e6
        assert peak <= dense_bytes / 20


class TestSimulate:
    def test_unforced_no_drift(self):
        model = model_1d(10, 0.5)
        rng = np.random.default_rng(7)
        x0 = rng.standard_normal(model.n)
        traj = sim.simulate(model, sim.SimConfig(dt=5e-3, T=10.0, x0=x0))
        h0 = traj.energy[0]
        assert np.abs(traj.energy - h0).max() <= 1e-12 * h0

    @pytest.mark.parametrize(
        "dt, route", [(0.01, "chebyshev"), (0.05, "superlu")], ids=["chebyshev", "superlu"]
    )
    def test_unforced_round_off_drift_2d(self, dt, route):
        """2 000 unforced steps of the 24 x 24 model from a random state
        keep H to a few ulps on either node-solve route.  The increment is
        a skew product at the midpoint, so a node-solve residual moves H
        only by about dt |A| times that residual."""
        model = sim.build_model(BOTTOM_24X24).model
        x0 = np.random.default_rng(0).standard_normal(model.n)
        traj = sim.simulate(model, sim.SimConfig(dt=dt, T=2000 * dt, x0=x0))
        assert traj.node_solve["route"] == route
        h0 = traj.energy[0]
        assert np.abs(traj.energy - h0).max() <= 1e-14 * h0

    def test_loop_makes_no_scipy_product(self):
        """Every product of a step and of `record` runs `mesh.matvec`: a
        100-step cli-roundtrip run makes only the scipy matrix-vector
        products of its set-up, as many as a 1-step run."""
        assert loop_products(100) == loop_products(1)

    def test_matches_matrix_exponential_oracle(self):
        model = model_1d(20, 0.0)
        dt, T = 1e-3, 0.5
        traj = sim.simulate(model, sim.SimConfig(dt=dt, T=T, input=gentle_pulse))
        ref = oracles.expm_trajectory(
            oracles.state_matrix(model).toarray(),
            model.B.toarray(),
            gentle_pulse,
            dt,
            int(T / dt),
            np.zeros(model.n),
        )
        assert np.abs(traj.x - ref).max() <= 1e-6

    def test_matches_oracle_2d_with_state_and_input(self):
        """A 2-D model whose J_q + J_p^T keeps round-off, from a random
        state, driven on every port."""
        model = sim.build_model(GOLDEN_CONFIGS["build-determinism"]).model
        weights = np.linspace(0.1, 0.3, model.n_u)

        def pulse(t):
            return weights * np.sin(np.pi * t) ** 2

        dt, steps = 1e-3, 300
        x0 = np.random.default_rng(2).standard_normal(model.n)
        traj = sim.simulate(
            model, sim.SimConfig(dt=dt, T=dt * steps, input=pulse, x0=x0)
        )
        ref = oracles.expm_trajectory(
            oracles.state_matrix(model).toarray(), model.B.toarray(), pulse, dt, steps, x0
        )
        assert np.abs(traj.x - ref).max() <= 1e-6

    def test_energy_defect_second_order(self):
        model = model_1d(20, 0.0)

        def defect(dt):
            traj = sim.simulate(model, sim.SimConfig(dt=dt, T=1.0, input=gentle_pulse))
            return oracles.energy_defect(traj)[-1]

        ratio = defect(2e-3) / defect(1e-3)
        assert 3.5 <= ratio <= 4.5

    def test_supplied_energy_tracks_hamiltonian(self):
        model = model_1d(16, 1 / 6)
        traj = sim.simulate(
            model, sim.SimConfig(dt=1e-3, T=2.0, input=gentle_pulse)
        )
        scale = max(traj.energy.max(), 1e-30)
        assert oracles.energy_defect(traj).max() <= 1e-4 * scale + 1e-12

    def test_sampled_input_equivalent_to_closed_form(self):
        model = model_1d(8, 0.0)
        dt, T = 0.01, 1.0
        n = int(T / dt)
        ts = np.arange(n + 1) * dt
        sampled = np.array([gentle_pulse(t) for t in ts])
        t1 = sim.simulate(model, sim.SimConfig(dt=dt, T=T, input=sampled))
        t2 = sim.simulate(model, sim.SimConfig(dt=dt, T=T, input=gentle_pulse))
        # midpoint sampling vs endpoint averaging: both second order
        assert np.abs(t1.x - t2.x).max() <= 1e-4

    def test_nonfinite_input_aborts(self):
        """A non-finite input is rejected before stepping; a state that
        overflows during stepping is still a numerical failure."""
        model = model_1d(6, 0.0)

        def bad(t):
            return np.array([np.inf, 0.0]) if t > 0.5 else np.zeros(2)

        with pytest.raises(InvalidArgumentError, match="t = 0.55.* on port 0"):
            sim.simulate(model, sim.SimConfig(dt=0.1, T=1.0, input=bad))
        with pytest.raises(NumericalFailureError, match="non-finite state at step 1"):
            sim.simulate(
                model, sim.SimConfig(dt=0.1, T=1.0, x0=np.full(model.n, 1e308))
            )

    @pytest.mark.parametrize("dt", [1e-300, 1e-12])
    def test_too_many_steps_rejected(self, dt):
        """A grid that cannot be allocated is an argument error naming dt,
        T and the step count (both sizes fail before allocating)."""
        model = model_1d(4, 0.0)
        with pytest.raises(
            InvalidArgumentError, match=rf"dt = {dt:g} and T = 1 give .* steps"
        ):
            sim.simulate(model, sim.SimConfig(dt=dt, T=1.0))

    def test_config_validation(self):
        model = model_1d(4, 0.0)
        with pytest.raises(InvalidArgumentError):
            sim.simulate(model, sim.SimConfig(dt=-0.1, T=1.0))
        with pytest.raises(InvalidArgumentError):
            sim.simulate(model, sim.SimConfig(dt=0.1, T=0.01))
        for dt, T in ((0.1, np.inf), (np.nan, 1.0), (np.inf, np.inf)):
            with pytest.raises(InvalidArgumentError):
                sim.simulate(model, sim.SimConfig(dt=dt, T=T))
        with pytest.raises(InvalidArgumentError):
            sim.simulate(
                model, sim.SimConfig(dt=0.1, T=1.0, snapshot_times=(2.0,))
            )
        for times, named in ((0.5, "0.5"), ("0.5", "'0.5'"), (True, "True"),
                             ((0.2, np.nan), "nan"), ((True,), "True")):
            with pytest.raises(InvalidArgumentError, match=f"got {named}$|{named} is"):
                sim.simulate(
                    model, sim.SimConfig(dt=0.1, T=1.0, snapshot_times=times)
                )
        with pytest.raises(InvalidArgumentError):
            sim.simulate(model, sim.SimConfig(dt=0.1, T=1.0, x0=np.zeros(3)))
        x0 = np.zeros(model.n)
        x0[[2, 5]] = np.nan
        with pytest.raises(InvalidArgumentError, match="x0 has non-finite entry 2"):
            sim.simulate(model, sim.SimConfig(dt=0.1, T=1.0, x0=x0))
        with pytest.raises(InvalidArgumentError):
            sim.simulate(
                model, sim.SimConfig(dt=0.1, T=1.0, input=np.zeros((11, 5)))
            )
        # a callable must return one value per port, at grid and midpoint times
        for fn in (lambda t: 0.0, lambda t: np.zeros(3),
                   lambda t: np.zeros(2 if t < 0.5 else 1),
                   lambda t: np.zeros(2 if round(t / 0.05) % 2 == 0 else 3)):
            with pytest.raises(InvalidArgumentError, match=r"expected \(2,\)"):
                sim.simulate(model, sim.SimConfig(dt=0.1, T=1.0, input=fn))
        sampled = np.zeros((11, 2))
        sampled[4, 1] = np.nan
        with pytest.raises(
            InvalidArgumentError, match=r"sample 4 \(t = 0.4\) .*nan on port 1"
        ):
            sim.simulate(model, sim.SimConfig(dt=0.1, T=1.0, input=sampled))

        def spike(t):
            return np.array([0.0, -np.inf if t > 0.32 else 0.0])

        with pytest.raises(InvalidArgumentError, match=r"t = 0.35\).*-inf on port 1"):
            sim.simulate(model, sim.SimConfig(dt=0.1, T=1.0, input=spike))

    def test_grid_ends_at_first_multiple_of_dt_past_T(self):
        """A horizon T that dt does not divide runs on to the next grid time."""
        traj = sim.simulate(model_1d(4, 0.0), sim.SimConfig(dt=0.3, T=1.0))
        np.testing.assert_array_equal(traj.t, np.arange(5) * 0.3)
        np.testing.assert_allclose(traj.t, [0.0, 0.3, 0.6, 0.9, 1.2], rtol=1e-15)


class TestBuildModel:
    @pytest.mark.parametrize(
        "config, message",
        [({}, "config is missing top-level key 'mesh'"),
         ({"mesh": {"N": 4}}, "config is missing mesh key 'kind'"),
         ({"mesh": {"kind": "rect", "M": 3}}, "config is missing mesh key 'N'"),
         ({"mesh": {"kind": "rect", "N": 4, "M": 3}},
          "config is missing top-level key 'weights'"),
         ({"mesh": {"kind": "interval", "N": 4}},
          "config is missing interval-mesh key 'alpha'"),
         ({"mesh": {"kind": "interval", "N": 4}, "method": "golo"},
          "config is missing interval-mesh key 'alpha_prime'")],
        ids=["mesh", "kind", "N", "weights", "alpha", "alpha_prime"],
    )
    def test_missing_key_rejected(self, config, message):
        with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
            sim.build_model(config)


class TestRecordedOutputs:
    """Outputs and energies from the stacked output map, on models with a
    feedthrough D != 0, against `oracles.output` and `oracles.hamiltonian`."""

    @pytest.fixture(
        params=[
            {"mesh": {"kind": "interval", "N": 40}, "method": "golo",
             "alpha_prime": 1 / 12},
            wave_config(6, {"p_sides": ["bottom"], "q_edges": "rest"}, "set2"),
        ],
        ids=["golo", "2d-bottom-input"],
    )
    def model(self, request):
        model = sim.build_model(request.param).model
        assert model.D.count_nonzero()
        return model

    def test_match_model_methods(self, model):
        dt, steps = 0.01, 60
        rng = np.random.default_rng(9)
        u = rng.standard_normal((steps + 1, model.n_u))
        x0 = rng.standard_normal(model.n)
        traj = sim.simulate(
            model, sim.SimConfig(dt=dt, T=dt * steps, input=u, x0=x0)
        )
        for k in traj.x_steps:
            x = traj.x[k]
            y = oracles.output(model, x, u[k])
            assert np.abs(traj.y[k] - y).max() <= 1e-13 * np.abs(y).max()
            H = oracles.hamiltonian(model, x)
            assert abs(traj.energy[k] - H) <= 1e-13 * H

    def test_zero_input_same_as_no_input(self, model):
        dt, steps = 0.01, 40
        x0 = np.random.default_rng(3).standard_normal(model.n)
        cfg = sim.SimConfig(dt=dt, T=dt * steps, x0=x0)
        free = sim.simulate(model, cfg)
        zero = sim.simulate(
            model, cfg._replace(input=np.zeros((steps + 1, model.n_u)))
        )
        assert np.array_equal(free.y, zero.y)
        assert np.array_equal(free.energy, zero.energy)


class TestSnapshots:
    """States kept at the requested times only, everything else unchanged."""

    @pytest.fixture(params=["1d-callable-input", "2d-build-determinism"])
    def run(self, request):
        if request.param == "1d-callable-input":
            model, dt, T = model_1d(12, 1 / 6), 0.01, 1.0
            cfg = sim.SimConfig(dt=dt, T=T, input=gentle_pulse)
        else:
            model = sim.build_model(GOLDEN_CONFIGS["build-determinism"]).model
            dt, T = 0.02, 0.6
            x0 = np.random.default_rng(2).standard_normal(model.n)
            cfg = sim.SimConfig(
                dt=dt, T=T, x0=x0, input=lambda t: np.full(model.n_u, np.sin(t))
            )
        return model, cfg, sim.simulate(model, cfg)

    def test_full_trajectory_keeps_every_step(self, run):
        _, _, full = run
        assert full.x.shape[0] == full.t.size
        assert np.array_equal(full.x_steps, np.arange(full.t.size))

    @pytest.mark.parametrize(
        "times",
        [(0.0,), (0.3, 0.118, 0.301, 0.1, 0.3), (0.0, 0.305, 0.6 + 1e-13), ()],
        ids=["start", "unsorted-duplicates", "rounding-and-end", "none"],
    )
    def test_sparse_run_matches_full_run(self, run, times):
        model, cfg, full = run
        sparse = sim.simulate(model, cfg._replace(snapshot_times=times))
        for name in ("t", "y", "energy", "supplied"):
            assert np.array_equal(getattr(sparse, name), getattr(full, name)), name
        n_steps = full.t.size - 1
        want = sorted({min(int(round(t / cfg.dt)), n_steps) for t in times})
        assert sparse.x_steps.tolist() == want
        assert sparse.x.shape == (len(want), model.n)
        assert np.array_equal(sparse.x, full.x[want])

    def test_overflow_without_kept_states(self):
        model = model_1d(6, 0.0)
        cfg = sim.SimConfig(
            dt=0.1, T=1.0, x0=np.full(model.n, 1e308), snapshot_times=()
        )
        with pytest.raises(
            NumericalFailureError,
            match=r"non-finite state at step 1 .*max \|x\| before failure 1\.000e\+308",
        ):
            sim.simulate(model, cfg)

    def test_finite_state_with_overflowing_energy_recorded(self):
        """A finite state whose energy overflows is no failure: the energy
        screen falls back to the state itself and records H as inf."""
        model = model_1d(6, 0.0)
        cfg = sim.SimConfig(dt=0.1, T=1.0, x0=np.full(model.n, 1e200))
        traj = sim.simulate(model, cfg)
        assert traj.t.size == 11 and np.all(np.isfinite(traj.x))
        assert np.all(traj.energy == np.inf)

    def test_memory_does_not_grow_with_steps(self):
        """With no kept state the run never holds the (steps + 1) x n
        history: its traced peak stays below a quarter of it."""
        model = sim.build_model(wave_config(32)).model
        m_b = model.n_u - 1

        def u_of_t(t):
            return np.concatenate([[sim.corner_pulse(t)], np.zeros(m_b)])

        cfg = sim.SimConfig(dt=0.05, T=18.0, input=u_of_t, snapshot_times=())
        tracemalloc.start()
        try:
            traj = sim.simulate(model, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.t.size == 361 and traj.x.shape == (0, model.n)
        history_bytes = traj.t.size * model.n * 8
        assert history_bytes > 10e6
        assert peak <= history_bytes / 4


class TestWaveExperiment:
    def test_small_run(self):
        res = sim.wave2d_experiment(8, weights="set1", dt=0.2, T=2.0,
                                    snapshot_times=(0.0, 2.0))
        assert res.model.n_p == 9 * 9 - 1
        np.testing.assert_allclose(res.snapshots[0.0], 0.0, atol=0)
        assert res.snapshots[2.0].shape == (9, 9)
        assert np.abs(res.snapshots[2.0]).max() > 0
        assert np.all(np.isfinite(res.trajectory.energy))
        assert res.model.meta["h"] == 20.0 / 8
        assert res.model.meta["weights"]["alpha_I"] == 1 / 3

    def test_energy_frozen_after_input_stops(self):
        res = sim.wave2d_experiment(6, weights="set2", dt=0.1, T=10.0,
                                    snapshot_times=())
        t = res.trajectory.t
        after = res.trajectory.energy[t >= 8.0 + 1e-9]
        assert np.abs(after - after[0]).max() <= 1e-10 * max(after[0], 1e-30)

    def test_model_is_build_model_of_wave_config(self):
        res = sim.wave2d_experiment(8, weights="set4", dt=0.2, T=0.4,
                                    snapshot_times=(0.0,))
        built = sim.build_model(
            {"mesh": {"kind": "rect", "N": 8, "M": 8, "h": 20.0 / 8},
             "causality": {"p_nodes": [0], "q_edges": "rest"},
             "weights": "set4"}
        )
        assert res.model.meta == built.model.meta
        for name in ("J", "Q", "B", "C", "D"):
            a, b = getattr(res.model, name), getattr(built.model, name)
            assert a.shape == b.shape and (a != b).nnz == 0, name

    def test_invalid_arguments(self):
        with pytest.raises(InvalidArgumentError):
            sim.wave2d_experiment(8, weights="set9")
        with pytest.raises(InvalidArgumentError):
            sim.wave2d_experiment(8.5)

    @pytest.mark.parametrize("N", [0, -4, True])
    def test_grid_size_not_positive_integer_rejected(self, N):
        with pytest.raises(
            InvalidArgumentError, match="grid size N must be (a positive|an) integer"
        ):
            sim.wave2d_experiment(N)

    @pytest.mark.parametrize(
        "times, entry",
        [(5.0, "5.0"), (("x",), "'x'"), ((True,), "True"),
         ((float("nan"),), "nan"), (None, "None"), (np.array(5.0), r"array\(5\.")],
        ids=["number", "string", "bool", "nan", "none", "0-d-array"],
    )
    def test_bad_snapshot_times_rejected(self, times, entry):
        with pytest.raises(InvalidArgumentError, match=entry):
            sim.wave2d_experiment(2, dt=0.5, T=1.0, snapshot_times=times)

    def test_front_radius_helper(self):
        grid = np.zeros((41, 41))
        grid[20, 20] = 2.0  # diagonal node 20
        assert np.isclose(sim.diagonal_front_radius(grid, 0.5),
                          20 * 0.5 * np.sqrt(2.0))


class TestWriters:
    def test_energy_csv_bytes(self, tmp_path):
        """The bytes of a forced run's file, whose E_supplied goes negative,
        as `csv.writer` wrote them (sha256 recorded from that writer)."""
        model = model_1d(8, 0.25)
        x0 = np.random.default_rng(3).standard_normal(model.n)
        cfg = sim.SimConfig(
            dt=0.05, T=2.0, x0=x0,
            input=lambda t: np.array([np.sin(3.0 * t), 0.5 * np.cos(2.0 * t)]),
        )
        traj = sim.simulate(model, cfg)
        assert traj.supplied.min() < 0
        path = sim.write_energy_csv(traj, tmp_path / "e.csv")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "1fc6c22d497ce5093bc4c0bc25403dba432edc6475c91eae6e57d93afd87b1de"
        )

    def test_energy_csv(self, tmp_path):
        model = model_1d(4, 0.0)
        traj = sim.simulate(model, sim.SimConfig(dt=0.1, T=0.5))
        path = sim.write_energy_csv(traj, tmp_path / "e.csv")
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["t", "H_d", "E_supplied"]
        assert len(rows) == len(traj.t) + 1
