"""Model construction from a config, time integration, energy accounting
with its `energy.csv` writer, and the 2D wave experiment.

`build_model` is the one path from a config (the `phfem build` JSON schema)
to a PH model: mesh -> boundary partition -> incidence -> power-preserving
maps -> diagonal Hodge -> explicit state space.

The integrator is the implicit midpoint rule in discrete port-Hamiltonian
form: with the input held at u_mid = u(t_k + dt/2),

    (I - dt/2 A) x_mid = x_k + dt/2 B u_mid,
    x_{k+1} = x_k + dt (A x_mid + B u_mid).

It is symplectic and preserves the quadratic Hamiltonian exactly for
u = 0 (A = J Q with J skew).  With inputs, each step satisfies the exact
discrete balance H_d(x_{k+1}) - H_d(x_k) = dt * u_mid^T y_mid, so energy
bookkeeping against the grid-sampled trapezoid of y^T u has a defect of
order dt^2 per unit time.  The increment is an explicit skew product at
x_mid, so a round-off residual of the solve moves the energy by order
dt times that residual only.

The model contract is the mixed structure `PHModel.node_blocks`
certifies, and every model `build_model` builds or `load_model` loads
meets it: J = [[0, J_p], [J_q, 0]] with J_q = -J_p^T to SKEW_TOL and a
positive diagonal Q = diag(Q_p, Q_q).  With h = dt/2 and u = u_mid, the
midpoint system then reduces to the symmetric positive definite node system

    (Q_p^-1 + h^2 J_p Q_q J_p^T) z = x_p + h B_p u + h J_p Q_q (x_q + h B_q u),

whose solution gives x_mid = [Q_p^-1 z; x_q + h B_q u - h J_p^T z].
Substituting that x_mid, the increment is

    x_{k+1} - x_k = dt [J_p Q_q x_q + (B_p + h J_p Q_q B_q) u - h J_p Q_q J_p^T z;
                        B_q u + J_q z].

`MidpointStepper` builds two sparse maps once per run, from J_p Q_q and
the node coupling J_p Q_q J_p^T of `statespace.node_coupling`.  They split
the increment into its z part and a part s that maps [x_q; u_mid] (x_p
does not enter it):

    s = dt [J_p Q_q x_q + (B_p + h J_p Q_q B_q) u;  B_q u],
    x_{k+1} = x_k + s + dt [-h J_p Q_q J_p^T z;  J_q z].

The node system's right-hand side is x_p plus half the p rows of s, so a
step is one product, one node solve and one product.  Together the maps
still form the explicit product dt (A x_mid + B u_mid) at the x_mid that
z defines: the precomputed blocks J_p Q_q J_p^T and J_p Q_q B_q only
reorder the floating-point operations.  So the energy argument above
holds up to round-off, as it did when x_mid was formed first.

The node solve works on the node matrix K scaled to unit diagonal,
K~ = W K W with W = diag(K)^-1/2, and z = W y for K~ y = W rhs.  The
spectrum of K~ lies in a certified interval [a, b]: a = min_i
(1/q_p,i) / K_ii, because h^2 J_p Q_q J_p^T is positive semidefinite, and
b is the largest absolute row sum of K~ (Gershgorin).  With kappa = b/a
the number k of Chebyshev steps that bring the relative 2-norm error
under CHEBYSHEV_TOL is known before the first step
(`chebyshev_iterations`; the Chebyshev semi-iterative method of Golub and
Varga, Numer. Math. 1961).  The solve is either that fixed-count
iteration, k - 1 products with K~ and no inner products, or a SuperLU
factor of K~ (`MMD_AT_PLUS_A` ordering), whichever `_chebyshev_pays`
estimates to cost less per step: k - 1 products against one solve through
the estimated fill.  kappa grows with the CFL number and the fill with the
model, so small dt on large models takes Chebyshev (the stepper then holds
K~, its nnz, and no factor) and large dt or small models take SuperLU.
One rule, reading only the model and dt, holds at every size.  A
Chebyshev step is bitwise deterministic, and both routes solve to
round-off, so the energy argument is the same on either.

`simulate` keeps the outputs, the energy and the supplied energy at every
grid time, but the state only at the steps `SimConfig.snapshot_times`
names: every step when it is None, none when it is ().  The kept states
then stop growing with the number of steps, but the outputs and the input
samples (at grid and midpoint times) are O(steps x ports): three 1.55 MB
arrays for 2 001 steps of a 97-port model.  The `Trajectory.x_steps`
index says which grid step each kept row belongs to.
"""

from __future__ import annotations

import math
import pathlib
from collections.abc import Callable, Sequence
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import (
    InvalidArgumentError,
    NumericalFailureError,
    StructureViolationError,
    fields,
    scalar,
    scalars,
)
from .hodge import hodge_1d, hodge_2d, hodge_golo_1d
from .mesh import (
    IncidencePair,
    SimplexMesh,
    build_interval_mesh,
    build_rect_mesh,
    incidence,
    matvec,
    partition_boundary,
)
from .power_maps import (
    RESIDUAL_TOL,
    MapSet,
    build_1d_maps,
    build_2d_maps,
    build_golo_1d_maps,
    effort_stacks,
    power_residual,
    weights_from_config,
)
from .statespace import SKEW_TOL, PHModel, assemble_model, node_coupling, power_balance_residual


class BuiltModel(NamedTuple):
    """A PH model together with the pipeline stages it was built from and
    the two residuals its build checked ("power_preservation" of the maps,
    "power_balance" of the model)."""

    model: PHModel
    mesh: SimplexMesh
    inc: IncidencePair
    maps: MapSet
    residuals: dict


def _require(cfg: dict, key: str, context: str):
    if key not in cfg:
        raise InvalidArgumentError(f"config is missing {context} key {key!r}")
    return cfg[key]


def _number(cfg: dict, key: str, context: str, default=None, integer=False):
    """The `errors.scalar` under `key`; required unless a default is given."""
    v = _require(cfg, key, context) if default is None else cfg.get(key, default)
    return scalar(v, f"{context} key {key!r}", integer)


def build_model(config: dict) -> BuiltModel:
    """Build the model a config describes (the `phfem build` JSON schema).

    "mesh" is {"kind": "rect", "N", "M", "h" (default 1)} or {"kind":
    "interval", "N", "L" (default 1)}; "causality" is passed to
    `mesh.partition_boundary`.  Rectangles need "weights"; intervals take
    "method" ("mixed", default, alias "ours"; or "golo") with "alpha" or
    "alpha_prime" respectively.  Unknown keys are rejected; known keys that
    the mesh kind or method does not read are accepted.
    """
    known = ("mesh", "causality", "weights", "method", "alpha", "alpha_prime")
    config = fields(config, "top-level config", known)
    mesh_cfg = _require(config, "mesh", "top-level")
    mesh_cfg = fields(mesh_cfg, "mesh config", ("kind", "N", "M", "h", "L"))
    kind = _require(mesh_cfg, "kind", "mesh")
    if kind == "rect":
        N = _number(mesh_cfg, "N", "mesh", integer=True)
        M = _number(mesh_cfg, "M", "mesh", integer=True)
        h = _number(mesh_cfg, "h", "mesh", default=1.0)
        mesh = build_rect_mesh(N, M, h)
    elif kind == "interval":
        N = _number(mesh_cfg, "N", "mesh", integer=True)
        L = _number(mesh_cfg, "L", "mesh", default=1.0)
        mesh = build_interval_mesh(N, L)
    else:
        raise InvalidArgumentError(
            f"mesh kind must be 'rect' or 'interval', got {kind!r}"
        )
    part = partition_boundary(mesh, config.get("causality"))
    inc = incidence(mesh)

    if mesh.dim == 2:
        w = weights_from_config(_require(config, "weights", "top-level"))
        maps = build_2d_maps(mesh, part, w, inc)
        pair = hodge_2d(mesh, maps)
        meta = {
            "method": "mixed-2d",
            "N": N,
            "M": M,
            "h": h,
            "weights": {
                "alpha_I": w.alpha_I,
                "beta_I": w.beta_I,
                "alpha_II": w.alpha_II,
                "beta_II": w.beta_II,
            },
        }
    else:
        method = config.get("method", "mixed")
        if method in ("mixed", "ours"):
            alpha = _number(config, "alpha", "interval-mesh")
            maps = build_1d_maps(N, alpha)
            pair = hodge_1d(N, alpha, L / N)
            meta = {"method": "mixed", "alpha": alpha, "N": N, "L": L}
        elif method == "golo":
            alpha_prime = _number(config, "alpha_prime", "interval-mesh")
            maps = build_golo_1d_maps(N, alpha_prime)
            pair = hodge_golo_1d(N, L / N)
            meta = {
                "method": "golo",
                "alpha_prime": alpha_prime,
                "N": N,
                "L": L,
                "non_convex": bool(alpha_prime < 0.0),
            }
        else:
            raise InvalidArgumentError(
                f"method must be 'mixed' (alias 'ours') or 'golo', got {method!r}"
            )
    stacks = effort_stacks(maps, inc)
    preservation = power_residual(stacks)
    if not preservation <= RESIDUAL_TOL:  # NaN fails too
        raise StructureViolationError(
            f"power-preservation residual {preservation:.3e} exceeds {RESIDUAL_TOL}"
        )
    model = assemble_model(stacks, pair, meta=meta)
    del stacks  # resolved into the model; free before the balance check
    balance = power_balance_residual(model)
    if not balance <= SKEW_TOL:
        raise StructureViolationError(
            f"state-space model violates power balance: residual {balance:.3e}"
        )
    residuals = {"power_preservation": preservation, "power_balance": balance}
    return BuiltModel(model, mesh, inc, maps, residuals)


class SimConfig(NamedTuple):
    """Run parameters: step size, horizon, per-port input signal, initial
    state and the times whose states the trajectory keeps.

    `snapshot_times` is None (keep the state at every grid time) or a
    sequence of finite times in [0, T] (keep only those states; `()` keeps
    none).  A time t is kept at grid step round(t / dt), clipped to the last
    step, so two times that round to the same step are kept once.
    """

    dt: float
    T: float
    input: Callable[[float], np.ndarray] | None = None
    x0: np.ndarray | None = None
    snapshot_times: Sequence[float] | None = None

    def validate(self) -> None:
        dt, T = scalar(self.dt, "dt"), scalar(self.T, "horizon T")
        if not 0 < dt <= T:
            raise InvalidArgumentError(f"need 0 < dt <= horizon T, got dt = {dt}, T = {T}")
        times = () if self.snapshot_times is None else self.snapshot_times
        for t in scalars(times, "snapshot_times"):
            if not 0 <= t <= T + 1e-12:
                raise InvalidArgumentError(f"snapshot time {t} outside [0, {T}]")


def _grid_steps(times: Sequence[float], dt: float, n_steps: int) -> np.ndarray:
    """The grid step each time is kept at: round(t / dt), clipped to the
    last step `n_steps`."""
    steps = np.rint(np.asarray(times, dtype=float) / dt)
    return np.minimum(steps, n_steps).astype(np.intp)


class Trajectory(NamedTuple):
    """Time grid, kept states, grid-sampled outputs, energy series and the
    cumulative supplied energy (trapezoid of y^T u).

    `t`, `y`, `energy` and `supplied` cover every grid time.  `x` holds
    only the states `SimConfig.snapshot_times` asked for, one row per kept
    grid step in time order; `x_steps` gives the grid step of each row
    (`arange(len(t))` when every state is kept), so row i is the state at
    `t[x_steps[i]]`.  `node_solve` is the run's
    `MidpointStepper.node_solve`.
    """

    t: np.ndarray
    x: np.ndarray
    x_steps: np.ndarray
    y: np.ndarray
    energy: np.ndarray
    supplied: np.ndarray
    node_solve: dict


#: the fixed cost per call, a product with K~ or a SuperLU solve, that the
#: route rule `_chebyshev_pays` charges, in stored matrix entries: calibrated
#: on the CFL sweep in CHANGES.md, where the routes it picks are the faster
#: ones.  It is the rule's constant, not a measured product overhead.
CALL_OVERHEAD_ENTRIES = 8000

#: relative 2-norm error of the node solve the iteration count certifies
CHEBYSHEV_TOL = 1e-16


def chebyshev_iterations(a: float, b: float) -> int:
    """The least k >= 1 with 2 rho^k sqrt(kappa) <= CHEBYSHEV_TOL, where
    kappa = b / a and rho = (sqrt(kappa) - 1) / (sqrt(kappa) + 1).

    For an SPD K with spectrum in [a, b], k Chebyshev steps from y_0 = 0
    leave an error e_k = p_k(K) y with |p_k| <= 1 / T_k((b + a) / (b - a))
    <= 2 rho^k on [a, b], so |e_k|_K <= 2 rho^k |y|_K.  Since
    a |e|_2^2 <= |e|_K^2 and |y|_K^2 <= b |y|_2^2, the 2-norm error is at
    most 2 rho^k sqrt(kappa) |y|_2.  Needs finite 0 < a <= b.
    """
    a, b = scalar(a, "a"), scalar(b, "b")
    if not 0.0 < a <= b:
        raise InvalidArgumentError(f"need a spectral interval 0 < a <= b, got [{a}, {b}]")
    kappa = b / a
    rho = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
    if rho <= 0.0:
        return 1
    bound = math.log(CHEBYSHEV_TOL / (2.0 * math.sqrt(kappa))) / math.log(rho)
    return max(1, math.ceil(bound))


def _chebyshev_updates(a: float, b: float, k: int):
    """1/theta and the k - 1 update coefficients (alpha_j, beta_j) of k
    Chebyshev steps on [a, b], in the residual form of Saad (Iterative
    Methods for Sparse Linear Systems, Alg. 12.1): y = d = r / theta, then
    per update r <- r - K d, d <- alpha_j d + beta_j r, y <- y + d."""
    theta, delta = (a + b) / 2.0, (b - a) / 2.0
    updates, rho = [], delta / theta
    for _ in range(k - 1):
        rho_next = 1.0 / (2.0 * theta / delta - rho)
        updates.append((rho_next * rho, 2.0 / (2.0 * theta - delta * rho)))
        rho = rho_next
    return 1.0 / theta, updates


def _profile_fill(K: sp.csr_matrix) -> int:
    """Entries of the L + U factors of a symmetric K factored without
    pivoting in reverse Cuthill-McKee order: the envelope of each triangle
    plus the diagonal twice.  Every row of K must hold its diagonal."""
    order = reverse_cuthill_mckee(K, symmetric_mode=True)
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size, dtype=order.dtype)
    first = np.minimum.reduceat(pos[K.indices], K.indptr[:-1])
    return 2 * int(np.sum(pos - first, dtype=np.int64)) + 2 * K.shape[0]


def _chebyshev_pays(K: sp.csr_matrix, k: int) -> bool:
    """Whether k Chebyshev steps on the scaled node matrix K cost less per
    step than one SuperLU solve.

    The steps make k - 1 products, each reading nnz(K) entries.  The solve
    reads the L + U factors, estimated by `_profile_fill`: the
    minimum-degree ordering SuperLU takes filled no more on any model of
    the CFL sweep, and it is exact on the tridiagonal 1-D node matrices.
    Every call adds CALL_OVERHEAD_ENTRIES.
    """
    if k == 1:
        return True
    cost = (k - 1) * (K.nnz + CALL_OVERHEAD_ENTRIES)
    return cost <= _profile_fill(K) + CALL_OVERHEAD_ENTRIES


class MidpointStepper:
    """Implicit midpoint steps of one model at one step size dt (see the
    module docstring).  Raises StructureViolationError for a model outside
    the mixed structure.

    `node_solve` records the route of the node solve ("chebyshev" or
    "superlu"), its certified Chebyshev iteration count and the certified
    spectral interval [a, b] of the scaled node system.
    """

    def __init__(self, model: PHModel, dt: float):
        if scalar(dt, "dt") <= 0:
            raise InvalidArgumentError(f"dt must be positive, got {dt}")
        J_p, q_p, q_q = model.node_blocks()
        h = dt / 2.0
        n_p, n_q, n = model.n_p, model.n_q, model.n
        J_p_Q_q, coupling = node_coupling(J_p, q_q)
        del J_p
        B = model.B.tocsr()
        B_mid = B[:n_p] + h * (J_p_Q_q @ B[n_p:])
        # s = dt [J_p Q_q x_q + B_mid u; B_q u] from [x_q; u]
        self._from_xu = sp.vstack(
            [
                sp.hstack([J_p_Q_q, B_mid], format="csr"),
                sp.hstack([sp.csr_matrix((n_q, n_q)), B[n_p:]], format="csr"),
            ],
            format="csr",
        )
        del J_p_Q_q, B_mid
        self._from_xu.data *= dt
        # dt [-h J_p Q_q J_p^T z; J_q z] from z
        coupling.data *= -h
        self._from_z = sp.vstack([coupling, model.J.tocsr()[n_p:, :n_p]], format="csr")
        self._from_z.data *= dt
        # K = Q_p^-1 + h^2 J_p Q_q J_p^T in the memory of the coupling, then
        # K~ = W K W with W = diag(K)^-1/2; the step solves K~ y = W rhs
        # and takes z = W y
        K = coupling
        K.data *= -h
        K.setdiag(K.diagonal() + 1.0 / q_p)
        d = K.diagonal()
        self._w = 1.0 / np.sqrt(d)
        K.data *= np.repeat(self._w, np.diff(K.indptr))
        K.data *= self._w[K.indices]
        # spectrum of K~: above the scaled Q_p^-1 (the coupling is PSD),
        # below the largest Gershgorin row sum; [1, 1] when n_p = 0
        a = float(np.min((1.0 / q_p) / d, initial=1.0))
        b = float(np.add.reduceat(np.abs(K.data), K.indptr[:-1]).max(initial=1.0))
        k = chebyshev_iterations(a, b)
        if _chebyshev_pays(K, k):
            self._K = K
            self._inv_theta, self._updates = _chebyshev_updates(a, b, k)
            self._solve, route = self._chebyshev, "chebyshev"
        else:
            try:
                lu = spla.splu(sp.csc_matrix(K), permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as e:
                raise NumericalFailureError(f"midpoint node system: {e}") from e
            self._solve, route = lu.solve, "superlu"
        self.node_solve = {"route": route, "iterations": k, "interval": [a, b]}
        self._n_p, self._n, self._n_u = n_p, n, model.n_u
        # every product of a step runs `matvec` into these: the [x_q; u_mid]
        # gather, the Chebyshev vectors K~ d, beta res and d, and the z part
        self._xu = np.empty(n_q + model.n_u)
        self._Kd, self._beta_res, self._d = np.empty((3, n_p))
        self._dz = np.empty(n)

    def _chebyshev(self, r: np.ndarray) -> np.ndarray:
        """y with K~ y = r to CHEBYSHEV_TOL: k Chebyshev steps from y = 0
        (`_chebyshev_updates`).  r is overwritten by the residual."""
        y = r * self._inv_theta
        d, Kd, beta_res, res = self._d, self._Kd, self._beta_res, r
        d[:] = y
        for alpha, beta in self._updates:
            res -= matvec(self._K, d, Kd)
            d *= alpha
            d += np.multiply(res, beta, out=beta_res)
            y += d
        return y

    def step(self, x: np.ndarray, u_mid: np.ndarray) -> np.ndarray:
        """x_{k+1} from x_k with the input held at its midpoint value, as a
        new array.  The stepper computes in buffers it owns, so one stepper
        must not step from two threads at once."""
        if np.shape(x) != (self._n,) or np.shape(u_mid) != (self._n_u,):
            raise InvalidArgumentError(
                f"step takes x of shape ({self._n},) and u_mid of shape "
                f"({self._n_u},), got {np.shape(x)} and {np.shape(u_mid)}"
            )
        n_p = self._n_p
        xu = np.concatenate([x[n_p:], u_mid], out=self._xu)
        s = matvec(self._from_xu, xu, np.empty(self._n))
        r = 0.5 * s[:n_p]
        r += x[:n_p]
        r *= self._w
        y = self._solve(r)
        y *= self._w
        s += matvec(self._from_z, y, self._dz)
        s += x
        return s


def _require_finite_input(u: np.ndarray, times: np.ndarray) -> None:
    """InvalidArgumentError naming the first non-finite input sample."""
    bad = np.argwhere(~np.isfinite(u))
    if bad.size:
        k, port = bad[0]
        raise InvalidArgumentError(
            f"input sample {k} (t = {times[k]:.6g}) has non-finite value "
            f"{u[k, port]} on port {port}"
        )


def simulate(model: PHModel, cfg: SimConfig) -> Trajectory:
    """Integrate the model with one `MidpointStepper`, built once for the
    whole run, on the grid t_k = k dt.  The grid ends at the first multiple
    of dt at or past T (to a relative 1e-9), not at T: dt = 0.3 and T = 1
    give t = 0, 0.3, 0.6, 0.9, 1.2.

    `cfg.input` is None (zero input), a callable of t returning one value
    per port (sampled at the grid and midpoint times), or an array of
    grid samples, one row per time.  An input of the wrong shape or with
    a non-finite sample, and a non-finite x0, raise InvalidArgumentError
    before the first step.

    Outputs and energies cover every grid time; states only the steps
    `cfg.snapshot_times` selects (see `SimConfig`).  Each grid time's
    y = C Q x + D u is one product of [C Q | D] with [x; u], and its
    H_d = x . (q * x) / 2 with q the diagonal of Q.  A step count whose
    grid arrays cannot be allocated raises InvalidArgumentError.
    """
    cfg.validate()
    n_u = model.n_u
    try:
        n_steps = int(round(cfg.T / cfg.dt))
        if abs(n_steps * cfg.dt - cfg.T) > 1e-9 * max(1.0, cfg.T):
            n_steps = int(np.ceil(cfg.T / cfg.dt - 1e-12))
        ts = np.arange(n_steps + 1) * cfg.dt
        if cfg.input is None:
            u_grid = np.zeros((n_steps + 1, n_u))
            u_mid = np.zeros((n_steps, n_u))
        elif callable(cfg.input):
            t_half = np.empty(2 * n_steps + 1)
            u_half = np.empty((t_half.size, n_u))
    except (OverflowError, ValueError, MemoryError) as e:
        raise InvalidArgumentError(
            f"dt = {cfg.dt:g} and T = {cfg.T:g} give {cfg.T / cfg.dt:.4g} steps, "
            f"too many to allocate the time grid ({e})"
        ) from e

    if callable(cfg.input):
        # grid and midpoint times interleaved, so samples come in time order
        t_half[0::2], t_half[1::2] = ts, ts[:-1] + cfg.dt / 2.0
        for i, tk in enumerate(t_half):
            u = np.asarray(cfg.input(tk), dtype=float)
            if u.shape != (n_u,):
                raise InvalidArgumentError(
                    f"input at t = {tk:.6g} has shape {u.shape}, expected "
                    f"({n_u},) for the model's {n_u} ports"
                )
            u_half[i] = u
        _require_finite_input(u_half, t_half)
        u_grid, u_mid = u_half[0::2], u_half[1::2]
    elif cfg.input is not None:
        u_grid = np.asarray(cfg.input, dtype=float)
        if u_grid.shape != (n_steps + 1, n_u):
            raise InvalidArgumentError(
                f"sampled input has shape {u_grid.shape}, expected "
                f"({n_steps + 1}, {n_u}) for this grid"
            )
        _require_finite_input(u_grid, ts)
        u_mid = (u_grid[:-1] + u_grid[1:]) / 2.0

    x = np.zeros(model.n) if cfg.x0 is None else np.asarray(cfg.x0, dtype=float)
    if x.shape != (model.n,):
        raise InvalidArgumentError(
            f"x0 has shape {x.shape}, model expects ({model.n},)"
        )
    if not np.all(np.isfinite(x)):
        bad = int(np.flatnonzero(~np.isfinite(x))[0])
        raise InvalidArgumentError(f"x0 has non-finite entry {bad} = {x[bad]}")

    if cfg.snapshot_times is None:
        x_steps = np.arange(n_steps + 1)
    else:
        x_steps = np.unique(_grid_steps(cfg.snapshot_times, cfg.dt, n_steps))

    stepper = MidpointStepper(model, cfg.dt)
    ys = np.empty((n_steps + 1, n_u))
    energy = np.empty(n_steps + 1)
    row_of_step = np.full(n_steps + 1, -1)
    row_of_step[x_steps] = np.arange(x_steps.size)
    xs = np.empty((x_steps.size, model.n))
    q = model.Q.diagonal()
    # y = C Q x + D u in one product on [x; u], written into its row of ys
    output = sp.hstack([model.C @ model.Q, model.D], format="csr")
    xu = np.empty(model.n + n_u)

    def record(k: int, x: np.ndarray) -> float:
        matvec(output, np.concatenate([x, u_grid[k]], out=xu), ys[k])
        energy[k] = H = 0.5 * float(x @ (q * x))
        if row_of_step[k] >= 0:
            xs[row_of_step[k]] = x
        return H

    # an overflowing state is reported as a NumericalFailureError below,
    # an overflowing energy as inf, neither as a RuntimeWarning.  A finite
    # energy screens the state: with q > 0 it is finite only if x is, so
    # only a non-finite energy looks at x itself.
    with np.errstate(over="ignore", invalid="ignore"):
        record(0, x)
        for k in range(n_steps):
            x_next = stepper.step(x, u_mid[k])
            if not math.isfinite(record(k + 1, x_next)) and not np.all(np.isfinite(x_next)):
                raise NumericalFailureError(
                    f"non-finite state at step {k + 1} (t = {ts[k + 1]:.6g}); "
                    f"max |x| before failure {np.abs(x).max():.3e}"
                )
            x = x_next

    power = np.einsum("ij,ij->i", ys, u_grid)
    supplied = np.concatenate(
        [[0.0], np.cumsum((power[1:] + power[:-1]) * cfg.dt / 2.0)]
    )
    return Trajectory(ts, xs, x_steps, ys, energy, supplied, stepper.node_solve)


# ---------------------------------------------------------------------------
# 2D wave experiment


def corner_pulse(t: float) -> float:
    """Boundary excitation: one squared-sine arch, silent afterwards."""
    return float(np.sin(np.pi * t / 8.0) ** 2) if 0.0 <= t < 8.0 else 0.0


class WaveResult(NamedTuple):
    trajectory: Trajectory
    snapshots: dict
    model: PHModel


def wave2d_experiment(
    N: int,
    weights="set1",
    dt: float = 0.05,
    T: float = 18.0,
    snapshot_times: Sequence[float] = (0.0, 6.0, 12.0, 18.0),
) -> WaveResult:
    """Square-domain wave run: p-effort pulse at the corner node (0, 0),
    homogeneous q-efforts on every boundary edge.

    Snapshots are full nodal grids of the reconstructed effort field e~_p
    ((N+1) x (N+1), row-major in y), with the input value filling the
    driven corner.  The run keeps only the snapshot states; each snapshot
    time reads the row of its grid step (`SimConfig` checks the times before
    the build).  Of the built pipeline only the model and the effort and
    input node lists are kept through the run.  On the 20 x 20 domain the
    reference front is a circle with radius 14 at t = 18.
    """
    if scalar(N, "grid size N", integer=True) < 1:
        raise InvalidArgumentError(f"grid size N must be a positive integer, got {N}")
    snap_set = sorted(set(scalars(snapshot_times, "snapshot_times")))
    SimConfig(dt=dt, T=T, snapshot_times=snap_set).validate()
    h = 20.0 / N
    built = build_model(
        {
            "mesh": {"kind": "rect", "N": N, "M": N, "h": h},
            "causality": {"p_nodes": [0], "q_edges": "rest"},
            "weights": weights,
        }
    )
    model = built.model
    p_efforts, p_inputs = built.maps.P_ep.indices, built.maps.T_p_hat.indices
    del built

    def u_of_t(t: float) -> np.ndarray:
        u = np.zeros(model.n_u)
        u[0] = corner_pulse(t)
        return u

    cfg = SimConfig(dt=dt, T=T, input=u_of_t, snapshot_times=tuple(snap_set))
    traj = simulate(model, cfg)

    Q_p = model.Q[: model.n_p, : model.n_p]
    rows = np.searchsorted(traj.x_steps, _grid_steps(snap_set, dt, len(traj.t) - 1))
    snapshots = {}
    for t_snap, row in zip(snap_set, rows):
        e_p = Q_p @ traj.x[row, : model.n_p]
        grid = np.empty((N + 1) ** 2)
        grid[p_efforts] = e_p
        grid[p_inputs] = corner_pulse(traj.t[traj.x_steps[row]])
        snapshots[t_snap] = grid.reshape(N + 1, N + 1)
    return WaveResult(traj, snapshots, model)


def diagonal_front_radius(snapshot: np.ndarray, h: float) -> float:
    """Distance from the origin of the strongest effort along the main
    diagonal of the nodal grid (the wavefront location for a corner pulse):
    a non-empty square 2-D snapshot and a node spacing h > 0."""
    h, snapshot = scalar(h, "h"), np.asarray(snapshot)
    if h <= 0 or snapshot.ndim != 2 or snapshot.shape[0] != snapshot.shape[1] or not snapshot.size:
        raise InvalidArgumentError(
            f"need a non-empty square 2-D snapshot and h > 0, got shape {snapshot.shape}, h={h}"
        )
    diag = np.abs(np.diagonal(snapshot))
    i = int(np.argmax(diag))
    return float(i * h * np.sqrt(2.0))


# ---------------------------------------------------------------------------
# energy writer


def write_energy_csv(traj: Trajectory, path) -> pathlib.Path:
    """`energy.csv`: a t, H_d, E_supplied header, then one row per grid
    time, written row by row as `csv.writer` writes them (comma separated,
    `\\r\\n` line ends; no number needs quoting)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as f:
        f.write("t,H_d,E_supplied\r\n")
        f.writelines(
            f"{tk:.10g},{hk:.16e},{wk:.16e}\r\n"
            for tk, hk, wk in zip(traj.t, traj.energy, traj.supplied)
        )
    return path
