"""Power-preserving reduction maps: boundary traces, effort selectors,
weighted flow maps, and boundary output matrices.

The continuous power balance survives discretization exactly when the maps
satisfy the matrix condition

    (-1)^r d_p^T P_fp^T P_ep + P_eq^T P_fq d_q + T_q^T S_p + S_q_hat^T T_p_hat = 0.

On 2D grids the flow maps are built constructively from per-triangle weight
stencils: each triangle distributes convex weights (alpha, beta, gamma) to
its vertices (class I for lower triangles, class II for upper ones), P_fp
collects them per node, and P_fq decomposes into a transverse part (gamma/2
and alpha/beta couplings across each triangle), a parallel part (entries on
the edge's own column), and a rotational part (delta/epsilon multiples of
cell boundary cycles, which lie in the row space of d_p and therefore never
affect the reduced dynamics).

Vertex weight placement per cell (i, j), in mesh numbering:

    lower triangle:  alpha_I -> (i, j)    gamma_I -> (i+1, j)    beta_I -> (i+1, j+1)
    upper triangle:  beta_II -> (i, j)    alpha_II -> (i+1, j+1) gamma_II -> (i, j+1)

i.e. along each triangle's CCW boundary the vertex where the diagonal
traversal ends gets alpha, where it starts gets beta, and the right-angle
vertex gets gamma.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import InvalidArgumentError, fields, scalar
from .mesh import BoundaryPartition, CSRArrays, IncidencePair, SimplexMesh, csr
from .mesh import max_abs_sum, product, sort_rows, transposed

RESIDUAL_TOL = 1e-12


class TriangleWeights(NamedTuple):
    """Convex vertex weights per triangle class (I = lower, II = upper)."""

    alpha_I: float
    beta_I: float
    gamma_I: float
    alpha_II: float
    beta_II: float
    gamma_II: float

    @property
    def delta_I(self) -> float:
        return 0.125 + (self.alpha_I - self.beta_I) / 4.0

    @property
    def delta_II(self) -> float:
        return 0.125 + (self.alpha_II - self.beta_II) / 4.0

    @property
    def eps_I(self) -> float:
        return 0.125 - (self.alpha_I - self.beta_I) / 4.0

    @property
    def eps_II(self) -> float:
        return 0.125 - (self.alpha_II - self.beta_II) / 4.0


def triangle_weights(
    alpha_I: float, beta_I: float, alpha_II: float, beta_II: float
) -> TriangleWeights:
    """Build weights with the gamma components derived from convexity."""
    alpha_I, beta_I = scalar(alpha_I, "alpha_I"), scalar(beta_I, "beta_I")
    alpha_II, beta_II = scalar(alpha_II, "alpha_II"), scalar(beta_II, "beta_II")
    gamma_I = 1.0 - alpha_I - beta_I
    gamma_II = 1.0 - alpha_II - beta_II
    for name, v in (
        ("alpha_I", alpha_I), ("beta_I", beta_I), ("gamma_I", gamma_I),
        ("alpha_II", alpha_II), ("beta_II", beta_II), ("gamma_II", gamma_II),
    ):
        if not (-1e-12 <= v <= 1 + 1e-12):
            raise InvalidArgumentError(
                f"weights must be convex: {name} = {v} is outside [0, 1]"
            )
    return TriangleWeights(alpha_I, beta_I, gamma_I, alpha_II, beta_II, gamma_II)


#: named parameter presets (alpha_I, beta_I, alpha_II, beta_II)
PRESETS = {
    "set1": (1 / 3, 1 / 3, 1 / 3, 1 / 3),
    "set2": (1 / 2, 1 / 4, 1 / 4, 1 / 2),
    "set3": (2 / 3, 1 / 12, 1 / 12, 2 / 3),
    "set4": (15 / 16, 1 / 32, 1 / 32, 15 / 16),
}


def weights_from_config(obj) -> TriangleWeights:
    """Accept {"preset": "set3"}, a preset name, or explicit
    {alpha_I, beta_I, alpha_II, beta_II} (gamma components derived); a
    preset mixed with explicit weights, or any other key, is rejected."""
    if isinstance(obj, str):
        obj = {"preset": obj}
    if not isinstance(obj, dict):
        raise InvalidArgumentError(
            f"weights must be a preset name or an object, got {obj!r}"
        )
    keys = ("preset",) if "preset" in obj else ("alpha_I", "beta_I", "alpha_II", "beta_II")
    obj = fields(obj, "weight config", keys)
    if "preset" in obj:
        name = obj["preset"]
        if not isinstance(name, str) or name not in PRESETS:
            raise InvalidArgumentError(
                f"unknown weight preset {name!r}; have {sorted(PRESETS)}"
            )
        return triangle_weights(*PRESETS[name])
    missing = [k for k in keys if k not in obj]
    if missing:
        raise InvalidArgumentError(f"weight config missing key {missing[0]!r}")
    return triangle_weights(*(obj[k] for k in keys))


class MapSet(NamedTuple):
    """Complete set of reduction maps for one mesh + causality + weights.

    Matrix shapes (M_* = unreduced counts, N~ = reduced counts, M_b/M_b_hat
    = numbers of q/p-type inputs):

      T_q (M_b x M_q), T_p_hat (M_b_hat x M_p) -- input trace selectors
      P_eq (N~_q x M_q), P_ep (N~_p x M_p)     -- effort selectors
      P_fp (N~_p x N_p), P_fq (N~_q x N_q)     -- flow maps
      S_p (M_b x M_p), S_q_hat (M_b_hat x M_q) -- boundary outputs
      perp (N~_q x N_q)                        -- transverse part of P_fq,
                                                  read by the 2D Hodge (None
                                                  in 1D)

    T_q, T_p_hat and the mixed models' P_eq, P_ep hold one entry per row, so
    their `.indices` is the entity list: the column (edge or node in 2D,
    node in 1D) each row selects.  The comparison scheme's P_eq/P_ep rows
    interpolate two nodes.
    """

    T_q: sp.csr_matrix
    T_p_hat: sp.csr_matrix
    P_eq: sp.csr_matrix
    P_ep: sp.csr_matrix
    P_fp: sp.csr_matrix
    P_fq: sp.csr_matrix
    S_p: sp.csr_matrix
    S_q_hat: sp.csr_matrix
    perp: sp.csr_matrix | None
    r: int


def _selector(rows: np.ndarray, n_cols: int, sign: float = 1.0) -> sp.csr_matrix:
    """One entry `sign` per row, row i's in column rows[i]."""
    n_rows = len(rows)
    return csr(np.full(n_rows, sign), rows, np.arange(n_rows + 1), (n_rows, n_cols))


def _two_per_row(cols, vals, n_cols: int) -> sp.csr_matrix:
    """Row i holds vals[2i] and vals[2i + 1] in columns cols[2i] and
    cols[2i + 1], stored as given (zeros included)."""
    n_rows = len(cols) // 2
    return csr(
        np.asarray(vals, dtype=float), cols, np.arange(0, len(cols) + 1, 2), (n_rows, n_cols)
    )


def _stack(top, bottom) -> CSRArrays:
    """The arrays of [top; bottom], from the two blocks' CSR arrays."""
    return CSRArrays(
        np.concatenate([top.data, bottom.data]),
        np.concatenate([top.indices, bottom.indices]),
        np.concatenate([top.indptr, bottom.indptr[1:] + top.indptr[-1]]),
        (top.shape[0] + bottom.shape[0], top.shape[1]),
    )


# ---------------------------------------------------------------------------
# 2D maps


def _build_Pfp_full(mesh: SimplexMesh, w: TriangleWeights) -> sp.csr_matrix:
    """All-node flow map (nodes x faces): per-face vertex weights, placed on
    the CCW vertices of each face (lower triangles first, then upper)."""
    n_nodes = mesh.node_coords.shape[0]
    n_faces = mesh.faces.shape[0]
    vals = np.repeat(
        [[w.alpha_I, w.gamma_I, w.beta_I], [w.beta_II, w.alpha_II, w.gamma_II]],
        n_faces // 2,
        axis=0,
    )
    cols = np.repeat(np.arange(n_faces), 3)
    return sp.csr_matrix(
        (vals.ravel(), (mesh.face_nodes.ravel(), cols)), shape=(n_nodes, n_faces)
    )


class EffortStacks(NamedTuple):
    """Each law's flow and output rows over its stacked effort map: the
    q-law pair F_q = [(-1)^r P_fp d_p; S_q_hat] over Pi_q = [P_eq; T_q] and
    the p-law pair F_p = [P_fq d_q; S_p] over Pi_p = [P_ep; T_p_hat], as
    CSR arrays (no matrix is constructed for them).  n_p and n_q are the
    rows of P_fp and P_fq, the reduced state sizes; the remaining rows of
    F_q and F_p are the p- and q-type outputs."""

    F_q: CSRArrays
    Pi_q: CSRArrays
    F_p: CSRArrays
    Pi_p: CSRArrays
    n_p: int
    n_q: int


def effort_stacks(maps: MapSet, inc: IncidencePair) -> EffortStacks:
    """The stacks `statespace.assemble_model` resolves (F Pi^{-1}).  A float
    map times an integer incidence is exact, and the sign (-1)^r scales the
    product's own values in place."""
    PdP = product(maps.P_fp, inc.d_p)
    PdP.data[:] *= (-1.0) ** maps.r
    return EffortStacks(
        _stack(PdP, maps.S_q_hat),
        _stack(maps.P_eq, maps.T_q),
        _stack(product(maps.P_fq, inc.d_q), maps.S_p),
        _stack(maps.P_ep, maps.T_p_hat),
        maps.P_fp.shape[0],
        maps.P_fq.shape[0],
    )


def power_residual(stacks: EffortStacks) -> float:
    """Max-abs entry of the power-preservation matrix condition, which in
    terms of the effort stacks reads Pi_q^T F_p + F_q^T Pi_p = 0: the
    entries of Pi_q^T F_p plus those of the transpose of Pi_p^T F_q, each
    product formed from the CSR arrays of a Pi^T, with no construction."""
    P = product(transposed(stacks.Pi_q), stacks.F_p)
    sort_rows(P)  # Rt^T comes out sorted
    return max_abs_sum(P, product(transposed(stacks.Pi_p), stacks.F_q))


def build_2d_maps(
    mesh: SimplexMesh,
    partition: BoundaryPartition,
    w: TriangleWeights,
    inc: IncidencePair,
) -> MapSet:
    """Assemble the complete 2D map set.

    The input traces T_q, T_p_hat and the complementary effort selectors
    P_eq, P_ep make [P_eq; T_q] and [P_ep; T_p_hat] permutations.  P_fp
    keeps the effort-node rows of the weighted vertex map.  P_fq solves the
    flow-map equation P_fq d_q = P_eq G (G = d_p^T applied to the all-node
    weighted vertex map) on all effort-node columns; the freedom in the row
    space of d_p is fixed by the canonical perp/parallel/rot stencils.  The
    equation is solvable because `mesh.partition_boundary` gives every
    boundary edge a port, and `sim.build_model` checks it as part of the
    power-preservation condition.
    """
    if mesh.dim != 2:
        raise InvalidArgumentError("build_2d_maps requires a 2D mesh")
    r = 3  # 2D wave setting (p, q) = (2, 1)
    n_edges = mesh.edges.shape[0]
    n_nodes = mesh.node_coords.shape[0]
    q_in, p_in = partition
    q_eff = np.setdiff1d(np.arange(n_edges), q_in)
    p_eff = np.setdiff1d(np.arange(n_nodes), p_in)
    T_q = _selector(q_in, n_edges)
    T_p_hat = _selector(p_in, n_nodes)
    P_eq = _selector(q_eff, n_edges)
    P_ep = _selector(p_eff, n_nodes)

    full_Pfp = _build_Pfp_full(mesh, w)
    # a float map times an integer incidence is exact
    G = -((-1.0) ** r) * (inc.d_p.T @ full_Pfp.T)  # edges x nodes
    S_p = (T_q @ G).tocsr()

    row_of = np.full(n_edges, -1, dtype=np.int32)
    row_of[q_eff] = np.arange(len(q_eff))

    def stencil(entries) -> sp.csr_matrix:
        """Sum the per-cell (row edge, column edge, value) entries over all
        cells, keeping the rows of effort edges (dropped before anything is
        concatenated).  Every matrix entry gathers at most two
        contributions, so the summation order cannot change it."""
        rows, cols, vals = [], [], []
        for row_edges, col_edges, value in entries:
            row = row_of[row_edges]
            keep = row >= 0
            rows.append(row[keep])
            cols.append(col_edges[keep])
            vals.append(np.full(len(rows[-1]), value))
        mat = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(len(q_eff), n_edges),
        )
        mat.eliminate_zeros()
        return mat

    # per cell: the lower face's edges are (bot, right, diag), the upper
    # face's (diag, top, left)
    n_cells = mesh.faces.shape[0] // 2
    faces = mesh.faces.astype(np.int32)
    bot, right, diag = faces[:n_cells].T
    top, left = faces[n_cells:, 1], faces[n_cells:, 2]
    # transverse couplings: lower triangle (class I), then upper (class II)
    perp = stencil([
        (bot, right, -w.beta_I),
        (right, bot, w.alpha_I),
        (diag, bot, -w.gamma_I / 2),
        (diag, right, -w.gamma_I / 2),
        (top, left, -w.beta_II),
        (left, top, w.alpha_II),
        (diag, top, -w.gamma_II / 2),
        (diag, left, -w.gamma_II / 2),
    ])
    par = stencil([
        (bot, bot, 0.5 - w.alpha_I),
        (right, right, w.beta_I - 0.5),
        (diag, diag, (w.alpha_I - w.beta_I) / 2),
        (top, top, 0.5 - w.alpha_II),
        (left, left, w.beta_II - 0.5),
        (diag, diag, (w.alpha_II - w.beta_II) / 2),
    ])
    # rotational cycle of the cell: -bot + right + top - left
    cycle = ((bot, -1.0), (right, +1.0), (top, +1.0), (left, -1.0))
    rot = stencil([
        (row_edge, col, coef * s)
        for row_edge, coef in (
            (right, w.delta_I),
            (left, -w.delta_II),
            (bot, w.eps_I),
            (top, -w.eps_II),
        )
        for col, s in cycle
    ])
    P_fq = (perp + par + rot).tocsr()

    # S_q_hat = -T_p_hat (d_q^T P_fq^T P_eq + S_p^T T_q), formed on the
    # p-input rows only: P_fq (d_q T_p_hat^T) sums each entry's terms in the
    # order P_fq d_q does, and the selectors copy entries exactly
    Y = P_fq @ (inc.d_q @ T_p_hat.T)
    S_q_hat = (-(Y.T @ P_eq + (T_p_hat @ S_p.T) @ T_q)).tocsr()
    return MapSet(
        T_q=T_q,
        T_p_hat=T_p_hat,
        P_eq=P_eq,
        P_ep=P_ep,
        P_fp=full_Pfp[p_eff],
        P_fq=P_fq,
        S_p=S_p,
        S_q_hat=S_q_hat,
        perp=perp,
        r=r,
    )


# ---------------------------------------------------------------------------
# 1D maps


def build_1d_maps(N: int, alpha: float) -> MapSet:
    """Upwinded 1D map set on an N-edge chain.

    alpha = 0 collocates the p effort at each edge's left node and the q
    effort at its right node (staggered placement); alpha = 1/2 is the
    centered symmetric choice.  alpha >= 1 is rejected: the associated
    Hodge weight 1/(1-alpha) degenerates.
    """
    N, alpha = scalar(N, "N", integer=True), scalar(alpha, "alpha")
    if N < 2:
        raise InvalidArgumentError(f"need N >= 2 edges, got {N}")
    if alpha >= 1:
        raise InvalidArgumentError(
            f"alpha must be < 1 (Hodge weight 1/(1-alpha) singular), got {alpha}"
        )
    n_nodes = N + 1

    T_q = _selector([0], n_nodes)
    T_p_hat = _selector([N], n_nodes, sign=-1.0)
    P_eq = _selector(np.arange(1, n_nodes), n_nodes)
    P_ep = _selector(np.arange(N), n_nodes)

    # upper-bidiagonal q flow map, 1 - alpha on the diagonal and alpha
    # above it; the p flow map is its transpose (zero weights not stored)
    pairs = np.repeat(np.arange(N), 2)
    P_fq = csr(
        np.tile([1.0 - alpha, alpha], N)[:-1],
        pairs[1:],
        np.append(np.arange(0, 2 * N, 2), 2 * N - 1),
        (N, N),
    )
    P_fq.eliminate_zeros()
    P_fp = csr(*transposed(P_fq))

    S_p = _two_per_row([0, 1], [1.0 - alpha, alpha], n_nodes)
    S_q_hat = _two_per_row([N - 1, N], [alpha, 1.0 - alpha], n_nodes)

    return MapSet(
        T_q=T_q,
        T_p_hat=T_p_hat,
        P_eq=P_eq,
        P_ep=P_ep,
        P_fp=P_fp,
        P_fq=P_fq,
        S_p=S_p,
        S_q_hat=S_q_hat,
        perp=None,
        r=2,
    )


def build_golo_1d_maps(N: int, alpha_prime: float) -> MapSet:
    """Comparison-scheme map set: identity flow maps + bidiagonal effort
    interpolation (the p effort on edge i weights node i with 1 - alpha'
    and node i + 1 with alpha', the q effort mirrors this).

    alpha' is accepted on (-1, 1); |alpha'| >= 1 makes the stacked effort
    map singular or meaningless.  Power preservation holds exactly: writing
    the effort rows out, the interior rows of d_p^T P_ep and P_eq^T d_q
    cancel pairwise and the two boundary leftovers -e_0 and +e_N are
    absorbed by S_p = e_0^T and S_q_hat = e_N^T through the trace terms.
    """
    N, alpha_prime = scalar(N, "N", integer=True), scalar(alpha_prime, "alpha_prime")
    if N < 2:
        raise InvalidArgumentError(f"need N >= 2 edges, got {N}")
    if not (-1.0 < alpha_prime < 1.0):
        raise InvalidArgumentError(
            f"alpha_prime must lie in (-1, 1), got {alpha_prime}"
        )
    a = alpha_prime
    n_nodes = N + 1
    eye = _selector(np.arange(N), N)
    cols = np.column_stack([np.arange(N), np.arange(1, n_nodes)]).ravel()
    P_ep = _two_per_row(cols, np.tile([1.0 - a, a], N), n_nodes)
    P_eq = _two_per_row(cols, np.tile([a, 1.0 - a], N), n_nodes)

    return MapSet(
        T_q=_selector([0], n_nodes),
        T_p_hat=_selector([N], n_nodes, sign=-1.0),
        P_eq=P_eq,
        P_ep=P_ep,
        P_fp=eye,
        P_fq=eye,
        S_p=_selector([0], n_nodes),
        S_q_hat=_selector([N], n_nodes),
        perp=None,
        r=2,
    )
