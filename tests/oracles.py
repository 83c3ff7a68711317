"""Independent oracles used to validate the package's closed-form routines.

Everything in this file is deliberately built by a different route than the
library: numerical quadrature instead of closed-form integrals, physical
finite-volume indexing instead of algebraic map composition, dense matrix
exponentials instead of implicit stepping, a least-squares flow-map
solve instead of constructive stencils, the image representation (E, F) of
the Dirac structure instead of its resolved input-output form, dense
inverses and hand-placed blocks instead of the sparse state-space split,
the textbook energy and output formulas instead of the recorded series,
and dense row reduction mod p instead of rounds of sparse Schur updates.
`energy_defect` is the one helper that reads a trajectory's recorded
series: the power-balance defect the time-integration tests bound.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

# ---------------------------------------------------------------------------
# symmetric triangle quadrature, degree 4 (6 points)

_QA = 0.445948490915965
_QB = 0.091576213509771
_QWA = 0.223381589678011
_QWB = 0.109951743655322

#: barycentric points and weights; weights sum to 1 (multiply by the area)
TRI_QP = np.array(
    [
        [1 - 2 * _QA, _QA, _QA],
        [_QA, 1 - 2 * _QA, _QA],
        [_QA, _QA, 1 - 2 * _QA],
        [1 - 2 * _QB, _QB, _QB],
        [_QB, 1 - 2 * _QB, _QB],
        [_QB, _QB, 1 - 2 * _QB],
    ]
)
TRI_QW = np.array([_QWA, _QWA, _QWA, _QWB, _QWB, _QWB])

# 3-point Gauss-Legendre on [0, 1] (degree 5), for boundary traces
SEG_QP = np.array([0.5 - np.sqrt(0.15), 0.5, 0.5 + np.sqrt(0.15)])
SEG_QW = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


class TriangleFrame:
    """Barycentric calculus on one physical triangle (CCW vertices)."""

    def __init__(self, verts: np.ndarray):
        verts = np.asarray(verts, dtype=float)
        assert verts.shape == (3, 2)
        self.verts = verts
        # lam_l(x, y) = a x + b y + c : solve the 3x3 interpolation system
        A = np.column_stack([verts, np.ones(3)])
        self.coef = np.linalg.solve(A, np.eye(3))      # column l -> (a, b, c)
        self.grads = self.coef[:2].T                   # (3, 2)
        d = np.linalg.det(A)
        self.area = abs(d) / 2.0
        assert d > 0, "vertices must be CCW"

    def lam(self, xy: np.ndarray) -> np.ndarray:
        """Barycentric coordinates at points (n, 2) -> (n, 3)."""
        xy = np.atleast_2d(xy)
        return np.column_stack([xy, np.ones(len(xy))]) @ self.coef

    def qpoints(self) -> np.ndarray:
        return TRI_QP @ self.verts

    def integrate(self, fn) -> float:
        """Area integral of a scalar function of physical points."""
        vals = np.asarray([fn(p) for p in self.qpoints()], dtype=float)
        return float(self.area * (TRI_QW @ vals))

    # Whitney forms in LOCAL vertex numbering -------------------------------

    def w_node(self, l: int, xy) -> np.ndarray:
        return self.lam(xy)[:, l]

    def w_edge(self, t: int, h: int, xy) -> np.ndarray:
        """(n, 2) vector field lam_t grad lam_h - lam_h grad lam_t."""
        lam = self.lam(xy)
        return np.outer(lam[:, t], self.grads[h]) - np.outer(lam[:, h], self.grads[t])

    def w_face(self) -> float:
        """Constant density of the unit-integral face form."""
        return 1.0 / self.area

    def d_node(self, l: int) -> np.ndarray:
        return self.grads[l]

    def d_edge(self, t: int, h: int) -> float:
        """Constant 2-form density of d(w_edge)."""
        gt, gh = self.grads[t], self.grads[h]
        return 2.0 * (gt[0] * gh[1] - gt[1] * gh[0])


def local_edge_vertices(face_nodes: np.ndarray, tail: int, head: int) -> tuple:
    """Local vertex ids (0, 1, 2) of a global edge inside one face."""
    loc = {int(g): l for l, g in enumerate(face_nodes)}
    return loc[int(tail)], loc[int(head)]


def loop_assemble_2d(mesh):
    """The interior Galerkin pairings (M_p, M_q, K_p, K_q) of a 2D mesh as
    CSR matrices, built one face at a time with the closed-form entries
    and the same face-major entry order as the library (whose CSR arrays
    must equal these bit for bit)."""
    import scipy.sparse as sp

    def sigma(u, v):
        return 0 if u == v else (+1 if (v - u) % 3 == 1 else -1)

    mp, mq, kp, kq = [], [], [], []
    for f, (nodes, edges) in enumerate(zip(mesh.face_nodes, mesh.faces)):
        locs = [local_edge_vertices(nodes, *mesh.edges[e]) for e in edges]
        mp += [(i, f, 1.0 / 3.0) for i in nodes]
        for ej, (a, b) in zip(edges, locs):
            for el, (c, d) in zip(edges, locs):
                val = (
                    (2 if a == c else 1) * sigma(b, d)
                    - (2 if a == d else 1) * sigma(b, c)
                    - (2 if b == c else 1) * sigma(a, d)
                    + (2 if b == d else 1) * sigma(a, c)
                ) / 24.0
                if val != 0.0:
                    mq.append((ej, el, val))
        for i_loc, i_glob in enumerate(nodes):
            for el, (c, d) in zip(edges, locs):
                val = (sigma(i_loc, d) - sigma(i_loc, c)) / 6.0
                if val != 0.0:
                    kp.append((i_glob, el, -val))
        for ej, (a, b) in zip(edges, locs):
            kq += [(ej, i_glob, -sigma(a, b) / 3.0) for i_glob in nodes]

    n_nodes, n_edges, n_faces = (
        mesh.node_coords.shape[0], mesh.edges.shape[0], mesh.faces.shape[0]
    )

    def csr(triples, shape):
        rows, cols, vals = zip(*triples)
        return sp.csr_matrix((vals, (rows, cols)), shape=shape)

    return (
        csr(mp, (n_nodes, n_faces)),
        csr(mq, (n_edges, n_edges)),
        csr(kp, (n_nodes, n_edges)),
        csr(kq, (n_edges, n_nodes)),
    )


def quad_wedge_node_face(tri: TriangleFrame, l: int) -> float:
    """int w_node(l) ^ w_face over the triangle."""
    return tri.integrate(lambda p: tri.w_node(l, p)[0] * tri.w_face())


def quad_wedge_edge_edge(tri: TriangleFrame, e1: tuple, e2: tuple) -> float:
    """int w_edge(e1) ^ w_edge(e2); e = (tail, head) local vertex ids."""

    def f(p):
        a = tri.w_edge(*e1, p)[0]
        b = tri.w_edge(*e2, p)[0]
        return a[0] * b[1] - a[1] * b[0]

    return tri.integrate(f)


def quad_wedge_dnode_edge(tri: TriangleFrame, l: int, e: tuple) -> float:
    """int d(w_node(l)) ^ w_edge(e)."""
    g = tri.d_node(l)

    def f(p):
        b = tri.w_edge(*e, p)[0]
        return g[0] * b[1] - g[1] * b[0]

    return tri.integrate(f)


def quad_wedge_node_dedge(tri: TriangleFrame, l: int, e: tuple) -> float:
    """int w_node(l) * d(w_edge(e))."""
    dens = tri.d_edge(*e)
    return tri.integrate(lambda p: tri.w_node(l, p)[0] * dens)


def quad_boundary_trace(
    tri: TriangleFrame, node_l: int, e: tuple, seg: np.ndarray
) -> float:
    """int over the segment of (hat of node_l) * (tangential trace of
    w_edge(e)), traversing seg from seg[0] to seg[1]."""
    seg = np.asarray(seg, dtype=float)
    tang = seg[1] - seg[0]
    length = np.linalg.norm(tang)
    acc = 0.0
    for s, w in zip(SEG_QP, SEG_QW):
        p = seg[0] + s * tang
        hat = tri.w_node(node_l, p)[0]
        vec = tri.w_edge(*e, p)[0]
        acc += w * hat * float(vec @ tang)   # (w . t_hat) * length
    return acc


# ---------------------------------------------------------------------------
# pointwise evaluation of Whitney basis forms


def eval_whitney(mesh, kind: str, index: int, points) -> np.ndarray:
    """Evaluate one Whitney basis form of a mesh at physical points.

    kind  -- "node" (0-form, scalar), "edge" (1-form; (n, 2) vector in 2D,
             scalar density in 1D), "face" (2-form density, 2D only)
    Points outside the form's support evaluate to zero.  In 2D the
    containing triangle is found by a barycentric search over
    mesh.face_nodes, not from the grid numbering.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if mesh.dim == 1:
        x = pts[:, 0]
        if kind == "node":
            dist = np.abs(x - mesh.node_coords[index, 0])
            return np.clip(1.0 - dist / mesh.h, 0.0, None)
        if kind == "edge":
            x0, x1 = sorted(mesh.node_coords[mesh.edges[index], 0])
            return np.where((x >= x0) & (x <= x1), 1.0 / mesh.h, 0.0)
        raise ValueError(f"unknown 1D form kind {kind!r}")
    if kind not in ("node", "edge", "face"):
        raise ValueError(f"unknown 2D form kind {kind!r}")

    out = np.zeros((pts.shape[0], 2) if kind == "edge" else pts.shape[0])
    for k, p in enumerate(pts):
        for f, nodes in enumerate(mesh.face_nodes):
            tri = TriangleFrame(mesh.node_coords[nodes])
            lam = tri.lam(p)[0]
            if lam.min() >= -1e-12:
                break
        else:
            continue  # outside the domain
        if kind == "face":
            out[k] = tri.w_face() if f == index else 0.0
        elif kind == "node" and index in nodes:
            out[k] = lam[list(nodes).index(index)]
        elif kind == "edge" and index in mesh.faces[f]:
            t, hd = (list(nodes).index(v) for v in mesh.edges[index])
            out[k] = tri.w_edge(t, hd, p)[0]
    return out


# ---------------------------------------------------------------------------
# independent 1D staggered finite-volume model (alpha = 0 case)


def staggered_fv_1d(N: int, L: float = 1.0):
    """Two-field wave system on staggered control volumes.

    States: P_i = integral of p over cell [x_{i-1}, x_i] (i = 1..N) and
    Q_i = integral of q over the same cells.  Reconstructed efforts are
    collocated at the LEFT node for e^p and at the RIGHT node for e^q.
    Ports: u = [u_p (right end, value -e^p(L)), u_q (left end, e^q(0))],
    y = [e^q(L), e^p(0)].

    Returns dense (A, B, C, D) for dx/dt = Ax + Bu, y = Cx + Du.
    """
    h = L / N
    A = np.zeros((2 * N, 2 * N))
    B = np.zeros((2 * N, 2))
    C = np.zeros((2, 2 * N))
    D = np.zeros((2, 2))

    iP = lambda i: i - 1          # 1-based cell -> state index
    iQ = lambda i: N + i - 1

    for i in range(1, N + 1):
        # dP_i/dt = -(e^q(x_i) - e^q(x_{i-1}))
        A[iP(i), iQ(i)] -= 1.0 / h
        if i > 1:
            A[iP(i), iQ(i - 1)] += 1.0 / h
        else:
            B[iP(1), 1] += 1.0       # e^q(x_0) is the u_q input

        # dQ_i/dt = -(e^p(x_i) - e^p(x_{i-1})) with e^p(x_{i-1}) = P_i / h
        A[iQ(i), iP(i)] += 1.0 / h
        if i < N:
            A[iQ(i), iP(i + 1)] -= 1.0 / h
        else:
            B[iQ(N), 0] += 1.0       # e^p(x_N) = -u_p

    C[0, iQ(N)] = 1.0 / h            # y_p = e^q(L)
    C[1, iP(1)] = 1.0 / h            # y_q = e^p(0)
    return A, B, C, D


# ---------------------------------------------------------------------------
# dense matrix-exponential reference trajectory


def expm_trajectory(A: np.ndarray, B: np.ndarray, u_of_t, dt: float, n_steps: int, x0):
    """Exact propagation of dx/dt = A x + B u with u held constant at its
    midpoint value over each step (the same signal the midpoint integrator
    sees).  Returns the (n_steps+1, n) state history."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    xs = np.empty((n_steps + 1, n))
    xs[0] = np.asarray(x0, dtype=float)
    for k in range(n_steps):
        u = np.atleast_1d(u_of_t((k + 0.5) * dt))
        aug = np.zeros((n + 1, n + 1))
        aug[:n, :n] = A
        aug[:n, n] = B @ u
        phi = sla.expm(aug * dt)
        xs[k + 1] = phi[:n, :n] @ xs[k] + phi[:n, n]
    return xs


# ---------------------------------------------------------------------------
# dense rank over GF(p) (textbook row reduction)


def dense_rank_mod_p(a, p: int) -> int:
    """Rank of an integer array over GF(p), p < 2^31, by row reduction
    with row swaps and pivots normalized by Python's modular inverse, on the
    dense array (products of two residues stay below 2^62 in int64)."""
    a = np.array(a, dtype=np.int64) % p
    rank = 0
    for c in range(a.shape[1]):
        nz = np.flatnonzero(a[rank:, c])
        if not nz.size:
            continue
        k = rank + nz[0]
        a[[rank, k]] = a[[k, rank]]
        a[rank] = a[rank] * pow(int(a[rank, c]), -1, p) % p
        a[rank + 1 :] = (a[rank + 1 :] - np.outer(a[rank + 1 :, c], a[rank])) % p
        rank += 1
        if rank == a.shape[0]:
            break
    return rank


# ---------------------------------------------------------------------------
# least-squares flow-map solve (minimum-norm row solutions)


def minnorm_flow_map(d_q: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-Frobenius-norm X solving X @ d_q = rhs (row-wise min-norm).

    Raises if the system is inconsistent beyond 1e-10.
    """
    d_q = np.asarray(d_q, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    X = rhs @ np.linalg.pinv(d_q)
    resid = np.abs(X @ d_q - rhs).max()
    if resid > 1e-10:
        raise AssertionError(f"flow-map equation inconsistent: residual {resid:.3e}")
    return X


def range_projector(d_q: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto range(d_q) (the component of a row vector
    that influences products with d_q)."""
    d_q = np.asarray(d_q, dtype=float)
    return d_q @ np.linalg.pinv(d_q)


# ---------------------------------------------------------------------------
# image representation of the discrete Dirac structure


def image_rep(maps, inc) -> tuple:
    """(E, F) with E F^T + F E^T = 0 and F of full rank.

    Row blocks of E: reduced flows (p then q), then boundary outputs
    (p-type then q-type); column blocks: all node efforts, all edge
    efforts.  F holds the matching effort selections.
    """
    d_p = inc.d_p.astype(float)
    d_q = inc.d_q.astype(float)
    sgn = (-1.0) ** maps.r
    m_hat, m_b = maps.T_p_hat.shape[0], maps.T_q.shape[0]
    M_p, M_q = maps.P_ep.shape[1], maps.P_eq.shape[1]
    E = sp.bmat(
        [
            [None, sgn * (maps.P_fp @ d_p)],
            [maps.P_fq @ d_q, None],
            [sp.csr_matrix((m_hat, M_p)), maps.S_q_hat],
            [maps.S_p, sp.csr_matrix((m_b, M_q))],
        ],
        format="csr",
    )
    F = sp.bmat(
        [
            [maps.P_ep, None],
            [None, maps.P_eq],
            [maps.T_p_hat, sp.csr_matrix((m_hat, M_q))],
            [sp.csr_matrix((m_b, M_p)), maps.T_q],
        ],
        format="csr",
    )
    return E, F


def dirac_residual(E, F) -> float:
    """Max-abs entry of E F^T + F E^T."""
    S = sp.csr_matrix(E @ F.T + F @ E.T)
    return float(np.abs(S.data).max()) if S.nnz else 0.0


# ---------------------------------------------------------------------------
# state matrix, energy and output of a PH model


def state_matrix(model) -> sp.csr_matrix:
    """A = J Q of x' = A x + B u."""
    return (model.J @ model.Q).tocsr()


def hamiltonian(model, x) -> float:
    """H_d = x^T Q x / 2."""
    x = np.asarray(x, dtype=float)
    return 0.5 * float(x @ (model.Q @ x))


def output(model, x, u) -> np.ndarray:
    """y = C Q x + D u."""
    return model.C @ (model.Q @ x) + model.D @ u


def energy_defect(traj) -> np.ndarray:
    """|H_d(t) - H_d(0) - W(t)| of a `sim.Trajectory`, from its energy and
    supplied-energy series: O(dt^2) per unit time."""
    return np.abs(traj.energy - traj.energy[0] - traj.supplied)


# ---------------------------------------------------------------------------
# dense state-space assembly


def dense_model(maps, inc, hodge) -> dict:
    """J, Q, B, C and D as dense arrays: the flow and output rows of each
    law times the dense inverse of its stacked effort map, then sliced and
    placed block by block."""
    d_p, d_q = inc.d_p.toarray().astype(float), inc.d_q.toarray().astype(float)
    sgn = (-1.0) ** maps.r
    X_q = np.vstack([sgn * maps.P_fp.toarray() @ d_p, maps.S_q_hat.toarray()]) @ (
        np.linalg.inv(np.vstack([maps.P_eq.toarray(), maps.T_q.toarray()]))
    )
    X_p = np.vstack([maps.P_fq.toarray() @ d_q, maps.S_p.toarray()]) @ (
        np.linalg.inv(np.vstack([maps.P_ep.toarray(), maps.T_p_hat.toarray()]))
    )
    n_p, n_q = maps.P_fp.shape[0], maps.P_fq.shape[0]
    m_hat, m = maps.T_p_hat.shape[0], maps.T_q.shape[0]
    n, n_u = n_p + n_q, m_hat + m
    J, B = np.zeros((n, n)), np.zeros((n, n_u))
    C, D = np.zeros((n_u, n)), np.zeros((n_u, n_u))
    J[:n_p, n_p:], J[n_p:, :n_p] = -X_q[:n_p, :n_q], -X_p[:n_q, :n_p]
    B[:n_p, m_hat:], B[n_p:, :m_hat] = -X_q[:n_p, n_q:], -X_p[:n_q, n_p:]
    C[:m_hat, n_p:], C[m_hat:, :n_p] = X_q[n_p:, :n_q], X_p[n_q:, :n_p]
    D[:m_hat, m_hat:], D[m_hat:, :m_hat] = X_q[n_p:, n_q:], X_p[n_q:, n_p:]
    Q = np.diag(np.concatenate([hodge.q_p, hodge.q_q]))
    return {"J": J, "Q": Q, "B": B, "C": C, "D": D}
