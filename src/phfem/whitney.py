"""Whitney-form Galerkin matrices for the mixed discretization.

Flows are expanded in the "solution" bases psi (face forms for the p law,
edge forms for the q law in 2D; edge forms for both laws in 1D); efforts and
test functions use the "trial" bases phi (node forms for e^p, edge forms for
e^q in 2D; node forms for both efforts in 1D).

All element integrals are evaluated in closed form from barycentric calculus
on a single triangle (area A, CCW vertex order 0,1,2):

    int_T  lam_0^a lam_1^b lam_2^c dA = a! b! c! / (a+b+c+2)! * 2A
    dlam_u ^ dlam_v = sigma_uv / (2A) dx^dy,  sigma cyclic(+1)/anticyclic(-1)

which makes the assembly exact up to roundoff (no quadrature).  Matrix
conventions (curly-bracket sign factors depend on the form degrees; the
mesh dimension fixes them, with (p, q, r) = (2, 1, 3) in 2D and (1, 1, 2)
in 1D, r = p*q + 1):

    M_p[i,k] =  <phi^p_i ^ psi^p_k>
    M_q[j,l] =  <phi^q_j ^ psi^q_l>
    K_p[i,l] = -(-1)^(r+q) <d phi^p_i ^ phi^q_l>
    K_q[j,i] = -(-1)^p     <d phi^q_j ^ phi^p_i>
    L_p[i,j] =  (-1)^(r+q) <phi^p_i | tr phi^q_j>_boundary
    L_q[j,i] =  (-1)^p     <phi^q_j | tr phi^p_i>_boundary

With these signs the exterior-derivative factorizations

    K_p + L_p = -(-1)^r M_p d_p        K_q + L_q = -M_q d_q

hold exactly, as does the summation-by-parts identity
(K_p + L_p) + (K_q + L_q)^T = L_p.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .mesh import (
    BoundaryPartition,
    IncidencePair,
    SimplexMesh,
    boundary_edges,
    q_input_edges,
)


class GalerkinMatrices(NamedTuple):
    """Assembled bilinear forms (scipy sparse, CSR).

    M_p -- phi^p x psi^p mass pairing (nodes x faces in 2D, nodes x edges 1D)
    M_q -- phi^q x psi^q mass pairing (edges x edges in 2D; skew)
    K_p, K_q -- exterior-derivative pairings (signs as in module docstring)
    L_q_segments -- one boundary pairing per q-type segment
    L_p_hat_segments -- one boundary pairing per p-type segment
    L_p, L_q -- boundary pairings over the full boundary, L_p == L_q^T
    """

    M_p: sp.csr_matrix
    M_q: sp.csr_matrix
    K_p: sp.csr_matrix
    K_q: sp.csr_matrix
    L_q_segments: tuple
    L_p_hat_segments: tuple
    L_p: sp.csr_matrix
    L_q: sp.csr_matrix


def _sigma(u: int, v: int) -> int:
    """Sign of dlam_u ^ dlam_v relative to dx^dy/(2A), CCW local order."""
    if u == v:
        return 0
    return +1 if (v - u) % 3 == 1 else -1


def _local_edge_vertices(face_nodes: np.ndarray, tail: int, head: int) -> tuple:
    """Local vertex ids (0,1,2) of a global edge inside one face."""
    loc = {g: l for l, g in enumerate(face_nodes)}
    return loc[int(tail)], loc[int(head)]


def assemble(mesh: SimplexMesh, partition: BoundaryPartition) -> GalerkinMatrices:
    """Assemble all Galerkin pairings for the given mesh and causality split."""
    if mesh.dim == 1:
        return _assemble_1d(mesh, partition)
    return _assemble_2d(mesh, partition)


def _assemble_2d(mesh, partition):
    n_nodes = mesh.node_coords.shape[0]
    n_edges = mesh.edges.shape[0]
    n_faces = mesh.faces.shape[0]
    # sign factors at (p, q, r) = (2, 1, 3): K_p and K_q carry -1, L_p and
    # L_q carry +1

    mp_r, mp_c, mp_v = [], [], []
    mq_r, mq_c, mq_v = [], [], []
    kp_r, kp_c, kp_v = [], [], []
    kq_r, kq_c, kq_v = [], [], []

    for f in range(n_faces):
        nodes = mesh.face_nodes[f]
        edges = mesh.faces[f]
        # local (tail, head) vertex ids of the three edges of this face
        locs = [_local_edge_vertices(nodes, *mesh.edges[e]) for e in edges]

        # M_p: int lam_i * (1/A) dA = 1/3 for each vertex of the face
        for i in nodes:
            mp_r.append(i)
            mp_c.append(f)
            mp_v.append(1.0 / 3.0)

        # M_q: four-term barycentric expansion of w^ej ^ w^el
        for ej, (a, b) in zip(edges, locs):
            for el, (c, d) in zip(edges, locs):
                val = (
                    (2 if a == c else 1) * _sigma(b, d)
                    - (2 if a == d else 1) * _sigma(b, c)
                    - (2 if b == c else 1) * _sigma(a, d)
                    + (2 if b == d else 1) * _sigma(a, c)
                ) / 24.0
                if val != 0.0:
                    mq_r.append(ej)
                    mq_c.append(el)
                    mq_v.append(val)

        # K_p: int dlam_i ^ w^el = (sigma(i,d) - sigma(i,c)) / 6
        for i_loc, i_glob in enumerate(nodes):
            for el, (c, d) in zip(edges, locs):
                val = (_sigma(i_loc, d) - _sigma(i_loc, c)) / 6.0
                if val != 0.0:
                    kp_r.append(i_glob)
                    kp_c.append(el)
                    kp_v.append(-val)

        # K_q: int lam_i * d w^ej = sigma(a,b) / 3
        for ej, (a, b) in zip(edges, locs):
            s = _sigma(a, b)
            for i_glob in nodes:
                kq_r.append(ej)
                kq_c.append(i_glob)
                kq_v.append(-s / 3.0)

    M_p = sp.csr_matrix((mp_v, (mp_r, mp_c)), shape=(n_nodes, n_faces))
    M_q = sp.csr_matrix((mq_v, (mq_r, mq_c)), shape=(n_edges, n_edges))
    K_p = sp.csr_matrix((kp_v, (kp_r, kp_c)), shape=(n_nodes, n_edges))
    K_q = sp.csr_matrix((kq_v, (kq_r, kq_c)), shape=(n_edges, n_nodes))

    # boundary pairings: the tangential trace of an edge form vanishes on
    # every boundary edge except its own, where it integrates to 1/2 against
    # either endpoint hat (signed by the induced CCW orientation).  Interior
    # edges appear in two faces with opposite traversal signs, so the summed
    # signs are +-1 exactly on the boundary: the orientation sign there.
    orientation = np.bincount(
        mesh.faces.ravel(), weights=mesh.face_signs.ravel(), minlength=n_edges
    )

    def edge_pairing(edge_list):
        e = np.asarray(edge_list, dtype=np.int64)
        vals = np.repeat(orientation[e] / 2.0, 2)
        return sp.csr_matrix(
            (vals, (mesh.edges[e].ravel(), np.repeat(e, 2))), shape=(n_nodes, n_edges)
        )

    all_bedges = boundary_edges(mesh)
    pairing_full = edge_pairing(all_bedges)

    q_edges = set(q_input_edges(partition).tolist())
    hat_edges = [e for e in all_bedges.tolist() if e not in q_edges]

    L_q_segments = tuple(edge_pairing(seg).T.tocsr() for seg in partition.q_segments)
    L_p_hat_segments = (edge_pairing(hat_edges),) if hat_edges else tuple()
    L_p = pairing_full.tocsr()
    L_q = pairing_full.T.tocsr()
    return GalerkinMatrices(M_p, M_q, K_p, K_q, L_q_segments, L_p_hat_segments, L_p, L_q)


def _assemble_1d(mesh, partition):
    N = mesh.grid_shape[0]
    n_nodes, n_edges = N + 1, N
    # sign factors at (p, q, r) = (1, 1, 2): K carries +1, L carries -1

    # mass pairing: int hat_i * (1/h on edge k) dx = 1/2 per endpoint
    rows = np.repeat(np.arange(n_edges), 2)
    cols = mesh.edges.ravel()
    M = sp.csr_matrix(
        (np.full(2 * n_edges, 0.5), (cols, rows)), shape=(n_nodes, n_edges)
    )

    # derivative pairing: int hat_j * dhat_i over each edge is -1/2 for the
    # tail test function and +1/2 for the head one, against both hats
    kr, kc, kv = [], [], []
    for t, hd in mesh.edges:
        for i, si in ((t, -0.5), (hd, +0.5)):
            for j in (t, hd):
                kr.append(int(i))
                kc.append(int(j))
                kv.append(si)
    K = sp.csr_matrix((kv, (kr, kc)), shape=(n_nodes, n_nodes))

    # boundary pairing: signed point evaluation (+ at x=L, - at x=0)
    def point_pairing(node_list):
        rows, cols, vals = [], [], []
        for nd in node_list:
            s = +1.0 if nd == N else -1.0
            rows.append(int(nd))
            cols.append(int(nd))
            vals.append(s)
        return sp.csr_matrix((vals, (rows, cols)), shape=(n_nodes, n_nodes))

    L_full = -point_pairing([0, N])
    L_q_segments = tuple(
        (-point_pairing(seg)).T.tocsr() for seg in partition.q_segments
    )
    L_p_hat_segments = tuple(-point_pairing(seg) for seg in partition.p_segments)
    # in 1D both efforts are nodal, so the q-law pairings coincide with the
    # p-law ones entry for entry
    return GalerkinMatrices(
        M, M.copy(), K, K.copy(), L_q_segments, L_p_hat_segments,
        L_full.tocsr(), L_full.T.tocsr(),
    )


# ---------------------------------------------------------------------------
# structure verification


class StructureReport(NamedTuple):
    """Numerical residuals and rank checks of the assembled matrices.

    residuals -- max-abs defects of the factorization identities
    ranks     -- {name: (computed, expected)} or None when not applicable
    """

    residuals: dict
    ranks: dict | None


def verify_structure(
    mesh: SimplexMesh, g: GalerkinMatrices, inc: IncidencePair
) -> StructureReport:
    """Check the factorization identities and the rank table.

    The rank table runs on 2D grids with at most 3000 nodes and
    min(N, M) > 2 (N, M read from mesh.grid_shape).  Never raises on
    failure -- callers compare the report against their own gate (the CLI
    turns failures into exit code 1).
    """

    def maxabs(mat) -> float:
        mat = sp.csr_matrix(mat)
        return float(np.abs(mat.data).max()) if mat.nnz else 0.0

    d_p = inc.d_p.astype(float)
    d_q = inc.d_q.astype(float)
    sgn = 1 if mesh.dim == 2 else -1  # -(-1)^r
    residuals = {
        "kp_factorization": maxabs(g.K_p + g.L_p - sgn * (g.M_p @ d_p)),
        "kq_factorization": maxabs(g.K_q + g.L_q + g.M_q @ d_q),
        "lp_lq_transpose": maxabs(g.L_p - g.L_q.T),
        "summation_by_parts": maxabs((g.K_p + g.L_p) + (g.K_q + g.L_q).T - g.L_p),
    }
    if mesh.dim == 1:
        return StructureReport(residuals, None)
    # the composite d_p d_q exists only with two derivatives
    residuals["dp_dq"] = maxabs(inc.d_p @ inc.d_q)

    n_nodes = g.M_p.shape[0]
    N, M = mesh.grid_shape
    if n_nodes > 3000 or min(N, M) <= 2:
        return StructureReport(residuals, None)

    def rank(mat) -> int:
        return int(np.linalg.matrix_rank(mat.toarray().astype(float)))

    ranks = {
        "M_p": (rank(g.M_p), n_nodes - 2),
        "M_q": (rank(g.M_q), 2 * (n_nodes - 2)),
        "L_p": (rank(g.L_p), 2 * (N + M) - 1),
        "K_p+L_p": (rank(g.K_p + g.L_p), n_nodes - 2),
        "K_q+L_q": (rank(g.K_q + g.L_q), n_nodes - 1),
        "d_p": (rank(inc.d_p), g.M_p.shape[1]),
        "d_q": (rank(inc.d_q), n_nodes - 1),
    }
    return StructureReport(residuals, ranks)
