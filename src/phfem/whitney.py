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

Every entry is a small integer over a fixed denominator (thirds, 24ths,
halves, sixths), whatever h and the weights.  `verify_structure` uses this
for its rank table on every 2D grid: each matrix, the incidences d_p and
d_q included, is scaled to integers and its rank is certified exactly
modulo the prime 2^31 - 1 by sparse elimination in rounds of independent
pivots (`rank_mod_p`: about ten exact Schur updates per matrix), with no
array denser than a fixed multiple of the remaining nonzeros and no
singular-value threshold.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .mesh import IncidencePair, SimplexMesh, boundary_edges


class GalerkinMatrices(NamedTuple):
    """Assembled bilinear forms (scipy sparse, CSR).

    M_p -- phi^p x psi^p mass pairing (nodes x faces in 2D, nodes x edges 1D)
    M_q -- phi^q x psi^q mass pairing (edges x edges in 2D; skew)
    K_p, K_q -- exterior-derivative pairings (signs as in module docstring)
    L_p, L_q -- boundary pairings over the full boundary, L_p == L_q^T
    """

    M_p: sp.csr_matrix
    M_q: sp.csr_matrix
    K_p: sp.csr_matrix
    K_q: sp.csr_matrix
    L_p: sp.csr_matrix
    L_q: sp.csr_matrix


#: sign of dlam_u ^ dlam_v relative to dx^dy/(2A), CCW local order:
#: +1 when v follows u cyclically, -1 when it precedes it
_SIGMA = np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]], dtype=np.int64)


def assemble(mesh: SimplexMesh) -> GalerkinMatrices:
    """Assemble all Galerkin pairings for the given mesh."""
    if mesh.dim == 1:
        return _assemble_1d(mesh)
    return _assemble_2d(mesh)


def _triples(rows, cols, vals, shape):
    """CSR matrix from per-face index and value blocks (broadcast against
    each other), summed in face-major order; zero values are not stored."""
    rows, cols, vals = (x.ravel() for x in np.broadcast_arrays(rows, cols, vals))
    keep = vals != 0.0
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=shape)


def _assemble_2d(mesh):
    n_nodes = mesh.node_coords.shape[0]
    n_edges = mesh.edges.shape[0]
    n_faces = mesh.faces.shape[0]
    # sign factors at (p, q, r) = (2, 1, 3): K_p and K_q carry -1, L_p and
    # L_q carry +1

    nodes = mesh.face_nodes  # (F, 3) global vertex ids, CCW
    edges = mesh.faces  # (F, 3) global edge ids
    # local (tail, head) vertex ids (0, 1, 2) of the three edges of each face
    ends = mesh.edges[edges]  # (F, 3, 2)
    loc_a = np.argmax(nodes[:, None, :] == ends[:, :, 0, None], axis=2)
    loc_b = np.argmax(nodes[:, None, :] == ends[:, :, 1, None], axis=2)

    # M_p: int lam_i * (1/A) dA = 1/3 for each vertex of the face
    face_ids = np.arange(n_faces)[:, None]
    M_p = _triples(nodes, face_ids, np.array(1.0 / 3.0), (n_nodes, n_faces))

    # M_q: four-term barycentric expansion of w^ej ^ w^el, blocks [f, j, l]
    a, b = loc_a[:, :, None], loc_b[:, :, None]
    c, d = loc_a[:, None, :], loc_b[:, None, :]
    num = (
        (1 + (a == c)) * _SIGMA[b, d]
        - (1 + (a == d)) * _SIGMA[b, c]
        - (1 + (b == c)) * _SIGMA[a, d]
        + (1 + (b == d)) * _SIGMA[a, c]
    )
    M_q = _triples(edges[:, :, None], edges[:, None, :], num / 24.0, (n_edges, n_edges))

    # K_p: int dlam_i ^ w^el = (sigma(i,d) - sigma(i,c)) / 6, blocks [f, i, l]
    i_loc = np.arange(3)[None, :, None]
    num = _SIGMA[i_loc, d] - _SIGMA[i_loc, c]
    K_p = _triples(nodes[:, :, None], edges[:, None, :], -(num / 6.0), (n_nodes, n_edges))

    # K_q: int lam_i * d w^ej = sigma(a,b) / 3, blocks [f, j, i]
    s = _SIGMA[loc_a, loc_b][:, :, None]
    K_q = _triples(edges[:, :, None], nodes[:, None, :], -s / 3.0, (n_edges, n_nodes))

    # boundary pairings: the tangential trace of an edge form vanishes on
    # every boundary edge except its own, where it integrates to 1/2 against
    # either endpoint hat (signed by the induced CCW orientation).  Interior
    # edges appear in two faces with opposite traversal signs, so the summed
    # signs are +-1 exactly on the boundary: the orientation sign there.
    orientation = np.bincount(
        mesh.faces.ravel(), weights=mesh.face_signs.ravel(), minlength=n_edges
    )

    bedges = boundary_edges(mesh)
    vals = np.repeat(orientation[bedges] / 2.0, 2)
    L_p = sp.csr_matrix(
        (vals, (mesh.edges[bedges].ravel(), np.repeat(bedges, 2))),
        shape=(n_nodes, n_edges),
    )
    return GalerkinMatrices(M_p, M_q, K_p, K_q, L_p, L_p.T.tocsr())


def _assemble_1d(mesh):
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
    # tail test function and +1/2 for the head one, against both hats;
    # blocks [edge, i in (tail, head), j in (tail, head)]
    ends = mesh.edges
    K = sp.csr_matrix(
        (
            np.tile([-0.5, -0.5, 0.5, 0.5], n_edges),
            (np.repeat(ends.ravel(), 2), np.tile(ends, 2).ravel()),
        ),
        shape=(n_nodes, n_nodes),
    )

    # boundary pairing: minus the signed point evaluation (+ at x=L, - at x=0)
    L = sp.csr_matrix(([1.0, -1.0], ([0, N], [0, N])), shape=(n_nodes,) * 2)
    # in 1D both efforts are nodal, so the q-law pairings coincide with the
    # p-law ones entry for entry
    return GalerkinMatrices(M, M.copy(), K, K.copy(), L, L.T.tocsr())


# ---------------------------------------------------------------------------
# structure verification


#: prime modulus of the rank certificate, 2^31 - 1: a product of two
#: residues stays below 2^62, so elimination runs exactly in int64
RANK_PRIME = 2**31 - 1

#: largest distance of a scaled entry from its integer still read as
#: round-off (the entries are sums of a few O(1) terms, ~1e-16 off)
INTEGRAL_TOL = 1e-9

#: bits of the low limb in the Schur product: a limb times a residue is
#: below 2^(16 + 31), so a sum of up to 2^16 such terms stays below 2^63
_LIMB_BITS = 16
#: most pivots eliminated in one round: two limb terms each, so each sum
#: of the Schur product has at most 2^16 of them
_ROUND_PIVOTS = 2**15
#: the rounds stop once the nonzeros fill 1/_DENSE_SHARE of the remainder
_DENSE_SHARE = 5
#: priority contests per round: one among all candidates, then two more
#: among those that conflict with no winner yet
_LUBY_PASSES = 3


class StructureReport(NamedTuple):
    """Numerical residuals and rank checks of the assembled matrices.

    residuals -- max-abs defects of the factorization identities
    ranks     -- {name: (computed, expected)}, or None on a 1D mesh;
                 computed is -1 for a matrix that is not integral at its
                 known scale
    """

    residuals: dict
    ranks: dict | None


def _inverse_mod_p(d: np.ndarray) -> np.ndarray:
    """Elementwise inverse of nonzero residues (Montgomery's trick): one
    inverse of their product, times the product of all the others, from
    prefix and suffix products formed in log2(d.size) doubling steps."""
    p = RANK_PRIME
    pre, suf = d.copy(), d.copy()
    s = 1
    while s < d.size:
        pre[s:] = pre[s:] * pre[:-s] % p
        suf[:-s] = suf[:-s] * suf[s:] % p
        s *= 2
    others = np.concatenate([[1], pre[:-1]]) * np.concatenate([suf[1:], [1]]) % p
    return others * pow(int(pre[-1]), -1, p) % p


def _dense_rank_mod_p(a: np.ndarray) -> int:
    """Rank mod p of a dense array of residues, one column at a time over
    the shorter side."""
    if a.shape[1] > a.shape[0]:
        a = a.T
    p = RANK_PRIME
    rank = 0
    for c in range(a.shape[1]):
        nz = np.flatnonzero(a[:, c])
        if not nz.size:
            continue
        k, others = nz[0], nz[1:]
        # row_i <- a_kc row_i - a_ic row_k: scaling by the unit a_kc keeps
        # the rank, and both products stay below 2^62
        piv = a[k, c:]
        sub = a[others, c:]
        a[others, c:] = (sub * piv[0] - np.outer(sub[:, 0], piv)) % p
        a[k, c:] = 0  # row k is used up
        rank += 1
    return rank


def _compact(a: sp.csr_matrix) -> sp.csr_matrix:
    """The matrix without its zero entries and its empty rows and columns."""
    a.eliminate_zeros()
    live = np.diff(a.indptr) > 0
    used = np.bincount(a.indices, minlength=a.shape[1]) > 0
    col = np.cumsum(used, dtype=a.indices.dtype) - 1
    return sp.csr_matrix(
        (a.data, col[a.indices], np.concatenate([[0], a.indptr[1:][live]])),
        shape=(int(live.sum()), int(used.sum())),
    )


def _independent_pivots(a, row, rng) -> np.ndarray:
    """Positions (into a.data, in row order) of nonzeros no two of which
    share a row or column or meet at a nonzero: the pivot block is diagonal.

    Each row proposes its first entry of least Markowitz cost
    (r_deg - 1)(c_deg - 1); its key is that cost, ties broken by a random
    permutation of the rows, so keys are distinct.  Each column keeps the
    proposal of least key.  A candidate wins a contest when its key is below
    every candidate it conflicts with (an entry of A in its row at their
    column, or the reverse); winners and the candidates they conflict with
    leave, and the rest contest again (Luby, SIAM J. Comput. 1986).
    """
    m, n = a.shape
    r_deg = np.diff(a.indptr)
    cost = (r_deg - 1)[row] * (np.bincount(a.indices, minlength=n) - 1)[a.indices]
    least = np.minimum.reduceat(cost, a.indptr[:-1])
    hit = np.where(cost == least[row], np.arange(row.size), row.size)
    cand = np.minimum.reduceat(hit, a.indptr[:-1])  # one per row
    key = least * m + rng.permutation(m)
    col = a.indices[cand]
    best = np.full(n, np.iinfo(np.int64).max)
    np.minimum.at(best, col, key)
    alive = key == best[col]
    # conflicts between candidates: the (row, column) owners of each nonzero
    owner_col = np.full(n, -1)
    owner_col[col[alive]] = np.flatnonzero(alive)
    u = np.where(alive, np.arange(m), -1)[row]
    v = owner_col[a.indices]
    edge = (u >= 0) & (v >= 0) & (u != v)
    u, v = u[edge], v[edge]
    won = np.zeros(m, dtype=bool)
    for _ in range(_LUBY_PASSES):
        low = np.full(m, np.iinfo(np.int64).max)
        np.minimum.at(low, u, key[v])
        np.minimum.at(low, v, key[u])
        win = alive & (key < low)
        won |= win
        alive &= ~win
        alive[v[win[u]]] = False
        alive[u[win[v]]] = False
        if not alive.any():
            break
        live = alive[u] & alive[v]
        u, v = u[live], v[live]
    rows = np.flatnonzero(won)
    if rows.size > _ROUND_PIVOTS:
        rows = np.sort(rows[np.argsort(key[rows])[:_ROUND_PIVOTS]])
    return cand[rows]


def _schur_complement(a, row, piv) -> sp.csr_matrix:
    """A22 - A21 D^-1 A12 mod p for the diagonal pivot block D at piv, one
    sparse product of integer matrices, without zeros or empty rows/columns.

    With X = -D^-1 A12 mod p split into 16-bit limbs X_lo + 2^16 X_hi,

        A22 - A21 D^-1 A12 = [A21, 2^16 A21, A22] [X_lo; X_hi; I]   (mod p).

    An entry of that product sums two terms per pivot, each a residue
    times a limb, at most (2^31 - 2)(2^16 - 1) < 2^47 - 2^31, and one
    residue of A22: with at most 2^15 pivots (_ROUND_PIVOTS) the sum stays
    below 2^63, so int64 holds it exactly.
    """
    p = RANK_PRIME
    m, n = a.shape
    k = piv.size
    idx = a.indices.dtype  # scipy keeps index arrays of a's type uncopied
    in_piv_row = np.full(m, -1, dtype=idx)
    in_piv_row[row[piv]] = np.arange(k)  # increasing: pivots are in row order
    in_piv_col = np.full(n, -1, dtype=idx)
    in_piv_col[a.indices[piv]] = np.arange(k)
    pr, pc = in_piv_row[row], in_piv_col[a.indices]

    # right factor: X's rows in A12's order once per limb, I, an empty row
    a12 = (pr >= 0) & (pc < 0)
    x = a.data[a12] * (p - _inverse_mod_p(a.data[piv]))[pr[a12]] % p
    x_col = a.indices[a12]
    x_count = np.bincount(pr[a12], minlength=k)
    right = sp.csr_matrix(
        (
            np.concatenate([x & (2**_LIMB_BITS - 1), x >> _LIMB_BITS, np.ones(n, dtype=np.int64)]),
            np.concatenate([x_col, x_col, np.arange(n, dtype=idx)]),
            np.cumsum(np.concatenate([[0], x_count, x_count, np.ones(n, dtype=np.int64), [0]])),
        ),
        shape=(2 * k + n + 1, n),
    )
    # left factor in A's layout, two entries per nonzero A_ij: in A21, A_ij
    # and 2^16 A_ij at the limb columns c, k + c of its pivot c; in A22, A_ij
    # at column 2k + j; every other entry at the empty row 2k + n of right
    a21 = (pr < 0) & (pc >= 0)
    lo = np.where(pr >= 0, 2 * k + n, np.where(a21, pc, 2 * k + a.indices))
    hi = np.where(a21, pc + k, 2 * k + n)
    left = sp.csr_matrix(
        (
            np.column_stack([a.data, a.data * 2**_LIMB_BITS % p]).ravel(),
            np.column_stack([lo, hi]).ravel(),
            2 * a.indptr.astype(np.int64),
        ),
        shape=(m, 2 * k + n + 1),
    )
    del pr, pc, lo, hi, a12, a21, x, x_col  # before the product's peak
    out = left @ right
    out.data %= p
    return _compact(out)


def rank_mod_p(mat, scale: int) -> int:
    """Exact rank of scale * mat over GF(RANK_PRIME), or -1 when a scaled
    entry is not an integer.

    Elimination runs in rounds of independent pivots (Saad's ILUM, SIAM
    J. Sci. Comput. 1996).  Each round picks a set of nonzeros whose block
    is diagonal (`_independent_pivots`: least Markowitz cost per row and
    per column, then a fixed-seed priority contest), adds its size to the
    rank and replaces the matrix by the Schur complement A22 - A21 D^-1 A12
    mod p, one sparse product kept without zero entries or empty rows and
    columns (`_schur_complement`).  The rounds stop once the nonzeros fill
    at least 1/5 of the remaining rows x columns; a dense elimination mod p
    finishes that remainder.  So no array is denser than five times the
    remaining nonzeros, and the Whitney matrices take about ten rounds.

    Termination: keys are distinct, so the candidate of least key wins its
    contest, and every round eliminates at least one pivot.  Exactness:
    all arithmetic is on residues in int64.  Products of two residues stay
    below 2^62; the Schur product splits one factor into 16-bit limbs, so
    each term is below 2^47, and with at most 2^15 pivots a round each sum
    has at most 2^16 of them and stays below 2^63.

    For an integer matrix A, rank_p(A) <= rank_Q(A), with equality unless
    p divides every maximal nonzero minor of A: a wrong answer can only
    be too low, never too high.
    """
    a = sp.csr_matrix(mat, dtype=float, copy=True)
    a.sum_duplicates()
    scaled = a.data * scale
    ints = np.rint(scaled)
    if not np.all(np.abs(scaled - ints) <= INTEGRAL_TOL):
        return -1
    a.data = ints.astype(np.int64) % RANK_PRIME
    a = _compact(a)
    rng = np.random.default_rng(0)
    rank = 0
    while a.nnz:
        if _DENSE_SHARE * a.nnz >= a.shape[0] * a.shape[1]:
            return rank + _dense_rank_mod_p(a.toarray())
        row = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
        piv = _independent_pivots(a, row, rng)
        rank += piv.size
        a = _schur_complement(a, row, piv)
    return rank


def verify_structure(
    mesh: SimplexMesh, g: GalerkinMatrices, inc: IncidencePair
) -> StructureReport:
    """Check the factorization identities and the rank table.

    The rank table runs on every 2D grid, whatever its shape or size.  Each
    rank is an exact certificate (`rank_mod_p`): the matrix is scaled by
    its known denominator (1 for the incidences), must be integral there,
    and is reduced mod RANK_PRIME by sparse elimination; only a remainder
    at least 1/5 full is made dense, and no singular-value threshold is
    involved.  It is at least as strict as a floating-point rank: a
    non-integral entry reports -1, and a rank mod p can differ from the
    rank over the rationals only by being lower (when p divides every
    maximal minor), which on a correct matrix is a mismatch -- the gate
    fails closed.  Never raises on failure -- callers compare the report
    against their own gate (the CLI turns failures into exit code 1).
    """

    def maxabs(mat) -> float:
        mat = sp.csr_matrix(mat)
        return float(np.abs(mat.data).max()) if mat.nnz else 0.0

    sgn = 1 if mesh.dim == 2 else -1  # -(-1)^r
    kl_p, kl_q = g.K_p + g.L_p, g.K_q + g.L_q
    residuals = {
        "kp_factorization": maxabs(kl_p - sgn * (g.M_p @ inc.d_p)),
        "kq_factorization": maxabs(kl_q + g.M_q @ inc.d_q),
        "lp_lq_transpose": maxabs(g.L_p - g.L_q.T),
        "summation_by_parts": maxabs(kl_p + kl_q.T - g.L_p),
    }
    if mesh.dim == 1:
        return StructureReport(residuals, None)
    # the composite d_p d_q exists only with two derivatives
    residuals["dp_dq"] = maxabs(inc.d_p @ inc.d_q)

    n_nodes = g.M_p.shape[0]
    N, M = mesh.grid_shape
    # name: (matrix, scale, expected rank).  The entries do not depend on
    # h or the weights: M_p holds thirds, M_q 24ths, L_p halves, K + L
    # sixths and the incidences +-1 (totally unimodular, so their rank
    # mod p is their rank over the rationals).
    table = {
        "M_p": (g.M_p, 3, n_nodes - 2),
        "M_q": (g.M_q, 24, 2 * (n_nodes - 2)),
        "L_p": (g.L_p, 2, 2 * (N + M) - 1),
        "K_p+L_p": (kl_p, 6, n_nodes - 2),
        "K_q+L_q": (kl_q, 6, n_nodes - 1),
        "d_p": (inc.d_p, 1, 2 * N * M),
        "d_q": (inc.d_q, 1, n_nodes - 1),
    }
    ranks = {
        name: (rank_mod_p(mat, scale), want)
        for name, (mat, scale, want) in table.items()
    }
    return StructureReport(residuals, ranks)
