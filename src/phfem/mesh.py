"""Structured simplicial meshes and their incidence matrices.

Two mesh families are supported:

* 1D: a uniform subdivision of an interval (0, L) into N edges.  Edge i
  runs from node i to node i+1 (+x orientation).
* 2D: a uniform N x M grid of square cells of side h, each cell split into
  two right triangles by the cell diagonal.

2D numbering (all indices zero-based, row-major with i the x-index):

* nodes:       node(i, j) = j*(N+1) + i,   i = 0..N, j = 0..M
* horizontal edges: hor(i, j) = j*N + i,   i = 0..N-1, j = 0..M
  oriented tail node(i+1, j) -> head node(i, j)   (points in -x)
* vertical edges:   ver(i, j) = N*(M+1) + j*(N+1) + i
  oriented tail node(i, j) -> head node(i, j+1)   (points in +y)
* diagonal edges:   dia(i, j) = N*(M+1) + (N+1)*M + j*N + i
  oriented tail node(i+1, j+1) -> head node(i, j)
* faces: all lower triangles first (lower(i, j) = j*N + i, vertices
  (i,j), (i+1,j), (i+1,j+1)), then all upper triangles
  (upper(i, j) = N*M + j*N + i, vertices (i,j), (i+1,j+1), (i,j+1)).
  Both triangle families are oriented counterclockwise.

The incidence matrices are integer valued: d_q maps node values to oriented
edge differences (-1 at the tail, +1 at the head); d_p maps edge values to
oriented face boundary sums (sign +1 where the CCW face traversal agrees
with the edge orientation).  They satisfy d_p @ d_q == 0 exactly.

Model construction constructs a scipy matrix only for what it keeps, each
once, in final CSR form from index arrays (`csr`): the incidences, the map
set, Q, and J, B, C and D.  Its intermediates (the effort stacks, their
products, the resolved rows, the residuals' products) stay `CSRArrays`:
products run scipy's own CSR kernel (`product`) and transposes are read off
the arrays (`transposed`).  The structural checks run on the same kernels:
the power-preservation, skew-symmetry and collocation residuals are each
one compiled sparse sum (`max_abs_sum`), and the rank certificate's
elimination rounds are `product`s of arrays (`whitney.rank_mod_p`).
`tests/test_statespace.py::TestConstructionCount` bounds the constructions
that a build and the structure gate make.  The node coupling J_p Q_q J_p^T
(`statespace.node_coupling`, shared by the midpoint stepper and the
lowest-k spectrum) and the stepper's maps are composed with scipy's sparse
operators.  The midpoint loop's matrix-vector products run scipy's CSR
kernel through `matvec`, into buffers the loop owns.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .errors import InvalidArgumentError, fields, scalar, scalars

#: each rectangle side as a cut of a [j, i] id grid of `_id_grids`
_SIDES = {"bottom": np.s_[0], "right": np.s_[:, -1], "top": np.s_[-1], "left": np.s_[:, 0]}


class SimplexMesh(NamedTuple):
    """Immutable mesh container.

    dim         -- 1 or 2
    node_coords -- (n_nodes, dim) float array
    edges       -- (n_edges, 2) int array of (tail, head) node indices
    faces       -- (n_faces, 3) int array of edge indices per face (2D),
                   ordered along the CCW boundary traversal; None in 1D
    face_signs  -- (n_faces, 3) int array of +-1 traversal signs; None in 1D
    h           -- uniform mesh size (cell side in 2D, edge length in 1D)
    grid_shape  -- (N, M) cells in 2D, (N,) edges in 1D
    face_nodes  -- (n_faces, 3) int array of CCW vertex ids per face (2D);
                   None in 1D
    edge_class  -- (n_edges,) array of "h" / "v" / "d" per edge (2D); None
                   in 1D
    """

    dim: int
    node_coords: np.ndarray
    edges: np.ndarray
    faces: np.ndarray | None
    face_signs: np.ndarray | None
    h: float
    grid_shape: tuple
    face_nodes: np.ndarray | None = None
    edge_class: np.ndarray | None = None


class IncidencePair(NamedTuple):
    """Incidence matrices of the two discrete conservation laws.

    d_p -- faces x edges in 2D, edges x nodes in 1D (integer sparse)
    d_q -- edges x nodes (integer sparse)
    """

    d_p: sp.csr_matrix
    d_q: sp.csr_matrix


class BoundaryPartition(NamedTuple):
    """Disjoint causality sets on the mesh boundary, as flat int64 arrays.

    q_inputs -- boundary edge indices (2D) or boundary node indices (1D)
                whose efforts are imposed as inputs e^b: the q segments in
                the order given, each sorted
    p_inputs -- sorted boundary node indices whose efforts are imposed as
                inputs ehat^b
    """

    q_inputs: np.ndarray
    p_inputs: np.ndarray


# ---------------------------------------------------------------------------
# construction


def build_interval_mesh(N: int, L: float) -> SimplexMesh:
    """Uniform 1D mesh of (0, L) with N edges and N+1 nodes."""
    N, L = scalar(N, "N", integer=True), scalar(L, "L")
    if N < 1 or L <= 0:
        raise InvalidArgumentError(f"need N >= 1 edges of a length L > 0, got N={N}, L={L}")
    try:
        coords = np.linspace(0.0, L, N + 1).reshape(-1, 1)
        edges = np.column_stack([np.arange(N), np.arange(1, N + 1)])
    except (ValueError, MemoryError) as e:
        raise InvalidArgumentError(f"N={N} edges cannot be allocated: {e}") from e
    return SimplexMesh(1, coords, edges.astype(np.int64), None, None, L / N, (N,))


def build_rect_mesh(N: int, M: int, h: float) -> SimplexMesh:
    """Uniform N x M grid of square cells of side h, each split into two
    triangles by the cell diagonal (top-right to bottom-left)."""
    N, M, h = scalar(N, "N", integer=True), scalar(M, "M", integer=True), scalar(h, "h")
    if min(N, M) < 1 or h <= 0:
        raise InvalidArgumentError(f"need N, M >= 1 cells of side h > 0, got {N}x{M}, h={h}")
    try:
        ii, jj = np.meshgrid(np.arange(N + 1), np.arange(M + 1), indexing="xy")
        node, hor, ver, dia = _id_grids(N, M)
    except (ValueError, MemoryError) as e:
        raise InvalidArgumentError(f"an N={N} x M={M} grid cannot be allocated: {e}") from e
    coords = np.column_stack([ii.ravel() * h, jj.ravel() * h]).astype(float)

    def rows(*grids):
        return np.column_stack([g.ravel() for g in grids])

    edges = np.concatenate([
        rows(node[:, 1:], node[:, :-1]),
        rows(node[:-1, :], node[1:, :]),
        rows(node[1:, 1:], node[:-1, :-1]),
    ])
    edge_class = np.repeat(np.array(["h", "v", "d"]), [hor.size, ver.size, dia.size])

    # lower triangles first, then upper; CCW boundary traversal of each:
    # lower (i,j) -> (i+1,j) -> (i+1,j+1), upper (i,j) -> (i+1,j+1) -> (i,j+1)
    bot, top, left, right = hor[:-1], hor[1:], ver[:, :-1], ver[:, 1:]
    faces = np.concatenate([rows(bot, right, dia), rows(dia, top, left)])
    signs = np.repeat(np.array([[-1, 1, 1], [-1, 1, -1]], dtype=np.int64), N * M, axis=0)
    sw, se, ne, nw = node[:-1, :-1], node[:-1, 1:], node[1:, 1:], node[1:, :-1]
    face_nodes = np.concatenate([rows(sw, se, ne), rows(sw, ne, nw)])

    return SimplexMesh(
        2, coords, edges, faces, signs, h, (N, M), face_nodes, edge_class
    )


# ---------------------------------------------------------------------------
# index helpers


def _id_grids(N: int, M: int) -> tuple[np.ndarray, ...]:
    """Node, horizontal, vertical and diagonal edge ids of an N x M grid as
    [j, i] int64 grids, in the numbering of the module docstring."""
    n_hor, n_ver = N * (M + 1), (N + 1) * M
    node = np.arange((N + 1) * (M + 1), dtype=np.int64).reshape(M + 1, N + 1)
    hor = np.arange(n_hor, dtype=np.int64).reshape(M + 1, N)
    ver = n_hor + np.arange(n_ver, dtype=np.int64).reshape(M, N + 1)
    dia = n_hor + n_ver + np.arange(N * M, dtype=np.int64).reshape(M, N)
    return node, hor, ver, dia


def boundary_nodes(mesh: SimplexMesh) -> np.ndarray:
    if mesh.dim == 1:
        N = mesh.grid_shape[0]
        return np.array([0, N], dtype=np.int64)
    grids = _id_grids(*mesh.grid_shape)
    return np.unique(np.concatenate([_side(grids, s, edges=False) for s in _SIDES]))


def boundary_edges(mesh: SimplexMesh) -> np.ndarray:
    """2D boundary edge indices (bottom/top horizontals, left/right verticals)."""
    if mesh.dim == 1:
        raise InvalidArgumentError("boundary edges are a 2D notion")
    grids = _id_grids(*mesh.grid_shape)
    return np.sort(np.concatenate([_side(grids, s, edges=True) for s in _SIDES]))


def boundary_side_nodes(mesh: SimplexMesh, side: str) -> np.ndarray:
    """Node indices on one side of the 2D rectangle (corners included)."""
    return _side(_id_grids(*mesh.grid_shape), side, edges=False)


def boundary_side_edges(mesh: SimplexMesh, side: str) -> np.ndarray:
    """Edge indices along one side of the 2D rectangle."""
    return _side(_id_grids(*mesh.grid_shape), side, edges=True)


def _side(grids: tuple, side: str, edges: bool) -> np.ndarray:
    """One side's cut of the `_id_grids` node grid, or of the horizontal
    (bottom, top) or vertical (left, right) edge grid."""
    if not isinstance(side, str) or side not in _SIDES:
        raise InvalidArgumentError(f"unknown side {side!r}")
    node, hor, ver, _ = grids
    grid = (hor if side in ("bottom", "top") else ver) if edges else node
    return grid[_SIDES[side]]


# ---------------------------------------------------------------------------
# incidence


def incidence(mesh: SimplexMesh) -> IncidencePair:
    """Integer incidence matrices (exact; d_p @ d_q == 0).  In 1D both
    conservation laws differentiate node values along edges, so d_p is
    d_q itself."""
    n_nodes = mesh.node_coords.shape[0]
    d_q = _signed_rows(mesh.edges, np.array([-1, 1], dtype=np.int64), n_nodes)
    if mesh.dim == 1:
        return IncidencePair(d_q, d_q)
    return IncidencePair(_signed_rows(mesh.faces, mesh.face_signs, mesh.edges.shape[0]), d_q)


def _signed_rows(cols: np.ndarray, signs: np.ndarray, n_cols: int) -> sp.csr_matrix:
    """Canonical CSR matrix whose row i holds signs[i, k] in column
    cols[i, k] (signs broadcast against cols): each row's entries sorted by
    column."""
    order = np.argsort(cols, axis=1)
    n_rows, per_row = cols.shape
    return csr(
        np.take_along_axis(np.broadcast_to(signs, cols.shape), order, axis=1).ravel(),
        np.take_along_axis(cols, order, axis=1).ravel(),
        np.arange(0, n_rows * per_row + 1, per_row),
        (n_rows, n_cols),
    )


# ---------------------------------------------------------------------------
# CSR arrays, shared by every stage that builds a matrix


class CSRArrays(NamedTuple):
    """The arrays and shape of a CSR matrix, under scipy's attribute names:
    what the construction stages pass between the matrices they keep, so
    that an intermediate costs no scipy construction (and no format check).
    `csr(*arrays)` makes the matrix."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple


def csr(data, indices, indptr, shape: tuple) -> sp.csr_matrix:
    """The CSR matrix with these arrays, in one construction.  The index
    arrays are passed as int32, the type scipy keeps below 2**31 rows,
    columns and entries, so that scipy need not scan them to choose it."""
    index = np.int32 if max(*shape, len(data)) < 2**31 else np.int64
    return sp.csr_matrix(
        (data, np.asarray(indices, dtype=index), np.asarray(indptr, dtype=index)), shape=shape
    )


def transposed(A) -> CSRArrays:
    """The CSR arrays of A^T (A a CSR matrix or `CSRArrays`), with no
    construction, from the kernel of scipy's `tocsc`: A's entries grouped
    by column, each column's in storage order, so the rows come out sorted
    whether or not A's are."""
    (M, N), index = A.shape, np.promote_types(A.indptr.dtype, A.indices.dtype)
    indptr, indices = np.empty(N + 1, dtype=index), np.empty(len(A.data), dtype=index)
    data = np.empty_like(A.data)
    _sparsetools.csr_tocsc(
        M, N, A.indptr.astype(index, copy=False), A.indices.astype(index, copy=False), A.data,
        indptr, indices, data,
    )
    return CSRArrays(data, indices, indptr, (N, M))


def product(A, B) -> CSRArrays:
    """The arrays of A @ B (CSR matrices or `CSRArrays`) from the compiled
    kernel that scipy's product of two CSR matrices runs: the same entries,
    summed and stored in the same order (rows unsorted), without the copy
    of B and the construction of the result around that kernel.  The kernel
    reads B's rows at A's columns unchecked, so the shapes are checked here."""
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"product of a {A.shape} and a {B.shape} matrix")
    (M, _), N = A.shape, B.shape[1]
    index = np.int32 if max(M, N, len(A.data), len(B.data)) < 2**31 else np.int64
    arrays = [np.asarray(a, dtype=index) for a in (A.indptr, A.indices, B.indptr, B.indices)]
    nnz = _sparsetools.csr_matmat_maxnnz(M, N, *arrays)
    if nnz >= 2**31:
        index, arrays = np.int64, [a.astype(np.int64) for a in arrays]
    indptr, indices = np.empty(M + 1, dtype=index), np.empty(nnz, dtype=index)
    data = np.empty(nnz, dtype=np.result_type(A.data, B.data))
    a_ptr, a_idx, b_ptr, b_idx = arrays
    _sparsetools.csr_matmat(
        M, N, a_ptr, a_idx, A.data, b_ptr, b_idx, B.data, indptr, indices, data
    )
    return CSRArrays(data[: indptr[-1]], indices[: indptr[-1]], indptr, (M, N))


def matvec(A, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A @ x (A a CSR matrix or `CSRArrays`) into the float64 vector `out`,
    which is returned, from the compiled kernel that scipy's `A @ x` runs:
    `out` is zeroed, then each row's products are summed onto it in
    storage order, so the bits are those of `A @ x`, without scipy's
    dispatch and result allocation around that kernel.  The kernel reads x
    and writes out unchecked, so their lengths are checked here."""
    if x.shape != A.shape[1:] or out.shape != A.shape[:1]:
        raise ValueError(f"matvec of a {A.shape} matrix: x {x.shape}, out {out.shape}")
    out.fill(0.0)
    _sparsetools.csr_matvec(*A.shape, A.indptr, A.indices, A.data, x, out)
    return out


def kept(A, keep: np.ndarray) -> CSRArrays:
    """The arrays of A with only its entries where `keep` holds, each row's
    in storage order."""
    ends = np.concatenate([[0], np.cumsum(keep)])[A.indptr].astype(A.indptr.dtype)
    return CSRArrays(A.data[keep], A.indices[keep], ends, A.shape)


def sort_rows(A) -> None:
    """Sort each row of A's arrays by column, in place, with scipy's
    `sort_indices` kernel."""
    _sparsetools.csr_sort_indices(len(A.indptr) - 1, A.indptr, A.indices, A.data)


def max_abs_sum(A, B, sign: float = 1.0) -> float:
    """Max-abs entry of A + sign B^T (CSR matrices or `CSRArrays`, any
    patterns and row orders) from scipy's compiled sparse sum, `csr_plus_csr`
    (`csr_minus_csr` for sign < 0), which casts its inputs to the types of
    its outputs: each entry is the a + b or a - b that scipy's own sum
    stores.  The kernel reads both by A's rows unchecked, so the shapes are
    checked here.  An overflow gives inf, and inf - inf NaN, which the
    callers' `not residual <= tol` tests reject."""
    Bt, (M, N) = transposed(B), A.shape
    if Bt.shape != (M, N):
        raise ValueError(f"max_abs_sum of a {A.shape} and a transposed {B.shape} matrix")
    nnz = len(A.data) + len(Bt.data)
    index = np.result_type(A.indptr, A.indices, Bt.indices, np.int32 if nnz < 2**31 else np.int64)
    indptr, indices = np.empty(M + 1, dtype=index), np.empty(nnz, dtype=index)
    total = np.empty(nnz, dtype=np.result_type(A.data, Bt.data))
    kernel = _sparsetools.csr_minus_csr if sign < 0 else _sparsetools.csr_plus_csr
    kernel(
        M, N, A.indptr, A.indices, A.data, Bt.indptr, Bt.indices, Bt.data, indptr, indices, total
    )
    total = total[: indptr[-1]]
    return float(np.abs(total, out=total).max(initial=0.0))


# ---------------------------------------------------------------------------
# boundary causality partitions


def partition_boundary(mesh: SimplexMesh, causality: dict | None) -> BoundaryPartition:
    """Split the boundary into q-type segments (edge efforts imposed) and
    p-type segments (node efforts imposed).

    2D keys (all optional; any other key is rejected):
      "p_nodes"    -- list of boundary node indices
      "p_sides"    -- list of side names; their nodes become p-causal
      "q_edges"    -- "all" (default "rest"), or an explicit list of
                      boundary edge indices
      "q_segments" -- explicit list of edge-index lists (overrides q_edges)
      "q_sides"    -- list of side names whose edges must all end up q-type
                      inputs; a check on the partition the other keys
                      give, which it never changes

    A boundary edge may remain a q-type input while one of its endpoints is
    p-causal; only edges with BOTH endpoints p-causal drop out of the q-side
    (requesting such an edge explicitly is an overlap error).

    Every boundary edge needs a port: it is a q-type input, or both its
    endpoints are p-causal (otherwise the 2D flow-map equation has no
    solution).  So the q-type inputs are always the boundary edges that the
    p-causal nodes do not cover: "q_edges" and "q_sides" only assert that
    set, and "q_segments" orders it.

    1D accepts only the two-ended assignment {left node: q, right node: p},
    which is also the default for causality=None.
    """
    causality = {} if causality is None else causality
    if mesh.dim == 1:
        N = mesh.grid_shape[0]
        causality = fields(causality, "1D causality", ("q_nodes", "p_nodes"))
        q_nodes = scalars(causality.get("q_nodes", [0]), "causality key 'q_nodes'", True)
        p_nodes = scalars(causality.get("p_nodes", [N]), "causality key 'p_nodes'", True)
        if q_nodes != (0,) or p_nodes != (N,):
            raise InvalidArgumentError(
                "1D supports exactly the two-ended causality: q at node 0, "
                f"p at node {N}"
            )
        return BoundaryPartition(*np.array([[0], [N]], dtype=np.int64))

    known = ("p_nodes", "p_sides", "q_edges", "q_segments", "q_sides")
    causality = fields(causality, "causality", known)
    bnodes = set(boundary_nodes(mesh).tolist())
    bedges = set(boundary_edges(mesh).tolist())

    p_nodes = set(scalars(causality.get("p_nodes", []), "causality key 'p_nodes'", True))
    for side in _side_names(causality.get("p_sides", []), "p_sides"):
        p_nodes.update(boundary_side_nodes(mesh, side).tolist())
    bad = p_nodes - bnodes
    if bad:
        raise InvalidArgumentError(f"p-causal nodes not on the boundary: {sorted(bad)}")

    q_segments_spec = causality.get("q_segments")
    q_edges_spec = causality.get("q_edges", "rest")
    q_sides = _side_names(causality.get("q_sides", []), "q_sides")

    def covered(e: int) -> bool:
        t, hd = mesh.edges[e]
        return t in p_nodes and hd in p_nodes

    if q_segments_spec is not None:
        if not isinstance(q_segments_spec, (list, tuple)):
            raise InvalidArgumentError(
                "causality key 'q_segments' must be a list of edge lists, "
                f"got {q_segments_spec!r}"
            )
        q_inputs = [
            e for seg in q_segments_spec
            for e in sorted(scalars(seg, "causality key 'q_segments'", True))
        ]
    elif q_edges_spec == "rest":
        q_inputs = sorted(e for e in bedges if not covered(e))
    elif q_edges_spec == "all":
        q_inputs = sorted(bedges)
    else:
        q_inputs = sorted(scalars(q_edges_spec, "causality key 'q_edges'", True))

    seen: set[int] = set()
    for e in q_inputs:
        if e not in bedges:
            raise InvalidArgumentError(f"q-causal edge {e} is not a boundary edge")
        if e in seen:
            raise InvalidArgumentError(f"q-causal edge {e} listed twice")
        if covered(e):
            raise InvalidArgumentError(
                f"edge {e} has both endpoints p-causal; it cannot also "
                "carry a q-type input"
            )
        seen.add(e)
    for side in q_sides:
        for e in boundary_side_edges(mesh, side).tolist():
            if e not in seen:
                why = "both endpoints are p-causal" if covered(e) else "it is not listed"
                raise InvalidArgumentError(
                    f"q side {side!r}: edge {e} is not a q-type input ({why})"
                )
    for e in sorted(bedges - seen):
        if not covered(e):
            raise InvalidArgumentError(
                f"boundary edge {e} (nodes {mesh.edges[e, 0]}, {mesh.edges[e, 1]}) "
                "has no port: it is not a q-type input and its endpoints are not "
                "both p-causal"
            )

    return BoundaryPartition(
        np.array(q_inputs, dtype=np.int64), np.array(sorted(p_nodes), dtype=np.int64)
    )


def _side_names(value, key: str) -> list:
    """Rectangle side names given as a list of strings."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(x, str) for x in value):
        raise InvalidArgumentError(
            f"causality key {key!r} must be a list of side names, got {value!r}"
        )
    return list(value)
