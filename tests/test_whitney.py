import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from phfem import mesh as msh
from phfem import whitney as wh

from oracles import (
    TriangleFrame,
    dense_rank_mod_p,
    eval_whitney,
    local_edge_vertices,
    loop_assemble_2d,
    quad_boundary_trace,
    quad_wedge_dnode_edge,
    quad_wedge_edge_edge,
    quad_wedge_node_dedge,
    quad_wedge_node_face,
)


def oracle_assemble_2d(m):
    """Quadrature-based assembly of the interior pairings (independent route,
    including the 2D sign factors -1 on both derivative pairings)."""
    nn = m.node_coords.shape[0]
    ne = m.edges.shape[0]
    nf = m.faces.shape[0]
    Mp = np.zeros((nn, nf))
    Mq = np.zeros((ne, ne))
    Kp = np.zeros((nn, ne))
    Kq = np.zeros((ne, nn))
    fverts = m.face_nodes
    for f in range(nf):
        nodes = fverts[f]
        tri = TriangleFrame(m.node_coords[nodes])
        edges = m.faces[f]
        locs = [local_edge_vertices(nodes, *m.edges[e]) for e in edges]
        for l, g in enumerate(nodes):
            Mp[g, f] += quad_wedge_node_face(tri, l)
            for el, le in zip(edges, locs):
                Kp[g, el] += -quad_wedge_dnode_edge(tri, l, le)
        for ej, lj in zip(edges, locs):
            for el, ll in zip(edges, locs):
                Mq[ej, el] += quad_wedge_edge_edge(tri, lj, ll)
            for l, g in enumerate(nodes):
                Kq[ej, g] += -quad_wedge_node_dedge(tri, l, lj)
    return Mp, Mq, Kp, Kq


@pytest.mark.parametrize("N,M,h", [(1, 1, 1.0), (2, 1, 1.0), (3, 2, 0.7), (2, 3, 1.3)])
def test_assembly_matches_quadrature_oracle(N, M, h):
    m = msh.build_rect_mesh(N, M, h)
    g = wh.assemble(m)
    Mp, Mq, Kp, Kq = oracle_assemble_2d(m)
    assert np.abs(g.M_p.toarray() - Mp).max() < 1e-13
    assert np.abs(g.M_q.toarray() - Mq).max() < 1e-13
    assert np.abs(g.K_p.toarray() - Kp).max() < 1e-13
    assert np.abs(g.K_q.toarray() - Kq).max() < 1e-13


@pytest.mark.parametrize("N,M", [(1, 1), (2, 1), (3, 3), (4, 3), (6, 6)])
def test_assembly_bitwise_equals_face_loop(N, M):
    m = msh.build_rect_mesh(N, M, 1.0)
    g = wh.assemble(m)
    for name, ref in zip(("M_p", "M_q", "K_p", "K_q"), loop_assemble_2d(m)):
        got = getattr(g, name)
        for arr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, arr), getattr(ref, arr)), (name, arr)


def test_boundary_pairing_matches_trace_quadrature():
    # evaluate int hat_i * tr w_e over each boundary edge from the adjacent
    # triangle, traversed in the CCW-induced direction
    m = msh.build_rect_mesh(2, 2, 0.8)
    g = wh.assemble(m)
    fverts = m.face_nodes
    L_oracle = np.zeros(g.L_p.shape)
    for e in msh.boundary_edges(m).tolist():
        # the unique adjacent face
        fs = [f for f in range(m.faces.shape[0]) if e in m.faces[f].tolist()]
        assert len(fs) == 1
        f = fs[0]
        nodes = fverts[f]
        tri = TriangleFrame(m.node_coords[nodes])
        t, hd = m.edges[e]
        # CCW traversal keeps the interior on the left: walk the edge so that
        # the third triangle vertex sits left of the walking direction
        pa, pb = m.node_coords[t], m.node_coords[hd]
        other = [n for n in nodes if n not in (t, hd)][0]
        po = m.node_coords[other]
        d1, d2 = pb - pa, po - pa
        cross = d1[0] * d2[1] - d1[1] * d2[0]
        seg = (pa, pb) if cross > 0 else (pb, pa)
        le = local_edge_vertices(nodes, t, hd)
        for nd in (t, hd):
            ln = int(np.nonzero(nodes == nd)[0][0])
            L_oracle[nd, e] += quad_boundary_trace(tri, ln, le, np.asarray(seg))
        # trace of every OTHER edge form vanishes on e
        for eo in m.faces[f].tolist():
            if eo == e:
                continue
            lo = local_edge_vertices(nodes, *m.edges[eo])
            for nd in (t, hd):
                ln = int(np.nonzero(nodes == nd)[0][0])
                assert abs(quad_boundary_trace(tri, ln, lo, np.asarray(seg))) < 1e-14
    assert np.abs(g.L_p.toarray() - L_oracle).max() < 1e-13


def test_frozen_reference_values():
    # unit right triangle facts behind the closed-form assembly
    tri = TriangleFrame(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
    assert quad_wedge_node_face(tri, 0) == pytest.approx(1 / 3, abs=1e-13)
    assert quad_wedge_dnode_edge(tri, 0, (0, 1)) == pytest.approx(1 / 6, abs=1e-13)
    assert quad_wedge_node_dedge(tri, 0, (0, 1)) == pytest.approx(1 / 3, abs=1e-13)

    m = msh.build_rect_mesh(1, 1, 1.0)
    g = wh.assemble(m)
    # nonzero mass entries are all 1/3; columns sum to 1
    Mp = g.M_p.toarray()
    assert np.allclose(Mp[Mp != 0], 1 / 3)
    assert np.allclose(Mp.sum(axis=0), 1.0)
    # single-cell edge mass pairing (validated against quadrature above)
    s = 1 / 6
    Mq_expect = np.array(
        [
            [0, 0, 0, -s, s],
            [0, 0, -s, 0, s],
            [0, s, 0, 0, s],
            [s, 0, 0, 0, s],
            [-s, -s, -s, -s, 0],
        ]
    )
    assert np.abs(g.M_q.toarray() - Mq_expect).max() < 1e-15
    # derivative pairing carries the sign convention: entry for the
    # bottom-left node against the bottom edge is +1/6
    assert g.K_p[0, 0] == pytest.approx(1 / 6, abs=1e-15)


@pytest.mark.parametrize(
    "N,M", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (3, 3), (4, 4), (5, 3), (6, 6)]
)
def test_structure_battery_2d(N, M):
    m = msh.build_rect_mesh(N, M, 0.5)
    inc = msh.incidence(m)
    g = wh.assemble(m)
    rep = wh.verify_structure(m, g, inc)
    assert max(rep.residuals.values()) <= 1e-12
    assert len(rep.ranks) == 7
    for name, (got, want) in rep.ranks.items():
        assert got == want, name
    # M_q is skew with even rank; M_p columns sum to one
    assert np.abs((g.M_q + g.M_q.T).toarray()).max() == 0.0
    assert np.allclose(np.asarray(g.M_p.sum(axis=0)).ravel(), 1.0)


@pytest.mark.parametrize("N", [2, 3, 5, 8, 13, 21, 34, 55, 80])
def test_structure_battery_1d(N):
    m = msh.build_interval_mesh(N, 1.0)
    g = wh.assemble(m)
    rep = wh.verify_structure(m, g, msh.incidence(m))
    assert max(rep.residuals.values()) <= 1e-12


def test_h_independence():
    # all pairings are purely topological: metric lives in the Hodge stage
    for build in (
        lambda h: msh.build_rect_mesh(3, 2, h),
        lambda h: msh.build_interval_mesh(7, 7 * h),
    ):
        m1, m2 = build(0.25), build(2.0)
        g1 = wh.assemble(m1)
        g2 = wh.assemble(m2)
        for name in ("M_p", "M_q", "K_p", "K_q", "L_p", "L_q"):
            diff = (getattr(g1, name) - getattr(g2, name)).toarray()
            assert np.abs(diff).max() == 0.0, name


def test_eval_whitney_support():
    m = msh.build_rect_mesh(2, 2, 1.0)
    # node form: 1 at its node, 0 at other nodes, 0 outside support
    v = eval_whitney(m, "node", 4, m.node_coords)
    expect = np.zeros(9)
    expect[4] = 1.0
    assert np.allclose(v, expect)
    assert eval_whitney(m, "node", 0, np.array([[1.9, 1.9]]))[0] == 0.0
    # face form integrates-to-one density inside its own triangle only
    d = eval_whitney(m, "face", 0, np.array([[0.6, 0.1], [0.1, 0.6]]))
    assert d[0] == pytest.approx(2.0)  # 1/area with h=1
    assert d[1] == 0.0
    # edge form: tangential component along own edge is 1/h at midpoint
    t, hd = m.edges[0]
    mid = 0.5 * (m.node_coords[t] + m.node_coords[hd]) + [0, 1e-9]
    vec = eval_whitney(m, "edge", 0, np.array([mid]))
    tang = (m.node_coords[hd] - m.node_coords[t]) / 1.0
    assert float(vec[0] @ tang) == pytest.approx(1.0, abs=1e-6)

    m1 = msh.build_interval_mesh(4, 1.0)
    assert eval_whitney(m1, "node", 2, np.array([[0.5]]))[0] == 1.0
    assert eval_whitney(m1, "edge", 0, np.array([[0.9]]))[0] == 0.0


# ---------------------------------------------------------------------------
# exact rank certificate (np.linalg.matrix_rank and row reduction mod p
# are the oracles)

def built(N, M):
    m = msh.build_rect_mesh(N, M, 1.0)
    return m, wh.assemble(m), msh.incidence(m)


@settings(max_examples=20, deadline=None)
@given(N=st.integers(3, 9), M=st.integers(3, 9))
def test_rank_table_equals_dense_oracle(N, M):
    m, g, inc = built(N, M)
    ranks = wh.verify_structure(m, g, inc).ranks
    matrices = {
        "M_p": g.M_p, "M_q": g.M_q, "L_p": g.L_p, "K_p+L_p": g.K_p + g.L_p,
        "K_q+L_q": g.K_q + g.L_q, "d_p": inc.d_p, "d_q": inc.d_q,
    }
    assert ranks.keys() == matrices.keys()
    for name, mat in matrices.items():
        oracle = np.linalg.matrix_rank(mat.toarray().astype(float))
        assert ranks[name] == (oracle, oracle), name


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda rows: st.integers(1, 8).flatmap(
            lambda cols: st.lists(
                st.integers(-2, 2), min_size=rows * cols, max_size=rows * cols
            ).map(lambda v: np.array(v).reshape(rows, cols))
        )
    )
)
def test_rank_mod_p_of_small_integer_matrices(a):
    # Hadamard: every minor is at most (2 sqrt 8)^8 < 2^31 - 1 here, so the
    # rank mod p equals the rank over the rationals; a tall matrix is
    # swept transposed, so both orientations must agree
    rank = wh.rank_mod_p(sp.csr_matrix(a), 1)
    assert rank == np.linalg.matrix_rank(a)
    assert wh.rank_mod_p(sp.csr_matrix(a.T), 1) == rank


def test_rank_mod_p_can_only_fall_short():
    # a multiple of p vanishes mod p: the certificate then reports a rank
    # that is too low, which the expected table rejects
    a = sp.csr_matrix(np.array([[wh.RANK_PRIME, 0], [0, 1]], dtype=float))
    assert wh.rank_mod_p(a, 1) == 1
    assert wh.rank_mod_p(sp.csr_matrix((3, 4)), 1) == 0


def banded_residues(rows, cols, width, density, big, n_dependent, seed):
    """A sparse banded integer matrix: entries in [-3, 3] (negative ones sit
    at p - 3 .. p - 1 mod p) or, with `big`, in [p - 50, p); then
    `n_dependent` rows replaced by random combinations of two others mod p."""
    p = wh.RANK_PRIME
    rng = np.random.default_rng(seed)
    i, j = np.indices((rows, cols))
    band = np.abs(i * cols - j * rows) < width * max(rows, cols)
    mask = band & (rng.random((rows, cols)) < density)
    vals = rng.integers(p - 50, p, (rows, cols)) if big else rng.integers(-3, 4, (rows, cols))
    a = np.where(mask, vals, 0).astype(np.int64) % p
    for _ in range(n_dependent):
        x, y, z = rng.choice(rows, 3, replace=False)
        cx, cy = rng.integers(1, p, 2)
        a[z] = (a[x] * cx % p + a[y] * cy % p) % p
    return a


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(40, 150),
    cols=st.integers(40, 150),
    width=st.integers(2, 12),
    density=st.floats(0.2, 0.8),
    big=st.booleans(),
    n_dependent=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_mod_p_rounds_match_dense_oracle(rows, cols, width, density, big, n_dependent, seed):
    # minors of these matrices exceed p, so the oracle is exact row
    # reduction mod p, not matrix_rank; entries near p - 1 fill both
    # 16-bit limbs of the Schur product
    a = banded_residues(rows, cols, width, density, big, n_dependent, seed)
    want = dense_rank_mod_p(a, wh.RANK_PRIME)
    assert wh.rank_mod_p(sp.csr_matrix(a.astype(float)), 1) == want
    assert wh.rank_mod_p(sp.csr_matrix(a.T.astype(float)), 1) == want


def counted_rounds(monkeypatch):
    rounds = []
    schur = wh._schur_complement

    def counted(a, row, piv):
        rounds.append(piv.size)
        return schur(a, row, piv)

    monkeypatch.setattr(wh, "_schur_complement", counted)
    return rounds


def test_rank_mod_p_eliminates_in_rounds(monkeypatch):
    a = banded_residues(150, 120, 6, 0.5, True, 4, seed=7)
    rounds = counted_rounds(monkeypatch)
    assert wh.rank_mod_p(sp.csr_matrix(a.astype(float)), 1) == dense_rank_mod_p(
        a, wh.RANK_PRIME
    )
    assert len(rounds) >= 3 and min(rounds) >= 1


def test_rank_mod_p_caps_pivots_per_round(monkeypatch):
    # the cap that bounds the limb sums, exercised at a size it bites
    monkeypatch.setattr(wh, "_ROUND_PIVOTS", 3)
    rounds = counted_rounds(monkeypatch)
    a = banded_residues(60, 80, 4, 0.5, True, 3, seed=11)
    assert wh.rank_mod_p(sp.csr_matrix(a.astype(float)), 1) == dense_rank_mod_p(
        a, wh.RANK_PRIME
    )
    assert max(rounds) == 3


def test_rank_table_m_q_takes_about_ten_rounds(monkeypatch):
    m, g, inc = built(24, 24)
    rounds = counted_rounds(monkeypatch)
    assert wh.rank_mod_p(g.M_q, 24) == 2 * (m.node_coords.shape[0] - 2)
    assert 3 <= len(rounds) <= 15


@st.composite
def grounded_incidences(draw):
    """A grounded graph incidence: two-entry rows are edges (+-1, opposite
    signs), one-entry rows tie a column to ground, empty rows are allowed."""
    n = draw(st.integers(1, 8))
    row = st.tuples(
        st.integers(0, n - 1),
        st.integers(0, n - 1),
        st.sampled_from([1, -1]),
        st.sampled_from(["edge", "ground", "empty"]),
    )
    rows = draw(st.lists(row, max_size=12))
    a = np.zeros((len(rows), n))
    for r, (i, j, sign, kind) in enumerate(rows):
        if kind == "ground" or (kind == "edge" and i == j):
            a[r, i] = sign
        elif kind == "edge":
            a[r, i], a[r, j] = sign, -sign
    return a


@settings(max_examples=100, deadline=None)
@given(grounded_incidences())
def test_incidence_rank_equals_dense_oracle(a):
    assert wh.rank_mod_p(sp.csr_matrix(a), 1) == np.linalg.matrix_rank(a)


def test_incidence_rank_of_mesh_incidences():
    """d_q ranks as a connected graph, d_p as faces all grounded through
    the boundary edges."""
    m = msh.build_rect_mesh(5, 4, 1.0)
    inc = msh.incidence(m)
    assert wh.rank_mod_p(inc.d_q, 1) == inc.d_q.shape[1] - 1
    assert wh.rank_mod_p(inc.d_p, 1) == inc.d_p.shape[0]


def test_rank_table_24x24_bottom_side():
    m, g, inc = built(24, 24)
    ranks = wh.verify_structure(m, g, inc).ranks
    assert ranks == {
        "M_p": (623, 623),
        "M_q": (1246, 1246),
        "L_p": (95, 95),
        "K_p+L_p": (623, 623),
        "K_q+L_q": (624, 624),
        "d_p": (1152, 1152),
        "d_q": (624, 624),
    }


@pytest.mark.parametrize("N,M", [(54, 53), (80, 30), (60, 60), (40, 2), (2000, 1)])
def test_rank_table_on_large_grids(N, M):
    # square-ish 54 x 53 (2 970 nodes), far-from-square 80 x 30, 60 x 60
    # (3 721 nodes) and the thin 40 x 2 and 2000 x 1: the table has no size
    # or shape limit
    m, g, inc = built(N, M)
    n = m.node_coords.shape[0]
    ranks = wh.verify_structure(m, g, inc).ranks
    assert ranks == {
        "M_p": (n - 2, n - 2),
        "M_q": (2 * (n - 2), 2 * (n - 2)),
        "L_p": (2 * (N + M) - 1, 2 * (N + M) - 1),
        "K_p+L_p": (n - 2, n - 2),
        "K_q+L_q": (n - 1, n - 1),
        "d_p": (2 * N * M, 2 * N * M),
        "d_q": (n - 1, n - 1),
    }


def test_rank_table_skips_1d():
    m = msh.build_interval_mesh(40, 1.0)
    assert wh.verify_structure(m, wh.assemble(m), msh.incidence(m)).ranks is None


def test_rank_certificate_sees_mutations():
    m, g, inc = built(4, 3)
    n = g.M_q.shape[0]
    u, v = np.zeros(n), np.zeros(n)
    u[[0, 5]], v[[3, 7]] = 1.0, 2.0
    skew = sp.csr_matrix(np.outer(u, v) - np.outer(v, u))  # integer, rank 2
    mutated = g._replace(M_q=(g.M_q + skew / 24.0).tocsr())
    got, want = wh.verify_structure(m, mutated, inc).ranks["M_q"]
    assert got == np.linalg.matrix_rank(mutated.M_q.toarray()) != want

    off_grid = g.M_q.tolil()
    off_grid[0, 1] += 0.5 / 24.0  # half a unit of the known denominator
    ranks = wh.verify_structure(m, g._replace(M_q=off_grid.tocsr()), inc).ranks
    assert ranks["M_q"] == (-1, 2 * (m.node_coords.shape[0] - 2))


def test_rank_table_never_densifies():
    m, g, inc = built(24, 24)
    dense_bytes = 8 * g.M_q.shape[0] ** 2  # one float64 edges x edges array
    tracemalloc.start()
    try:
        wh.verify_structure(m, g, inc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= dense_bytes / 4
