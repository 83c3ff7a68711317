import numpy as np
import pytest

from phfem import mesh as msh
from phfem.errors import InvalidArgumentError

# incidence matrices of the 2x1 reference configuration (regression)
DP_2X1 = np.array(
    [
        [-1, 0, 0, 0, 0, 1, 0, 1, 0],
        [0, -1, 0, 0, 0, 0, 1, 0, 1],
        [0, 0, 1, 0, -1, 0, 0, -1, 0],
        [0, 0, 0, 1, 0, -1, 0, 0, -1],
    ]
)
DQ_2X1 = np.array(
    [
        [1, -1, 0, 0, 0, 0],
        [0, 1, -1, 0, 0, 0],
        [0, 0, 0, 1, -1, 0],
        [0, 0, 0, 0, 1, -1],
        [-1, 0, 0, 1, 0, 0],
        [0, -1, 0, 0, 1, 0],
        [0, 0, -1, 0, 0, 1],
        [1, 0, 0, 0, -1, 0],
        [0, 1, 0, 0, 0, -1],
    ]
)


def test_incidence_2x1_regression():
    m = msh.build_rect_mesh(2, 1, 1.0)
    inc = msh.incidence(m)
    assert np.array_equal(inc.d_p.toarray(), DP_2X1)
    assert np.array_equal(inc.d_q.toarray(), DQ_2X1)


@pytest.mark.parametrize("N,M", [(1, 1), (2, 1), (1, 2), (3, 2), (4, 4), (6, 5)])
def test_incidence_invariants_2d(N, M):
    m = msh.build_rect_mesh(N, M, 0.5)
    inc = msh.incidence(m)
    n_nodes, n_edges = (N + 1) * (M + 1), N * (M + 1) + (N + 1) * M + N * M
    assert inc.d_p.shape == (2 * N * M, n_edges)
    assert inc.d_q.shape == (n_edges, n_nodes)
    # every face boundary has exactly three signed edges
    nnz_per_row = np.diff(inc.d_p.indptr)
    assert np.all(nnz_per_row == 3)
    # complex property: the composite incidence vanishes identically
    prod = (inc.d_p @ inc.d_q).toarray()
    assert prod.dtype.kind == "i" and np.all(prod == 0)
    # full row rank of d_p, corank one of d_q
    assert np.linalg.matrix_rank(inc.d_p.toarray().astype(float)) == 2 * N * M
    assert np.linalg.matrix_rank(inc.d_q.toarray().astype(float)) == n_nodes - 1


def test_incidence_1d():
    m = msh.build_interval_mesh(5, 2.0)
    inc = msh.incidence(m)
    expect = np.zeros((5, 6), dtype=int)
    for i in range(5):
        expect[i, i] = -1
        expect[i, i + 1] = 1
    assert np.array_equal(inc.d_p.toarray(), expect)
    assert np.array_equal(inc.d_q.toarray(), expect)
    assert m.h == pytest.approx(0.4)


def test_node_coordinates_row_major():
    m = msh.build_rect_mesh(3, 2, 0.5)
    # node(i, j) = j*(N+1) + i at (i*h, j*h)
    assert np.allclose(m.node_coords[0], [0.0, 0.0])
    assert np.allclose(m.node_coords[3], [1.5, 0.0])
    assert np.allclose(m.node_coords[4], [0.0, 0.5])
    assert np.allclose(m.node_coords[11], [1.5, 1.0])


def test_boundary_sets():
    m = msh.build_rect_mesh(3, 2, 1.0)
    bn = msh.boundary_nodes(m)
    be = msh.boundary_edges(m)
    assert len(bn) == 2 * (3 + 2)  # 2(N+M) boundary nodes
    assert len(be) == 2 * (3 + 2)  # 2(N+M) boundary edges
    # diagonals never lie on the boundary
    assert all(m.edge_class[e] in ("h", "v") for e in be)
    # side decompositions tile the boundary
    all_side_edges = np.concatenate(
        [msh.boundary_side_edges(m, s) for s in ("bottom", "right", "top", "left")]
    )
    assert sorted(all_side_edges.tolist()) == sorted(be.tolist())


@pytest.mark.parametrize("h", [np.inf, np.nan])
def test_rect_mesh_rejects_nonfinite_size(h):
    with pytest.raises(InvalidArgumentError):
        msh.build_rect_mesh(3, 3, h)


@pytest.mark.parametrize("L", [np.inf, np.nan])
def test_interval_mesh_rejects_nonfinite_length(L):
    with pytest.raises(InvalidArgumentError):
        msh.build_interval_mesh(4, L)


@pytest.mark.parametrize(
    "build, named",
    [
        (lambda n: msh.build_rect_mesh(n, 3, 1.0), f"N={10**20} x M=3"),
        (lambda n: msh.build_rect_mesh(3, n, 1.0), f"N=3 x M={10**20}"),
        (lambda n: msh.build_interval_mesh(n, 1.0), f"N={10**20}"),
    ],
    ids=["rect-N", "rect-M", "interval"],
)
def test_oversized_mesh_is_an_argument_error(build, named):
    # numpy refuses this size before allocating anything
    with pytest.raises(InvalidArgumentError, match=f"{named} .*cannot be allocated"):
        build(10**20)


class TestPartition2D:
    def setup_method(self):
        self.m = msh.build_rect_mesh(2, 1, 1.0)

    def test_all_q(self):
        part = msh.partition_boundary(self.m, {"q_edges": "all"})
        assert part.q_inputs.tolist() == msh.boundary_edges(self.m).tolist()
        assert len(part.p_inputs) == 0
        assert len(part.q_inputs) == 6

    def test_default_is_all_q(self):
        part = msh.partition_boundary(self.m, None)
        assert part.q_inputs.tolist() == msh.boundary_edges(self.m).tolist()

    def test_mixed_two_nodes_drops_their_edge(self):
        # nodes 0,1 cover horizontal edge 0; it leaves the q side
        part = msh.partition_boundary(self.m, {"p_nodes": [0, 1]})
        assert part.p_inputs.tolist() == [0, 1]
        q = part.q_inputs.tolist()
        assert 0 not in q and len(q) == 5

    def test_single_corner_node_keeps_all_edges(self):
        part = msh.partition_boundary(self.m, {"p_nodes": [0]})
        assert len(part.q_inputs) == 6

    def test_sides_sugar(self):
        part = msh.partition_boundary(self.m, {"p_sides": ["left"]})
        assert part.p_inputs.tolist() == [0, 3]
        assert 4 not in part.q_inputs.tolist()  # left vertical edge

    def test_consistent_q_sides_keep_the_partition(self):
        def same(a, b):
            return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))

        m = msh.build_rect_mesh(2, 2, 1.0)
        assert same(
            msh.partition_boundary(m, {"q_sides": ["left"]}),
            msh.partition_boundary(m, None),
        )
        causality = {"p_sides": ["bottom"], "q_edges": "rest"}
        assert same(
            msh.partition_boundary(m, {**causality, "q_sides": ["left", "top", "right"]}),
            msh.partition_boundary(m, causality),
        )

    def test_segments_keep_their_order(self):
        # each segment sorted, the segments in the order given
        causality = {"q_segments": [[6, 3, 2], [4, 1, 0]]}
        part = msh.partition_boundary(self.m, causality)
        assert part.q_inputs.tolist() == [2, 3, 6, 0, 1, 4]
        assert part.q_inputs.dtype == part.p_inputs.dtype == np.int64
        assert msh.partition_boundary(
            self.m, {"q_segments": [[], [1, 0], [6, 4, 3, 2]], "p_nodes": [5, 3]}
        ).p_inputs.tolist() == [3, 5]

    @pytest.mark.parametrize(
        "causality", [{"q_edges": [0, 1]}, {"q_segments": [[1], [], [0]]}]
    )
    def test_portless_causality_rejected(self, causality):
        m = msh.build_rect_mesh(4, 3, 1.0)
        with pytest.raises(
            InvalidArgumentError, match=r"^boundary edge 2 \(nodes 3, 2\) has no port"
        ):
            msh.partition_boundary(m, causality)

    @pytest.mark.parametrize(
        "causality",
        [
            None,
            {"p_nodes": [0]},
            {"p_sides": ["bottom"], "q_edges": "rest"},
            {"p_sides": ["left", "top"], "p_nodes": [4]},
        ],
    )
    def test_q_inputs_are_the_uncovered_boundary_edges(self, causality):
        # with a port on every boundary edge, the p-causal nodes fix the q set
        m = msh.build_rect_mesh(5, 4, 1.0)
        part = msh.partition_boundary(m, causality)
        p = set(part.p_inputs.tolist())
        uncovered = [
            e for e in msh.boundary_edges(m).tolist()
            if not set(m.edges[e].tolist()) <= p
        ]
        assert sorted(part.q_inputs.tolist()) == uncovered

    @pytest.mark.parametrize("q_sides", ["anything", ["left", 3], None])
    def test_q_sides_must_be_side_names(self, q_sides):
        m = msh.build_rect_mesh(2, 2, 1.0)
        with pytest.raises(InvalidArgumentError, match="'q_sides' must be a list"):
            msh.partition_boundary(m, {"q_sides": q_sides})

    def test_q_side_with_covered_edge_rejected(self):
        m = msh.build_rect_mesh(2, 2, 1.0)
        # both endpoints of bottom edge 0 are p-causal: it cannot be q-type
        with pytest.raises(InvalidArgumentError, match="q side 'bottom': edge 0 "):
            msh.partition_boundary(m, {"p_sides": ["bottom"], "q_sides": ["bottom"]})
        with pytest.raises(InvalidArgumentError, match="q side 'top': edge 4 "):
            msh.partition_boundary(m, {"q_edges": [0, 1], "q_sides": ["top"]})
        with pytest.raises(InvalidArgumentError, match="unknown side"):
            msh.partition_boundary(m, {"q_sides": ["middle"]})

    def test_interior_node_rejected(self):
        m = msh.build_rect_mesh(3, 3, 1.0)
        inner = 1 * 4 + 1  # node (1,1)
        with pytest.raises(InvalidArgumentError):
            msh.partition_boundary(m, {"p_nodes": [inner]})

    def test_overlap_rejected(self):
        with pytest.raises(InvalidArgumentError):
            msh.partition_boundary(self.m, {"p_nodes": [0, 1], "q_edges": "all"})

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InvalidArgumentError):
            msh.partition_boundary(self.m, {"q_segments": [[0, 1], [1, 2]]})

    def test_non_boundary_edge_rejected(self):
        m = msh.build_rect_mesh(3, 3, 1.0)
        diag0 = 3 * 4 + 4 * 3  # first diagonal edge index
        with pytest.raises(InvalidArgumentError):
            msh.partition_boundary(m, {"q_edges": [diag0]})


def test_partition_1d():
    m = msh.build_interval_mesh(8, 1.0)
    part = msh.partition_boundary(m, None)
    assert part.q_inputs.tolist() == [0]
    assert part.p_inputs.tolist() == [8]
    with pytest.raises(InvalidArgumentError):
        msh.partition_boundary(m, {"q_nodes": [8], "p_nodes": [0]})


def test_invalid_mesh_arguments():
    with pytest.raises(InvalidArgumentError):
        msh.build_rect_mesh(0, 2, 1.0)
    with pytest.raises(InvalidArgumentError):
        msh.build_rect_mesh(2, 2, -1.0)
    with pytest.raises(InvalidArgumentError):
        msh.build_interval_mesh(0, 1.0)


def test_summary_and_hash_deterministic():
    m1 = msh.build_rect_mesh(4, 3, 0.5)
    m2 = msh.build_rect_mesh(4, 3, 0.5)
    for name in ("node_coords", "edges", "faces", "face_signs", "face_nodes"):
        np.testing.assert_array_equal(getattr(m1, name), getattr(m2, name))
    m3 = msh.build_rect_mesh(3, 4, 0.5)
    assert not np.array_equal(m1.node_coords, m3.node_coords)
    assert m1.edges.shape[0] == 4 * 4 + 5 * 3 + 12


def loop_rect_numbering(N, M):
    """Edges, faces and traversal signs entity by entity from the numbering
    formulas of the mesh module docstring (reference for the vectorized
    construction)."""
    node = lambda i, j: j * (N + 1) + i
    n_hor, n_ver = N * (M + 1), (N + 1) * M
    hor = lambda i, j: j * N + i
    ver = lambda i, j: n_hor + j * (N + 1) + i
    dia = lambda i, j: n_hor + n_ver + j * N + i
    edges = np.empty((n_hor + n_ver + N * M, 2), dtype=np.int64)
    for j in range(M + 1):
        for i in range(N):
            edges[hor(i, j)] = (node(i + 1, j), node(i, j))
    for j in range(M):
        for i in range(N + 1):
            edges[ver(i, j)] = (node(i, j), node(i, j + 1))
    for j in range(M):
        for i in range(N):
            edges[dia(i, j)] = (node(i + 1, j + 1), node(i, j))
    faces = np.empty((2 * N * M, 3), dtype=np.int64)
    signs = np.empty((2 * N * M, 3), dtype=np.int64)
    for j in range(M):
        for i in range(N):
            faces[j * N + i] = (hor(i, j), ver(i + 1, j), dia(i, j))
            signs[j * N + i] = (-1, +1, +1)
            faces[N * M + j * N + i] = (dia(i, j), hor(i, j + 1), ver(i, j))
            signs[N * M + j * N + i] = (-1, +1, -1)
    return edges, faces, signs


@pytest.mark.parametrize("N,M", [(1, 1), (3, 2), (2, 5), (7, 7)])
def test_rect_mesh_numbering_and_invariants(N, M):
    m = msh.build_rect_mesh(N, M, 0.7)
    edges, faces, signs = loop_rect_numbering(N, M)
    assert np.array_equal(m.edges, edges) and m.edges.dtype == edges.dtype
    assert np.array_equal(m.faces, faces) and m.faces.dtype == faces.dtype
    assert np.array_equal(m.face_signs, signs)

    # face_nodes: CCW (positive signed area) and the endpoints of the face's edges
    p0, p1, p2 = (m.node_coords[m.face_nodes[:, k]] for k in range(3))
    d1, d2 = p1 - p0, p2 - p0
    assert np.all(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] > 0)
    for f in range(m.faces.shape[0]):
        assert set(m.face_nodes[f].tolist()) == set(m.edges[m.faces[f]].ravel().tolist())

    # edge_class marks exactly the non-axis-aligned edges as diagonals
    vec = m.node_coords[m.edges[:, 1]] - m.node_coords[m.edges[:, 0]]
    assert np.array_equal(m.edge_class == "d", np.all(vec != 0, axis=1))
    assert np.array_equal(m.edge_class == "h", vec[:, 1] == 0)

    # summed face traversal signs are +-1 exactly on the boundary edges
    summed = np.bincount(m.faces.ravel(), weights=m.face_signs.ravel())
    assert np.array_equal(np.nonzero(summed)[0], msh.boundary_edges(m))
    assert np.all(np.abs(summed[msh.boundary_edges(m)]) == 1)


def test_interval_mesh_has_no_2d_fields():
    m = msh.build_interval_mesh(4, 1.0)
    assert m.face_nodes is None and m.edge_class is None
