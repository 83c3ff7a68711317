"""Discrete Hodge matrices: frozen values, exact consistency, degeneracies."""

import numpy as np
import pytest

from phfem import hodge as hg
from phfem import mesh as msh
from phfem import power_maps as pm
from phfem import sim
from phfem.errors import InvalidArgumentError, SingularHodgeError


def build(N, M, h, w, causality=None):
    m = msh.build_rect_mesh(N, M, h)
    part = msh.partition_boundary(m, causality or {"q_edges": "all"})
    maps = pm.build_2d_maps(m, part, w, msh.incidence(m))
    return m, maps


def constant_field_dofs(mesh, v):
    """Edge integrals of the 1-form with constant raised field v."""
    heads = mesh.node_coords[mesh.edges[:, 1]]
    tails = mesh.node_coords[mesh.edges[:, 0]]
    return (heads - tails) @ np.asarray(v)


def rotated_field_dofs(mesh, v):
    """Edge integrals of -(Hodge star) of the same 1-form: star swaps
    (dx, dy) -> (dy, -dx), so the raised field of -*q is (v_y, -v_x)."""
    return constant_field_dofs(mesh, [v[1], -v[0]])


class TestFrozenValues2D:
    def test_equal_weights_grid(self):
        w = pm.triangle_weights(*pm.PRESETS["set1"])
        h = 0.5
        m, maps = build(3, 3, h, w)
        pair = hg.hodge_2d(m, maps)

        # interior node: balance weight 2 -> 1/h^2
        interior_node = 5  # (1, 1)
        row = list(maps.P_ep.indices).index(interior_node)
        assert np.isclose(pair.q_p[row], 1 / h**2)

        qd = pair.q_q
        kinds = {e: m.edge_class[int(e)] for e in maps.P_eq.indices}
        # interior horizontal edge 4 = hor(1,1), interior vertical,
        # any diagonal: frozen equal-weight values 3/2, 3/2, 3
        interior_hor = 4
        interior_ver = m.grid_shape[0] * (m.grid_shape[1] + 1) + 5  # ver(1,1)
        some_dia = [e for e, k in kinds.items() if k == "d"][0]
        idx = {int(e): i for i, e in enumerate(maps.P_eq.indices)}
        assert np.isclose(qd[idx[interior_hor]], 1.5)
        assert np.isclose(qd[idx[interior_ver]], 1.5)
        assert np.isclose(qd[idx[int(some_dia)]], 3.0)

    def test_boundary_rows_have_single_cell_weights(self):
        w = pm.triangle_weights(*pm.PRESETS["set1"])
        m, maps = build(2, 2, 1.0, w)
        pair = hg.hodge_2d(m, maps)
        # a corner node of the grid carries less balance area than 2
        corner_row = list(maps.P_ep.indices).index(0)
        assert pair.q_p[corner_row] > 1.0


class TestConsistency:
    @pytest.mark.parametrize("seed", [3, 17])
    @pytest.mark.parametrize(
        "causality", [None, {"p_sides": ["bottom"], "q_edges": "rest"}]
    )
    def test_transverse_part_reproduces_rotated_field(self, seed, causality):
        """For any constant field, Q_q applied to the transverse reduced
        state returns the edge integrals of -(star q) exactly."""
        rng = np.random.default_rng(seed)
        aI, bI, _ = rng.dirichlet([2.0, 2.0, 2.0])
        aII, bII, _ = rng.dirichlet([2.0, 2.0, 2.0])
        w = pm.triangle_weights(aI, bI, aII, bII)
        h = 0.7
        m, maps = build(4, 3, h, w, causality)
        pair = hg.hodge_2d(m, maps)

        v = np.array([0.8, -1.3])
        q = constant_field_dofs(m, v)
        got = pair.q_q * (maps.perp @ q)
        expected = rotated_field_dofs(m, v)[maps.P_eq.indices]
        np.testing.assert_allclose(got, expected, atol=1e-13)

    def test_volume_part_reproduces_constant_density(self):
        rng = np.random.default_rng(9)
        aI, bI, _ = rng.dirichlet([2.0, 2.0, 2.0])
        aII, bII, _ = rng.dirichlet([2.0, 2.0, 2.0])
        w = pm.triangle_weights(aI, bI, aII, bII)
        h = 0.25
        m, maps = build(3, 4, h, w, {"p_nodes": [0], "q_edges": "rest"})
        pair = hg.hodge_2d(m, maps)

        rho = 2.75
        p = np.full(m.faces.shape[0], rho * h * h / 2.0)
        got = pair.q_p * (maps.P_fp @ p)
        np.testing.assert_allclose(got, rho, atol=1e-13)

    def test_positive_definite(self):
        w = pm.triangle_weights(*pm.PRESETS["set4"])
        m, maps = build(3, 3, 1.0, w)
        pair = hg.hodge_2d(m, maps)
        block = pair.as_block()
        assert (block.diagonal() > 0).all()
        assert block.shape[0] == maps.P_fp.shape[0] + maps.P_fq.shape[0]


class TestDegenerate:
    def test_node_without_balance_area(self):
        w = pm.triangle_weights(0.0, 1.0, 1.0, 0.0)  # gammas collapse to 0
        m, maps = build(2, 2, 1.0, w)
        with pytest.raises(SingularHodgeError):
            hg.hodge_2d(m, maps)

    def test_edge_without_flux(self):
        w = pm.triangle_weights(1.0, 0.0, 0.0, 1.0)  # betas vanish
        m, maps = build(2, 2, 1.0, w)
        with pytest.raises(SingularHodgeError):
            hg.hodge_2d(m, maps)

    def test_build_with_edge_without_transverse_flux(self):
        """beta_I = 0 with p-ports along the bottom leaves bottom edge 0 with
        no transverse coupling; the build stops at the Hodge (exit 2)."""
        config = {
            "mesh": {"kind": "rect", "N": 3, "M": 3},
            "causality": {"p_sides": ["bottom"]},
            "weights": {"alpha_I": 0.5, "beta_I": 0, "alpha_II": 0.25, "beta_II": 0.5},
        }
        message = r"P_fq row 0 \(edge 0\) has absolute sum 0"
        with pytest.raises(SingularHodgeError, match=message) as info:
            sim.build_model(config)
        assert info.value.exit_code == 2

    @pytest.mark.parametrize("h, value", [(1e300, "0"), (1e-320, "inf")])
    def test_entry_out_of_float_range(self, h, value):
        w = pm.triangle_weights(*pm.PRESETS["set1"])
        m, maps = build(2, 2, h, w)
        with pytest.raises(SingularHodgeError, match=rf"Q_p\[0\] = {value} "):
            hg.hodge_2d(m, maps)

    def test_invalid_arguments(self):
        w = pm.triangle_weights(*pm.PRESETS["set1"])
        m, maps = build(2, 2, 1.0, w)
        m1 = msh.build_interval_mesh(4, 1.0)
        with pytest.raises(InvalidArgumentError):
            hg.hodge_2d(m1, maps)


class TestOneDimensional:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, -1 / 12, 1 / 6])
    def test_values(self, alpha):
        N, h = 5, 0.2
        pair = hg.hodge_1d(N, alpha, h)
        dp = pair.q_p
        dq = pair.q_q
        assert np.isclose(dp[0], 1 / (1 - alpha) / h)
        assert np.allclose(dp[1:], 1 / h)
        assert np.isclose(dq[-1], 1 / (1 - alpha) / h)
        assert np.allclose(dq[:-1], 1 / h)

    def test_alpha_one_singular(self):
        with pytest.raises(SingularHodgeError):
            hg.hodge_1d(5, 1.0, 0.2)
        with pytest.raises(SingularHodgeError):
            hg.hodge_1d(5, 1.2, 0.2)

    def test_entry_overflow_singular(self):
        with pytest.raises(SingularHodgeError, match=r"Q_p\[0\] = inf "):
            hg.hodge_1d(4, 0.0, 1e-320)

    @pytest.mark.parametrize("alpha", [np.nan, -np.inf])
    def test_nonfinite_alpha_rejected(self, alpha):
        with pytest.raises(InvalidArgumentError):
            hg.hodge_1d(5, alpha, 0.2)

    def test_effort_averaged_variant(self):
        pair = hg.hodge_golo_1d(4, 0.25)
        assert np.allclose(pair.q_p, 4.0)
        assert np.allclose(pair.q_q, 4.0)

    @pytest.mark.parametrize("L", [1.0, 0.3, 7.0, 1 / 3])
    @pytest.mark.parametrize("N", [2, 3, 10, 40, 80, 641])
    def test_effort_averaged_is_upwinded_at_alpha_zero(self, N, L):
        # bitwise 1/h on both diagonals, as the upwinded pair gives at alpha = 0
        h = L / N
        golo, mixed = hg.hodge_golo_1d(N, h), hg.hodge_1d(N, 0.0, h)
        for a, b in ((golo.q_p, mixed.q_p), (golo.q_q, mixed.q_q)):
            assert np.array_equal(a, np.full(N, 1.0 / h)) and np.array_equal(a, b)

    def test_invalid(self):
        with pytest.raises(InvalidArgumentError):
            hg.hodge_1d(0, 0.0, 0.1)
        with pytest.raises(InvalidArgumentError):
            hg.hodge_1d(4, 0.0, 0.0)
        with pytest.raises(InvalidArgumentError):
            hg.hodge_golo_1d(4, -1.0)
        for h in (np.nan, np.inf):
            with pytest.raises(InvalidArgumentError):
                hg.hodge_1d(4, 0.0, h)
            with pytest.raises(InvalidArgumentError):
                hg.hodge_golo_1d(4, h)
