"""Power-preserving map construction: reference matrices and invariants.

The 2x1 and 1x1 reference matrices below are closed-form functions of the
triangle weights, frozen from their published form, and checked at several
randomized convex weight choices (plus the named presets)."""

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from phfem import mesh as msh
from phfem import power_maps as pm
from phfem import sim
from phfem.errors import InvalidArgumentError, StructureViolationError


def rand_weights(rng):
    aI, bI, _ = rng.dirichlet([1.0, 1.0, 1.0])
    aII, bII, _ = rng.dirichlet([1.0, 1.0, 1.0])
    return pm.triangle_weights(aI, bI, aII, bII)


WEIGHT_CASES = [pm.triangle_weights(*pm.PRESETS[k]) for k in sorted(pm.PRESETS)] + [
    rand_weights(np.random.default_rng(seed)) for seed in (7, 42, 1234)
]


# ---------------------------------------------------------------------------
# reference matrices for the 2x1 grid (nodes 0..5, edges 0..8, faces 0..3)


def ref_Pfp_full_2x1(w):
    return np.array(
        [
            [w.alpha_I, 0, w.beta_II, 0],
            [w.gamma_I, w.alpha_I, 0, w.beta_II],
            [0, w.gamma_I, 0, 0],
            [0, 0, w.gamma_II, 0],
            [w.beta_I, 0, w.alpha_II, w.gamma_II],
            [0, w.beta_I, 0, w.alpha_II],
        ]
    )


def ref_Sp_unique_2x1(w):
    # rows: q-input edges 0,1,2,3,4,6; columns: nodes 0..5
    return np.array(
        [
            [-w.alpha_I, -w.gamma_I, 0, 0, -w.beta_I, 0],
            [0, -w.alpha_I, -w.gamma_I, 0, 0, -w.beta_I],
            [w.beta_II, 0, 0, w.gamma_II, w.alpha_II, 0],
            [0, w.beta_II, 0, 0, w.gamma_II, w.alpha_II],
            [-w.beta_II, 0, 0, -w.gamma_II, -w.alpha_II, 0],
            [0, w.alpha_I, w.gamma_I, 0, 0, w.beta_I],
        ]
    )


def ref_Pfq_rows_2x1(w):
    """perp/par/rot rows for the interior edges 5 (vertical), 7, 8 (diagonals)."""
    dI, dII, eI, eII = w.delta_I, w.delta_II, w.eps_I, w.eps_II
    perp = {
        5: {0: w.alpha_I, 3: w.alpha_II},
        7: {0: -w.gamma_I / 2, 5: -w.gamma_I / 2, 2: -w.gamma_II / 2, 4: -w.gamma_II / 2},
        8: {1: -w.gamma_I / 2, 6: -w.gamma_I / 2, 3: -w.gamma_II / 2, 5: -w.gamma_II / 2},
    }
    par = {
        5: {5: w.beta_I + w.beta_II - 1.0},
        7: {7: (w.alpha_I - w.beta_I) / 2 + (w.alpha_II - w.beta_II) / 2},
        8: {8: (w.alpha_I - w.beta_I) / 2 + (w.alpha_II - w.beta_II) / 2},
    }
    rot = {
        5: {0: -dI, 1: dII, 2: dI, 3: -dII, 4: -dI, 5: dI + dII, 6: -dII},
        7: {},
        8: {},
    }
    return perp, par, rot


def ref_Pfq_row0_mixed_2x1(w):
    """New row for edge 0 once nodes 0, 1 become p-causal inputs."""
    perp = {5: -w.beta_I}
    par = {0: 0.5 - w.alpha_I}
    rot = {0: -w.eps_I, 2: w.eps_I, 4: -w.eps_I, 5: w.eps_I}
    return perp, par, rot


def ref_Sq_hat_mixed_2x1(w):
    # rows: p-input nodes 0, 1; columns: edges 0..8
    aI, gI = w.alpha_I, w.gamma_I
    bII = w.beta_II
    return np.array(
        [
            [aI - 0.5, 0, -bII, 0, bII, -aI, 0, bII - aI, 0],
            [gI - 0.5, aI, 0, -bII, 0, bII - gI, -aI, -gI, bII - aI],
        ]
    )


def dense_rows(mat_dict, n_cols, row_edges):
    out = np.zeros((len(row_edges), n_cols))
    for k, e in enumerate(row_edges):
        for c, v in mat_dict.get(e, {}).items():
            out[k, c] = v
    return out


def check_Pfq(maps, perp, par, rot, rows):
    """The transverse part and P_fq = perp + par + rot against the reference
    rows of the effort edges `rows`."""
    np.testing.assert_allclose(
        maps.perp.toarray(), dense_rows(perp, 9, rows), atol=1e-13
    )
    ref = sum(dense_rows(part, 9, rows) for part in (perp, par, rot))
    np.testing.assert_allclose(maps.P_fq.toarray(), ref, atol=1e-13)


def flow_map_defect(m, w, inc, maps):
    """P_fq d_q - P_eq G (dense), G = d_p^T applied to the all-node
    weighted vertex map: zero on the effort-node columns by construction."""
    G = inc.d_p.T.astype(float) @ pm._build_Pfp_full(m, w).T
    return (maps.P_fq @ inc.d_q.astype(float) - maps.P_eq @ G).toarray()


def assert_entity_lists_match(maps):
    """Each selector holds exactly one entry per row, so its `.indices`
    names, row by row, the one column it picks; the effort and input lists
    of each law together name every column once."""
    for effort, trace in ((maps.P_eq, maps.T_q), (maps.P_ep, maps.T_p_hat)):
        for sel in (effort, trace):
            np.testing.assert_array_equal(sel.indptr, np.arange(sel.shape[0] + 1))
        names = np.concatenate([effort.indices, trace.indices])
        np.testing.assert_array_equal(np.sort(names), np.arange(effort.shape[1]))


def build_case(N, M, causality, w):
    m = msh.build_rect_mesh(N, M, 1.0)
    part = msh.partition_boundary(m, causality)
    inc = msh.incidence(m)
    return m, part, inc, pm.build_2d_maps(m, part, w, inc)


# ---------------------------------------------------------------------------


class TestWeights:
    def test_presets_match_reference_fractions(self):
        w1 = pm.triangle_weights(*pm.PRESETS["set1"])
        assert w1.delta_I == w1.eps_I == w1.delta_II == w1.eps_II == 0.125
        w2 = pm.triangle_weights(*pm.PRESETS["set2"])
        assert np.allclose(
            [w2.delta_I, w2.eps_I, w2.delta_II, w2.eps_II],
            [3 / 16, 1 / 16, 1 / 16, 3 / 16],
        )
        w3 = pm.triangle_weights(*pm.PRESETS["set3"])
        assert np.allclose(
            [w3.delta_I, w3.eps_I, w3.delta_II, w3.eps_II],
            [13 / 48, -1 / 48, -1 / 48, 13 / 48],
        )
        assert np.isclose(w3.gamma_I, 0.25) and np.isclose(w3.gamma_II, 0.25)
        w4 = pm.triangle_weights(*pm.PRESETS["set4"])
        assert np.allclose(
            [w4.delta_I, w4.eps_I, w4.delta_II, w4.eps_II],
            [45 / 128, -13 / 128, -13 / 128, 45 / 128],
        )

    def test_opposite_rotation_flag(self):
        # the classes rotate against each other when sgn(delta_I) =
        # -sgn(delta_II) and sgn(eps_I) = -sgn(eps_II)
        weights = [pm.triangle_weights(*pm.PRESETS[k]) for k in ("set1", "set2", "set3", "set4")]
        flags = [
            w.delta_I * w.delta_II < 0 and w.eps_I * w.eps_II < 0 for w in weights
        ]
        assert flags == [False, False, True, True]

    def test_nonconvex_rejected(self):
        with pytest.raises(InvalidArgumentError):
            pm.triangle_weights(0.8, 0.5, 1 / 3, 1 / 3)  # gamma_I < 0
        with pytest.raises(InvalidArgumentError):
            pm.triangle_weights(-0.1, 0.5, 1 / 3, 1 / 3)

    def test_config_parsing(self):
        w = pm.weights_from_config({"preset": "set2"})
        assert w == pm.triangle_weights(*pm.PRESETS["set2"])
        assert pm.weights_from_config("set3") == pm.triangle_weights(*pm.PRESETS["set3"])
        w = pm.weights_from_config(
            {"alpha_I": 0.4, "beta_I": 0.3, "alpha_II": 0.2, "beta_II": 0.5}
        )
        assert np.isclose(w.gamma_I, 0.3) and np.isclose(w.gamma_II, 0.3)
        with pytest.raises(InvalidArgumentError):
            pm.weights_from_config({"preset": "set9"})
        with pytest.raises(InvalidArgumentError):
            pm.weights_from_config({"alpha_I": 0.4})


class TestReferenceMatrices2x1:
    @pytest.mark.parametrize("w", WEIGHT_CASES)
    def test_unique_causality(self, w):
        m, part, inc, maps = build_case(2, 1, {"q_edges": "all"}, w)
        assert maps.T_p_hat.shape[0] == 0 and maps.S_q_hat.shape[0] == 0
        np.testing.assert_allclose(
            maps.P_fp.toarray(), ref_Pfp_full_2x1(w), atol=1e-13
        )
        np.testing.assert_allclose(
            maps.S_p.toarray(), ref_Sp_unique_2x1(w), atol=1e-13
        )
        perp, par, rot = ref_Pfq_rows_2x1(w)
        rows = [5, 7, 8]
        assert list(maps.P_eq.indices) == rows
        check_Pfq(maps, perp, par, rot, rows)

    @pytest.mark.parametrize("w", WEIGHT_CASES)
    def test_mixed_causality(self, w):
        m, part, inc, maps = build_case(
            2, 1, {"p_nodes": [0, 1], "q_edges": "rest"}, w
        )
        assert list(maps.T_p_hat.indices) == [0, 1]
        assert list(maps.T_q.indices) == [1, 2, 3, 4, 6]
        assert list(maps.P_eq.indices) == [0, 5, 7, 8]
        assert list(maps.P_ep.indices) == [2, 3, 4, 5]

        np.testing.assert_allclose(
            maps.P_fp.toarray(), ref_Pfp_full_2x1(w)[2:], atol=1e-13
        )
        np.testing.assert_allclose(
            maps.S_p.toarray(), ref_Sp_unique_2x1(w)[1:], atol=1e-13
        )
        perp, par, rot = ref_Pfq_rows_2x1(w)
        p0, l0, r0 = ref_Pfq_row0_mixed_2x1(w)
        perp[0], par[0], rot[0] = p0, l0, r0
        rows = [0, 5, 7, 8]
        check_Pfq(maps, perp, par, rot, rows)
        np.testing.assert_allclose(
            maps.S_q_hat.toarray(), ref_Sq_hat_mixed_2x1(w), atol=1e-13
        )

    def test_input_order_of_multi_segment_causality(self):
        # the q trace selector's rows follow the partition's input order:
        # each segment sorted, the segments in the order given
        built = sim.build_model({
            "mesh": {"kind": "rect", "N": 2, "M": 1},
            "causality": {"q_segments": [[6, 3, 2], [4, 1, 0]]},
            "weights": "set1",
        })
        assert built.maps.T_q.indices.tolist() == [2, 3, 6, 0, 1, 4]
        assert_entity_lists_match(built.maps)


class TestReferenceMatrices1x1:
    """Single-cell reference, stated in a rotated numbering: the frozen
    signed permutation below maps this package's numbering onto it."""

    # reference edge k (1-based) -> (our edge, orientation factor)
    EDGE_MAP = {1: (3, 1.0), 2: (1, 1.0), 3: (2, -1.0), 4: (0, -1.0), 5: (4, 1.0)}
    # reference node k (1-based) -> our node
    NODE_MAP = {1: 1, 2: 3, 3: 2, 4: 0}

    @pytest.mark.parametrize("w", WEIGHT_CASES)
    def test_reference_frame(self, w):
        m, part, inc, maps = build_case(1, 1, {"q_edges": "all"}, w)
        Pfp = maps.P_fp.toarray()      # 4 nodes x 2 faces
        Sp = maps.S_p.toarray()        # 4 boundary edges x 4 nodes
        Pfq = maps.P_fq.toarray()      # 1 x 5 (diagonal edge row)
        assert list(maps.T_q.indices) == [0, 1, 2, 3]
        assert list(maps.P_eq.indices) == [4]

        ref_Pfp = np.array(
            [
                [w.gamma_I, 0],
                [w.beta_I, w.alpha_II],
                [0, w.gamma_II],
                [w.alpha_I, w.beta_II],
            ]
        )
        got = np.array([Pfp[self.NODE_MAP[k]] for k in (1, 2, 3, 4)])
        np.testing.assert_allclose(got, ref_Pfp, atol=1e-13)

        ref_Sp = np.array(
            [
                [w.gamma_I, w.beta_I, 0, w.alpha_I],
                [0, w.alpha_II, w.gamma_II, w.beta_II],
                [0, w.alpha_II, w.gamma_II, w.beta_II],
                [w.gamma_I, w.beta_I, 0, w.alpha_I],
            ]
        )
        got = np.zeros((4, 4))
        for k in (1, 2, 3, 4):
            e, s_r = self.EDGE_MAP[k]
            for mcol in (1, 2, 3, 4):
                got[k - 1, mcol - 1] = s_r * Sp[e, self.NODE_MAP[mcol]]
        np.testing.assert_allclose(got, ref_Sp, atol=1e-13)

        ref_Pfq = np.array(
            [
                -w.gamma_I / 2,
                -w.gamma_II / 2,
                w.gamma_II / 2,
                w.gamma_I / 2,
                (w.alpha_I - w.beta_I) / 2 + (w.alpha_II - w.beta_II) / 2,
            ]
        )
        got = np.array(
            [self.EDGE_MAP[k][1] * Pfq[0, self.EDGE_MAP[k][0]] for k in (1, 2, 3, 4, 5)]
        )
        np.testing.assert_allclose(got, ref_Pfq, atol=1e-13)


CAUSALITIES = [
    {"q_edges": "all"},
    {"p_nodes": [0, 1], "q_edges": "rest"},
    {"p_sides": ["bottom"], "q_edges": "rest"},
    {"p_sides": ["bottom", "left"], "q_edges": "rest"},
]


class TestInvariants:
    @pytest.mark.parametrize("dims", [(1, 1), (2, 1), (3, 3), (4, 2)])
    @pytest.mark.parametrize("ci", range(len(CAUSALITIES)))
    def test_power_battery(self, dims, ci):
        rng = np.random.default_rng(100 * dims[0] + 10 * dims[1] + ci)
        for w in (pm.triangle_weights(*pm.PRESETS["set2"]), rand_weights(rng)):
            m, part, inc, maps = build_case(*dims, CAUSALITIES[ci], w)
            assert pm.power_residual(pm.effort_stacks(maps, inc)) <= 1e-12
            assert_entity_lists_match(maps)
            # the flow-map defect is confined to p-input columns and never
            # reaches the power identity
            defect = flow_map_defect(m, w, inc, maps)
            assert np.abs(defect[:, maps.P_ep.indices]).max() <= 1e-12
            if not CAUSALITIES[ci].get("p_nodes") and not CAUSALITIES[ci].get(
                "p_sides"
            ):
                assert np.abs(defect).max() <= 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2)])
    def test_selector_permutations_and_counts(self, dims):
        w = pm.triangle_weights(*pm.PRESETS["set3"])
        m, part, inc, maps = build_case(
            *dims, {"p_sides": ["left"], "q_edges": "rest"}, w
        )
        Pi_q = sp.vstack([maps.P_eq, maps.T_q]).toarray()
        Pi_p = sp.vstack([maps.P_ep, maps.T_p_hat]).toarray()
        for Pi in (Pi_q, Pi_p):
            assert Pi.shape[0] == Pi.shape[1]
            np.testing.assert_allclose(Pi @ Pi.T, np.eye(Pi.shape[0]), atol=0)
            np.testing.assert_allclose(Pi.T @ Pi, np.eye(Pi.shape[0]), atol=0)

    def test_pfp_column_sums(self):
        w = rand_weights(np.random.default_rng(5))
        m, part, inc, maps = build_case(
            3, 2, {"p_nodes": [0], "q_edges": "rest"}, w
        )
        colsums = np.asarray(maps.P_fp.sum(axis=0)).ravel()
        # faces not touching the input node sum to 1; the two faces at the
        # corner lose exactly the weight placed on it
        full = pm._build_Pfp_full(m, w).toarray()
        expected = 1.0 - full[0]
        np.testing.assert_allclose(colsums, expected, atol=1e-14)
        assert np.sum(np.abs(expected - 1.0) > 1e-14) == 2

    @pytest.mark.parametrize(
        "causality", [{"q_edges": "all"}, {"p_nodes": [0, 1], "q_edges": "rest"}]
    )
    def test_minnorm_crosscheck(self, causality):
        """The constructive P_fq agrees with the pseudoinverse solution of
        the flow-map equation on the complement of the cycle space."""
        w = rand_weights(np.random.default_rng(21))
        m, part, inc, maps = build_case(2, 2, causality, w)
        # restrict to effort-node columns: that is the defining equation
        mask = maps.P_ep.toarray().T
        d_q = inc.d_q.toarray().astype(float) @ mask
        d_p = inc.d_p.toarray().astype(float)
        full = pm._build_Pfp_full(m, w).toarray()
        G = d_p.T @ full.T
        rhs = maps.P_eq.toarray() @ G @ mask
        X_mn = oracles.minnorm_flow_map(d_q, rhs)
        # projector onto range(d_q) (the component determined by the equation)
        U, s, _ = np.linalg.svd(d_q, full_matrices=False)
        U = U[:, s > 1e-10]
        Pi = U @ U.T
        np.testing.assert_allclose(
            maps.P_fq.toarray() @ Pi, X_mn @ Pi, atol=1e-10
        )


class TestOnePowerCheck:
    """`build_2d_maps` does not check its flow-map equation itself: any
    violation shows in the power-preservation residual `sim.build_model`
    checks."""

    CONFIG = {
        "mesh": {"kind": "rect", "N": 3, "M": 3, "h": 1.0},
        "causality": {"p_nodes": [0], "q_edges": "rest"},
        "weights": "set2",
    }

    def test_flow_map_defect_on_an_effort_column_fails_the_build(self, monkeypatch):
        build = sim.build_2d_maps

        def perturbed(mesh, partition, w, inc):
            maps = build(mesh, partition, w, inc)
            # row of interior edge 13, whose endpoints are both effort nodes
            row = int(np.flatnonzero(maps.P_eq.indices == 13)[0])
            bump = sp.csr_matrix(([1e-9], ([row], [13])), shape=maps.P_fq.shape)
            return maps._replace(P_fq=(maps.P_fq + bump).tocsr())

        assert sim.build_model(self.CONFIG).residuals["power_preservation"] <= 1e-12
        monkeypatch.setattr(sim, "build_2d_maps", perturbed)
        with pytest.raises(StructureViolationError, match="power-preservation residual"):
            sim.build_model(self.CONFIG)

    @pytest.mark.parametrize("check", ["power_residual", "power_balance_residual"])
    def test_nan_residual_fails_the_build(self, monkeypatch, check):
        monkeypatch.setattr(sim, check, lambda *args: float("nan"))
        with pytest.raises(StructureViolationError, match="residual nan"):
            sim.build_model(self.CONFIG)

    def test_portless_partition_fails_the_build(self, monkeypatch):
        # the configured partition less q input 0: boundary edge 0 (nodes 1,
        # 0) then has no port, which `partition_boundary` would reject
        m = msh.build_rect_mesh(3, 3, 1.0)
        q, p = msh.partition_boundary(m, self.CONFIG["causality"])
        assert 0 in q and p.tolist() == [0]
        part = msh.BoundaryPartition(q[q != 0], p)
        monkeypatch.setattr(sim, "partition_boundary", lambda mesh, causality: part)
        with pytest.raises(StructureViolationError, match="power-preservation residual"):
            sim.build_model(self.CONFIG)


class TestOneDimensional:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, -1 / 12, 1 / 6, 0.9])
    @pytest.mark.parametrize("N", [2, 5, 20])
    def test_structure(self, N, alpha):
        maps = pm.build_1d_maps(N, alpha)
        inc = msh.incidence(msh.build_interval_mesh(N, 1.0))
        assert pm.power_residual(pm.effort_stacks(maps, inc)) <= 1e-12
        assert_entity_lists_match(maps)

        Pfq = maps.P_fq.toarray()
        assert np.allclose(np.diag(Pfq), 1 - alpha)
        if N > 1:
            assert np.allclose(np.diag(Pfq, 1), alpha)
        assert np.count_nonzero(np.tril(Pfq, -1)) == 0
        np.testing.assert_allclose(maps.P_fp.toarray(), Pfq.T, atol=0)

        Sp = maps.S_p.toarray().ravel()
        assert Sp[0] == 1 - alpha and Sp[1] == alpha and not Sp[2:].any()
        Sq = maps.S_q_hat.toarray().ravel()
        assert Sq[-1] == 1 - alpha and Sq[-2] == alpha and not Sq[:-2].any()

        assert maps.T_p_hat.toarray()[0, -1] == -1.0
        assert maps.T_q.toarray()[0, 0] == 1.0
        Pi_q = sp.vstack([maps.P_eq, maps.T_q]).toarray()
        Pi_p = sp.vstack([maps.P_ep, maps.T_p_hat]).toarray()
        for Pi in (Pi_q, Pi_p):
            np.testing.assert_allclose(Pi @ Pi.T, np.eye(N + 1), atol=0)
            np.testing.assert_allclose(Pi.T @ Pi, np.eye(N + 1), atol=0)

    def test_alpha_zero_is_identity(self):
        maps = pm.build_1d_maps(4, 0.0)
        np.testing.assert_allclose(maps.P_fp.toarray(), np.eye(4), atol=0)
        np.testing.assert_allclose(maps.P_fq.toarray(), np.eye(4), atol=0)

    def test_invalid_arguments(self):
        with pytest.raises(InvalidArgumentError):
            pm.build_1d_maps(4, 1.0)
        with pytest.raises(InvalidArgumentError):
            pm.build_1d_maps(4, 1.5)
        with pytest.raises(InvalidArgumentError):
            pm.build_1d_maps(1, 0.0)
