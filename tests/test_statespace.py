"""Dirac structure representations and PH state-space assembly."""

import json

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.io import mmwrite

import oracles
from phfem import hodge as hg
from phfem import mesh as msh
from phfem import power_maps as pm
from phfem import statespace as ss
from phfem.errors import (
    InvalidArgumentError,
    MissingArtifactError,
    SingularHodgeError,
    StructureViolationError,
)


def maps_2d(N, M, causality, w=None, h=1.0):
    m = msh.build_rect_mesh(N, M, h)
    part = msh.partition_boundary(m, causality)
    inc = msh.incidence(m)
    w = w or pm.triangle_weights(*pm.PRESETS["set2"])
    return m, inc, pm.build_2d_maps(m, part, w, inc)


def model_1d(N, alpha, L=1.0):
    m = msh.build_interval_mesh(N, L)
    inc = msh.incidence(m)
    maps = pm.build_1d_maps(N, alpha)
    pair = hg.hodge_1d(N, alpha, L / N)
    return ss.assemble_model(maps, inc, pair, meta={"alpha": alpha, "N": N})


def model_2d(N, M, causality, w=None, h=1.0):
    m, inc, maps = maps_2d(N, M, causality, w, h)
    pair = hg.hodge_2d(m, maps)
    return ss.assemble_model(maps, inc, pair)


CAUSALITIES = [
    {"q_edges": "all"},
    {"p_nodes": [0, 1], "q_edges": "rest"},
    {"p_sides": ["bottom", "left"], "q_edges": "rest"},
]


class TestImageRep:
    @pytest.mark.parametrize("causality", CAUSALITIES)
    def test_dirac_conditions_2d(self, causality):
        m, inc, maps = maps_2d(3, 2, causality)
        rep = ss.image_rep(maps, inc)
        n_total = maps.P_ep.shape[1] + maps.P_eq.shape[1]
        assert rep.E.shape == rep.F.shape == (n_total, n_total)
        assert rep.residual() <= 1e-12
        assert np.linalg.matrix_rank(rep.F.toarray()) == n_total

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1 / 6])
    def test_dirac_conditions_1d(self, alpha):
        N = 6
        inc = msh.incidence(msh.build_interval_mesh(N, 1.0))
        maps = pm.build_1d_maps(N, alpha)
        rep = ss.image_rep(maps, inc)
        assert rep.E.shape == (2 * N + 2, 2 * N + 2)
        assert rep.residual() <= 1e-12
        assert np.linalg.matrix_rank(rep.F.toarray()) == 2 * N + 2


class TestIORep:
    @pytest.mark.parametrize("causality", CAUSALITIES)
    def test_block_identities(self, causality):
        m, inc, maps = maps_2d(3, 3, causality)
        rep = ss.io_rep(maps, inc)
        np.testing.assert_allclose(rep.J_q.toarray(), -rep.J_p.T.toarray(), atol=1e-14)
        np.testing.assert_allclose(rep.C_q.toarray(), rep.B_q.T.toarray(), atol=1e-14)
        np.testing.assert_allclose(rep.C_p.toarray(), rep.B_p.T.toarray(), atol=1e-14)
        np.testing.assert_allclose(rep.D_q.toarray(), -rep.D_p.T.toarray(), atol=1e-14)

    def test_unique_causality_has_no_feedthrough(self):
        m, inc, maps = maps_2d(3, 2, {"q_edges": "all"})
        rep = ss.io_rep(maps, inc)
        assert rep.D_q.toarray().size == 0 and rep.D_p.toarray().size == 0

    def test_mixed_causality_feedthrough_is_skew(self):
        m, inc, maps = maps_2d(3, 2, {"p_sides": ["bottom"], "q_edges": "rest"})
        rep = ss.io_rep(maps, inc)
        assert np.abs(rep.D_q.toarray()).max() > 0
        np.testing.assert_allclose(rep.D_q.toarray(), -rep.D_p.T.toarray(), atol=1e-14)


class TestModelAssembly:
    @pytest.mark.parametrize("preset", sorted(pm.PRESETS))
    def test_power_balance_2d(self, preset):
        w = pm.triangle_weights(*pm.PRESETS[preset])
        model = model_2d(3, 2, {"p_sides": ["left"], "q_edges": "rest"}, w)
        assert ss.power_balance_residual(model) <= 1e-12
        assert model.n == model.n_p + model.n_q
        A = model.A()
        assert A.shape == (model.n, model.n)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, -1 / 12, 1 / 6])
    def test_power_balance_1d(self, alpha):
        model = model_1d(12, alpha)
        assert ss.power_balance_residual(model) <= 1e-12
        assert (model.n_p, model.n_q, model.m_hat, model.m) == (12, 12, 1, 1)
        assert abs(model.D).max() == 0  # no feedthrough in the 1D family

    def test_reference_dimensions(self):
        model = model_1d(20, 0.0)
        assert model.n == 40 and model.n_u == 2
        inc = msh.incidence(msh.build_interval_mesh(20, 1.0))
        rep = ss.image_rep(pm.build_1d_maps(20, 0.0), inc)
        assert np.linalg.matrix_rank(rep.F.toarray()) == 42

    def test_hamiltonian_and_output(self):
        model = model_1d(8, 0.5)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(model.n)
        assert model.hamiltonian(x) > 0
        u = rng.standard_normal(model.n_u)
        y = model.output(x, u)
        # collocation: d/dt H = y^T u for the homogeneous-feedthrough part
        xdot = model.A() @ x + model.B @ u
        assert abs(x @ (model.Q @ xdot) - y @ u) <= 1e-12

    def test_hodge_dimension_mismatch(self):
        m = msh.build_interval_mesh(6, 1.0)
        inc = msh.incidence(m)
        maps = pm.build_1d_maps(6, 0.0)
        with pytest.raises(InvalidArgumentError):
            ss.assemble_model(maps, inc, hg.hodge_1d(5, 0.0, 0.2))


class TestStaggeredVolumeCoincidence:
    @pytest.mark.parametrize("N", [4, 20])
    def test_alpha_zero_matches_finite_volumes(self, N):
        model = model_1d(N, 0.0)
        A_fv, B_fv, C_fv, D_fv = oracles.staggered_fv_1d(N, 1.0)
        np.testing.assert_allclose(model.A().toarray(), A_fv, atol=1e-12)
        np.testing.assert_allclose(model.B.toarray(), B_fv, atol=1e-12)
        np.testing.assert_allclose(
            (model.C @ model.Q).toarray(), C_fv, atol=1e-12
        )
        np.testing.assert_allclose(model.D.toarray(), D_fv, atol=1e-12)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        model = model_2d(2, 2, {"q_edges": "all"})
        out = ss.export_model(model, tmp_path / "model")
        back = ss.load_model(out)
        for name in ("J", "Q", "B", "C", "D"):
            a = sp.csr_matrix(getattr(model, name))
            b = sp.csr_matrix(getattr(back, name))
            assert (a != b).nnz == 0
        assert (back.n_p, back.n_q, back.m_hat, back.m) == (
            model.n_p,
            model.n_q,
            model.m_hat,
            model.m,
        )

    def test_deterministic_bytes(self, tmp_path):
        model = model_1d(6, 1 / 6)
        d1 = ss.export_model(model, tmp_path / "a")
        d2 = ss.export_model(model, tmp_path / "b")
        for name in ("J", "Q", "B", "C", "D"):
            assert (d1 / f"{name}.mtx").read_bytes() == (
                d2 / f"{name}.mtx"
            ).read_bytes()
        assert (d1 / "manifest.json").read_text() == (
            d2 / "manifest.json"
        ).read_text()

    def test_missing_artifacts(self, tmp_path):
        with pytest.raises(MissingArtifactError):
            ss.load_model(tmp_path / "nowhere")
        model = model_1d(4, 0.0)
        out = ss.export_model(model, tmp_path / "m")
        (out / "B.mtx").unlink()
        with pytest.raises(MissingArtifactError):
            ss.load_model(out)

    def test_malformed_manifest(self, tmp_path):
        out = ss.export_model(model_1d(4, 0.0), tmp_path / "m")
        (out / "manifest.json").write_text('{"n_p": 4,\n "n_q": }')
        match = r"manifest\.json at line 2, column"
        with pytest.raises(InvalidArgumentError, match=match):
            ss.load_model(out)

    @pytest.mark.parametrize(
        "shift, match",
        [
            ({"n_p": 1}, r"J\.mtx has shape"),
            # moving one state between n_p and n_q keeps every shape
            ({"n_p": 1, "n_q": -1}, r"J\.mtx has entry"),
            ({"n_p": -1, "n_q": 1}, r"J\.mtx has entry"),
        ],
        ids=["total", "state-into-p", "state-into-q"],
    )
    def test_manifest_dimensions_checked_against_matrices(
        self, tmp_path, shift, match
    ):
        out = ss.export_model(model_1d(4, 0.0), tmp_path / "m")
        manifest = json.loads((out / "manifest.json").read_text())
        for key, d in shift.items():
            manifest[key] += d
        (out / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(InvalidArgumentError, match=match):
            ss.load_model(out)

    @pytest.mark.parametrize("bad", [4.5, -1, True, "4", None])
    def test_manifest_dimensions_must_be_integers(self, tmp_path, bad):
        out = ss.export_model(model_1d(4, 0.0), tmp_path / "m")
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["n_q"] = bad
        (out / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(InvalidArgumentError, match="n_q must be a non-negative"):
            ss.load_model(out)

    def test_power_balance_rechecked(self, tmp_path):
        model = model_1d(4, 0.0)
        out = ss.export_model(model, tmp_path / "m")
        J = model.J.tolil()
        J[0, 5] += 1e-9  # breaks skew-symmetry, keeps the shape
        mmwrite(str(out / "J.mtx"), sp.coo_matrix(J))
        with pytest.raises(StructureViolationError, match="power balance"):
            ss.load_model(out)

    def test_hodge_positivity_rechecked(self, tmp_path):
        model = model_1d(4, 0.0)
        out = ss.export_model(model, tmp_path / "m")
        Q = model.Q.tolil()
        Q[3, 3] = -Q[3, 3]
        mmwrite(str(out / "Q.mtx"), sp.coo_matrix(Q))
        with pytest.raises(SingularHodgeError, match="diagonal entry 3"):
            ss.load_model(out)

    def test_hodge_off_diagonal_rejected(self, tmp_path):
        model = model_1d(4, 0.0)
        out = ss.export_model(model, tmp_path / "m")
        Q = model.Q.tolil()
        Q[1, 6] = 0.01
        mmwrite(str(out / "Q.mtx"), sp.coo_matrix(Q))
        with pytest.raises(InvalidArgumentError, match=r"Q\.mtx has entry \(1, 6\)"):
            ss.load_model(out)

    def test_unreadable_matrix(self, tmp_path):
        out = ss.export_model(model_1d(4, 0.0), tmp_path / "m")
        (out / "D.mtx").write_text("not a matrix\n")
        with pytest.raises(InvalidArgumentError, match=r"D\.mtx"):
            ss.load_model(out)
