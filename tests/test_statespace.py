"""Dirac structure representations and PH state-space assembly."""

import json

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.io import mmwrite

import oracles
from phfem import hodge as hg
from phfem import sim
from phfem import mesh as msh
from phfem import power_maps as pm
from phfem import statespace as ss
from phfem.errors import (
    InvalidArgumentError,
    MissingArtifactError,
    SingularHodgeError,
    StructureViolationError,
)
from test_golden import CONFIGS as GOLDEN_CONFIGS


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
    stacks = pm.effort_stacks(maps, inc)
    return ss.assemble_model(stacks, pair, meta={"alpha": alpha, "N": N})


def model_2d(N, M, causality, w=None, h=1.0):
    m, inc, maps = maps_2d(N, M, causality, w, h)
    pair = hg.hodge_2d(m, maps)
    return ss.assemble_model(pm.effort_stacks(maps, inc), pair)


CAUSALITIES = [
    {"q_edges": "all"},
    {"p_nodes": [0, 1], "q_edges": "rest"},
    {"p_sides": ["bottom", "left"], "q_edges": "rest"},
]


class TestImageRep:
    @pytest.mark.parametrize("causality", CAUSALITIES)
    def test_dirac_conditions_2d(self, causality):
        m, inc, maps = maps_2d(3, 2, causality)
        E, F = oracles.image_rep(maps, inc)
        n_total = maps.P_ep.shape[1] + maps.P_eq.shape[1]
        assert E.shape == F.shape == (n_total, n_total)
        assert oracles.dirac_residual(E, F) <= 1e-12
        assert np.linalg.matrix_rank(F.toarray()) == n_total

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1 / 6])
    def test_dirac_conditions_1d(self, alpha):
        N = 6
        inc = msh.incidence(msh.build_interval_mesh(N, 1.0))
        maps = pm.build_1d_maps(N, alpha)
        E, F = oracles.image_rep(maps, inc)
        assert E.shape == (2 * N + 2, 2 * N + 2)
        assert oracles.dirac_residual(E, F) <= 1e-12
        assert np.linalg.matrix_rank(F.toarray()) == 2 * N + 2


def blocks(model):
    """The nonzero blocks of J, B, C and D: each couples a p-type index
    (x_p or u_hat) with a q-type one (x_q or u)."""
    n_p, m_hat = model.n_p, model.m_hat
    J, B, C, D = (mat.toarray() for mat in (model.J, model.B, model.C, model.D))
    return {
        "J_p": J[:n_p, n_p:], "J_q": J[n_p:, :n_p],
        "B_p": B[:n_p, m_hat:], "B_q": B[n_p:, :m_hat],
        "C_q": C[:m_hat, n_p:], "C_p": C[m_hat:, :n_p],
        "D_q": D[:m_hat, m_hat:], "D_p": D[m_hat:, :m_hat],
    }


class TestIORep:
    """The input-output blocks of the assembled model."""

    @pytest.mark.parametrize("causality", CAUSALITIES)
    def test_block_identities(self, causality):
        model = model_2d(3, 3, causality)
        b = blocks(model)
        np.testing.assert_allclose(b["J_q"], -b["J_p"].T, atol=1e-14)
        np.testing.assert_allclose(b["C_q"], b["B_q"].T, atol=1e-14)
        np.testing.assert_allclose(b["C_p"], b["B_p"].T, atol=1e-14)
        np.testing.assert_allclose(b["D_q"], -b["D_p"].T, atol=1e-14)
        # nothing outside the blocks: J, B, C and D couple p with q only
        assert sum(np.count_nonzero(v) for v in b.values()) == sum(
            mat.count_nonzero() for mat in (model.J, model.B, model.C, model.D)
        )

    def test_unique_causality_has_no_feedthrough(self):
        model = model_2d(3, 2, {"q_edges": "all"})
        b = blocks(model)
        assert model.m_hat == 0
        assert b["D_q"].size == 0 and b["D_p"].size == 0

    def test_mixed_causality_feedthrough_is_skew(self):
        b = blocks(model_2d(3, 2, {"p_sides": ["bottom"], "q_edges": "rest"}))
        assert np.abs(b["D_q"]).max() > 0
        np.testing.assert_allclose(b["D_q"], -b["D_p"].T, atol=1e-14)


def golden_hodge(config, built):
    """The Hodge pair `sim.build_model` pairs with a golden config."""
    if built.mesh.dim == 2:
        return hg.hodge_2d(built.mesh, built.maps)
    N, h = config["mesh"]["N"], built.mesh.h
    if config.get("method") == "golo":
        return hg.hodge_golo_1d(N, h)
    return hg.hodge_1d(N, config["alpha"], h)


class TestDenseReference:
    """The one-pass split of `assemble_model` against dense inverses and
    hand-placed blocks."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_assemble_model_matches_dense_reference(self, name):
        config = GOLDEN_CONFIGS[name]
        built = sim.build_model(config)
        pair = golden_hodge(config, built)
        model = ss.assemble_model(pm.effort_stacks(built.maps, built.inc), pair)
        ref = oracles.dense_model(built.maps, built.inc, pair)
        for key, want in ref.items():
            got = getattr(model, key).toarray()
            assert got.shape == want.shape, key
            scale = max(1.0, np.abs(want).max(initial=0.0))
            np.testing.assert_allclose(
                got, want, rtol=0, atol=1e-12 * scale, err_msg=key
            )
        if name == "golo":
            assert np.abs(ref["D"]).max() > 0  # alpha' = 1/12 has feedthrough
        J, B, C, D = (getattr(model, key).toarray() for key in "JBCD")
        dense_balance = max(
            np.abs(J + J.T).max(),
            np.abs(D + D.T).max(initial=0.0),
            np.abs(C - B.T).max(),
        )
        assert ss.power_balance_residual(model) == dense_balance

    def test_signed_permutation_is_an_exact_gather(self, monkeypatch):
        """A signed permutation Pi, here with an explicitly stored zero as
        the comparison scheme has at alpha' = 0, skips the LU solve."""
        data, cols, indptr = [1.0, 0.0, -1.0, 1.0], [1, 2, 2, 0], [0, 2, 3, 4]
        Pi = sp.csr_matrix((data, cols, indptr), shape=(3, 3))
        monkeypatch.setattr(ss.spla, "splu", None)
        stack = sp.csr_matrix(np.random.default_rng(1).standard_normal((4, 3)))
        X = ss._resolve(stack.copy(), Pi)  # the gather consumes its stack
        assert X.has_sorted_indices
        assert np.array_equal(X.toarray(), stack.toarray() @ Pi.toarray().T)

    def test_near_orthogonal_pi_takes_the_lu_solve(self, monkeypatch):
        """A rotation by 1e-8 is orthogonal to round-off but not a signed
        permutation: it is solved, not transposed."""
        s = 1e-8
        c = np.sqrt(1 - s * s)
        Pi = sp.csr_matrix(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, -1.0]]))
        assert np.abs((Pi @ Pi.T).toarray() - np.eye(3)).max() <= 1e-15
        calls, splu = [], ss.spla.splu
        monkeypatch.setattr(
            ss.spla, "splu", lambda *a, **k: calls.append(1) or splu(*a, **k)
        )
        stack = sp.csr_matrix(np.random.default_rng(2).standard_normal((4, 3)))
        X = ss._resolve(stack, Pi)
        assert calls == [1]
        want = np.linalg.solve(Pi.toarray().T, stack.toarray().T).T
        np.testing.assert_allclose(X.toarray(), want, rtol=0, atol=1e-15)


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

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_matrices_are_canonical_csr(self, name):
        """Sorted indices, no duplicates and no stored zeros, read off the
        arrays rather than scipy's cached flags."""
        model = sim.build_model(GOLDEN_CONFIGS[name]).model
        for key in "JQBCD":
            mat = getattr(model, key)
            assert mat.format == "csr", key
            rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
            same_row = np.diff(rows) == 0
            assert np.all(np.diff(mat.indices)[same_row] > 0), key
            assert np.all(mat.data != 0), key

    def test_reference_dimensions(self):
        model = model_1d(20, 0.0)
        assert model.n == 40 and model.n_u == 2
        inc = msh.incidence(msh.build_interval_mesh(20, 1.0))
        E, F = oracles.image_rep(pm.build_1d_maps(20, 0.0), inc)
        assert np.linalg.matrix_rank(F.toarray()) == 42

    def test_hamiltonian_and_output(self):
        model = model_1d(8, 0.5)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(model.n)
        assert oracles.hamiltonian(model, x) > 0
        u = rng.standard_normal(model.n_u)
        y = oracles.output(model, x, u)
        # collocation: d/dt H = y^T u for the homogeneous-feedthrough part
        xdot = model.A() @ x + model.B @ u
        assert abs(x @ (model.Q @ xdot) - y @ u) <= 1e-12

    def test_hodge_dimension_mismatch(self):
        m = msh.build_interval_mesh(6, 1.0)
        inc = msh.incidence(m)
        maps = pm.build_1d_maps(6, 0.0)
        with pytest.raises(InvalidArgumentError):
            ss.assemble_model(pm.effort_stacks(maps, inc), hg.hodge_1d(5, 0.0, 0.2))


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

    @pytest.mark.parametrize("fmt", ["phfem-model/v2", None])
    def test_manifest_format_required(self, tmp_path, fmt):
        out = ss.export_model(model_1d(4, 0.0), tmp_path / "m")
        manifest = json.loads((out / "manifest.json").read_text())
        if fmt is None:
            del manifest["format"]
        else:
            manifest["format"] = fmt
        (out / "manifest.json").write_text(json.dumps(manifest))
        match = rf"manifest\.json: format must be 'phfem-model/v1', got {fmt!r}"
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

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("name", ["J", "Q", "B", "C", "D"])
    def test_non_finite_entry_rejected(self, tmp_path, name, value):
        """A stored inf or NaN is named with its file and position; an inf
        on the diagonal of Q used to load and fail later as "Q is not
        diagonal"."""
        golo = {"mesh": {"kind": "interval", "N": 4}, "method": "golo",
                "alpha_prime": 0.25}
        model = sim.build_model(golo).model  # D != 0
        out = ss.export_model(model, tmp_path / "m")
        mat = sp.coo_matrix(getattr(model, name))
        mat.data[-1] = value
        mmwrite(str(out / f"{name}.mtx"), mat)
        match = (
            rf"{name}\.mtx has entry \({mat.row[-1]}, {mat.col[-1]}\) = {value}, "
            "which is not finite"
        )
        with pytest.raises(InvalidArgumentError, match=match):
            ss.load_model(out)

    def test_unreadable_matrix(self, tmp_path):
        out = ss.export_model(model_1d(4, 0.0), tmp_path / "m")
        (out / "D.mtx").write_text("not a matrix\n")
        with pytest.raises(InvalidArgumentError, match=r"D\.mtx"):
            ss.load_model(out)
