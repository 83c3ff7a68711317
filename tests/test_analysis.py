"""Spectral analysis: frequency tables, comparison scheme, convergence."""

import csv
import hashlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackNoConvergence

import oracles
from phfem import analysis as an
from phfem import power_maps as pm
from phfem import sim
from phfem.errors import (
    InvalidArgumentError,
    NumericalFailureError,
    StructureViolationError,
)
from phfem.mesh import build_interval_mesh, incidence
from phfem.statespace import power_balance_residual

HALF_PI = np.pi / 2.0

#: sha256 of the float64 bytes of every `table3()` and `table4()` column,
#: recorded before the 1-D builds were cut down to a few constructions
TABLE_DIGESTS = {
    ("mixed", "-1/12", 20): "b72e9cb93769df73bc81f45ead0fd6444e48e4ecd8fd0ce4dd87c10f10662f71",
    ("mixed", "-1/12", 40): "2c70f3e0e3f729fe0248fa1329cb7104e8bb32f427b2804620a36e6b39cf1270",
    ("mixed", "-1/12", 80): "b7c9d881116ab30eed32b53c58dd219b21646be483e63ece3ff976f5a670e2c4",
    ("mixed", "0", 20): "7746e3f9d8899fd8ea07d967649c33e0701ae6e52bb38548aa50c69b88cd6040",
    ("mixed", "0", 40): "9d2743194eef28778d26d442fcf377e6063a1731a0194c09d7f78db683892701",
    ("mixed", "0", 80): "7535b18d0fee1fa04bc6dd25292de8d01aafa3f14a2bcd641091884111c17ed3",
    ("mixed", "1/6", 20): "0afc419d3bf8363cf0eb0b7508b5890df9af3b32da072641eb9f96bb7639ba62",
    ("mixed", "1/6", 40): "0697eb2c569716a58a1269510ed3a323a8c1435548a999405dddbc319749e873",
    ("mixed", "1/6", 80): "316d393e4e9ac0a840b93172e09c4407fff316c478937c7c0e4a2ae4e2863716",
    ("golo", "1/12", 20): "73f9303e37c5947c87fd127b1117bbb79d533b5db547cb49303d2feb69b3cb15",
    ("golo", "1/12", 40): "4af3564ce42810d776346e6c27d551e3ca3d96e30e76864d972d47d50e4ab7f7",
    ("golo", "1/12", 80): "76d86bec038ed663d3c21b8cb1d3c0d3e5df0c13f29195e335f4fa714faf13bd",
    ("golo", "0", 20): "7746e3f9d8899fd8ea07d967649c33e0701ae6e52bb38548aa50c69b88cd6040",
    ("golo", "0", 40): "9d2743194eef28778d26d442fcf377e6063a1731a0194c09d7f78db683892701",
    ("golo", "0", 80): "7535b18d0fee1fa04bc6dd25292de8d01aafa3f14a2bcd641091884111c17ed3",
    ("golo", "-1/6", 20): "0f2edfb38936f2ea0b0240783f638b4e9cc53c1f231bf80aca6e0e6e26b434ae",
    ("golo", "-1/6", 40): "a36ae180d58ca215e764f63a235de13cd89250a1247efa8eb9d0612644b46fdc",
    ("golo", "-1/6", 80): "164f1140df5c752194aba91e6441de76c59867113098331c6f9f7be8a62fd6f8",
}

#: the same digests of the errors of `convergence_study((0.0, 0.5),
#: (20, 40, 80, 160, 320, 640), (1,))`, the spectra1d benchmark's study
CONVERGENCE_DIGESTS = {
    (0.0, 1): "6a7933d73bb23dbfd71897f250a76a9d2d0851193a2e1e05d77e11391f8d97e8",
    (0.5, 1): "f21a01cabb9ab6f93a3903f12b9850c3d77f839735af9791abf6ff982f2599ea",
}


def digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


class TestSpectrum:
    def test_exact_frequencies(self):
        np.testing.assert_allclose(
            an.exact_frequencies([1, 2, 3]), [HALF_PI, 3 * HALF_PI, 5 * HALF_PI]
        )
        np.testing.assert_allclose(
            an.exact_frequencies([1, 2, 3], L=2.0),
            [HALF_PI / 2, 3 * HALF_PI / 2, 5 * HALF_PI / 2],
        )

    @pytest.mark.parametrize("alpha", [0.0, 0.5, -1 / 12])
    def test_count_and_convergence(self, alpha):
        freqs = an.spectrum(an.build_1d_model(60, alpha))
        assert freqs.size == 60
        assert abs(freqs[0] - HALF_PI) < 0.02

    def test_reference_values(self):
        assert abs(an.spectrum(an.build_1d_model(20, 0.0))[0] - 1.5321) <= 5e-4
        assert abs(an.spectrum(an.build_1d_model(40, -1 / 12))[9] - 29.428) <= 5e-4
        assert abs(an.spectrum(an.build_1d_model(80, 1 / 6))[1] - 4.6910) <= 5e-4

    def test_permutation_invariance(self):
        """Permuting the states keeps the power balance and the dense
        eigenvalues, but leaves the certified structure: `spectrum` raises
        instead of returning them."""
        model = an.build_1d_model(16, 1 / 6)
        ref = an.spectrum(model)
        rng = np.random.default_rng(11)
        perm = rng.permutation(model.n)
        P = sp.csr_matrix(
            (np.ones(model.n), (np.arange(model.n), perm)), shape=(model.n,) * 2
        )
        permuted = model._replace(
            J=(P @ model.J @ P.T).tocsr(),
            Q=(P @ model.Q @ P.T).tocsr(),
            B=(P @ model.B).tocsr(),
            C=(model.C @ P.T).tocsr(),
        )
        assert power_balance_residual(permuted) <= 1e-12
        np.testing.assert_allclose(dense_spectrum(permuted), ref, atol=1e-12)
        with pytest.raises(StructureViolationError, match="mixed structure"):
            an.spectrum(permuted)

    @pytest.mark.parametrize("alpha", [np.nan, -np.inf])
    def test_nonfinite_alpha_rejected(self, alpha):
        with pytest.raises(InvalidArgumentError):
            an.build_1d_model(10, alpha)

    def test_nonconservative_model_rejected(self):
        model = an.build_1d_model(8, 0.0)
        leak = sp.identity(model.n, format="csr") * 1e-6
        with pytest.raises(StructureViolationError):
            an.spectrum(model._replace(J=(model.J + leak).tocsr()))


def dense_spectrum(model):
    """Reference: positive imaginary parts of the dense eig(A), with zero
    modes dropped relative to the largest frequency."""
    lam = np.linalg.eigvals(oracles.state_matrix(model).toarray())
    return np.sort(lam.imag[lam.imag > an.ZERO_MODE_RTOL * np.abs(lam).max()])


def model_2d_bottom_inputs(N, weights="set2"):
    """N x N rectangle with p-inputs along the bottom side: n_p != n_q."""
    return sim.build_model(
        {"mesh": {"kind": "rect", "N": N, "M": N, "h": 1.0},
         "causality": {"p_sides": ["bottom"], "q_edges": "rest"},
         "weights": weights}
    ).model


def model_2d_all_sides(N, weights):
    """N x N rectangle with p-inputs on all four sides."""
    return sim.build_model(
        {"mesh": {"kind": "rect", "N": N, "M": N, "h": 1.0},
         "causality": {"p_sides": ["bottom", "right", "top", "left"]},
         "weights": weights}
    ).model


def model_q_edges_all(N, M, weights):
    """N x M rectangle with q-inputs on every boundary edge."""
    return sim.build_model(
        {"mesh": {"kind": "rect", "N": N, "M": M, "h": 1.0},
         "causality": {"q_edges": "all"}, "weights": weights}
    ).model


def swap_blocks(model):
    """The model with its state permuted to [q; p]: J_p and J_q trade
    places, so the node coupling S becomes -S^T."""
    n_p, n = model.n_p, model.n
    order = np.r_[n_p:n, 0:n_p]
    P = sp.csr_matrix((np.ones(n), (np.arange(n), order)), shape=(n, n))
    return model._replace(
        J=(P @ model.J @ P.T).tocsr(),
        Q=(P @ model.Q @ P.T).tocsr(),
        B=(P @ model.B).tocsr(),
        C=(model.C @ P.T).tocsr(),
        n_p=model.n_q,
        n_q=n_p,
    )


def node_coupling(model):
    """S = Q_p^(1/2) J_p Q_q^(1/2) and its bound sqrt(||S||_1 ||S||_inf)."""
    J_p, q_p, q_q = model.node_blocks()
    S = (sp.diags(np.sqrt(q_p)) @ J_p @ sp.diags(np.sqrt(q_q))).tocsr()
    return S, np.sqrt(abs(S).sum(axis=0).max() * abs(S).sum(axis=1).max())


class TestCertifiedSpectrum:
    """`spectrum` takes the singular values of the node coupling for every
    built model and agrees with the dense eigenvalues of A."""

    @pytest.mark.parametrize(
        "build",
        [lambda: an.build_1d_model(40, -1 / 12),
         lambda: an.build_1d_model(40, 0.0),
         lambda: an.build_1d_model(40, 1 / 6),
         lambda: an.build_golo_1d_model(40, 1 / 12),
         lambda: an.build_golo_1d_model(40, -1 / 6),
         lambda: model_2d_bottom_inputs(6),
         lambda: an.build_1d_model(640, 0.0),
         lambda: an.build_1d_model(640, 0.5)],
        ids=["mixed-1/12", "mixed-0", "mixed+1/6", "golo+1/12", "golo-1/6", "2d-6x6",
             "mixed-0-N640", "mixed+1/2-N640"],
    )
    def test_agrees_with_dense_eigenvalues(self, build):
        model = build()
        model.node_blocks()  # certified: the banded or the SVD route is taken
        freqs, ref = an.spectrum(model), dense_spectrum(model)
        assert freqs.size == ref.size
        np.testing.assert_allclose(freqs, ref, rtol=1e-12, atol=0)

    def test_golo_models_keep_skew_round_off(self):
        """The comparison models pass the certificate with J_q + J_p^T
        nonzero but within SKEW_TOL, so the agreement above covers that
        slack."""
        model = an.build_golo_1d_model(40, 1 / 12)
        n_p, J = model.n_p, model.J.tocsr()
        skew = np.abs((J[n_p:, :n_p] + J[:n_p, n_p:].T).toarray()).max()
        assert 0.0 < skew <= 1e-12

    def test_unequal_blocks_drop_zero_modes(self):
        model = model_2d_bottom_inputs(6)
        assert model.n_p != model.n_q
        assert an.spectrum(model).size == min(model.n_p, model.n_q)

    @pytest.mark.parametrize(
        "build,dense",
        [(lambda: an.build_1d_model(40, -1 / 12), False),
         (lambda: an.build_1d_model(40, 0.0), False),
         (lambda: an.build_1d_model(40, 1 / 6), False),
         (lambda: an.build_1d_model(40, 0.5), False),
         (lambda: an.build_golo_1d_model(40, 0.0), False),
         (lambda: an.build_golo_1d_model(40, 1 / 12), True),
         (lambda: an.build_golo_1d_model(40, -1 / 6), True),
         (lambda: model_2d_bottom_inputs(6), True)],
        ids=["mixed-1/12", "mixed-0", "mixed+1/6", "mixed+1/2", "golo-0", "golo+1/12",
             "golo-1/6", "2d-6x6"],
    )
    def test_dense_svd_only_for_wide_bands(self, build, dense, monkeypatch):
        """Narrow-band models (mixed 1-D, golo at alpha' = 0) take the banded
        eigensolver; the others keep the dense SVD of the node coupling."""
        model = build()
        calls = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        an.spectrum(model)
        assert calls == ([(model.n_p, model.n_q)] if dense else [])

    def test_dense_route_out_of_memory(self, monkeypatch):
        """A dense S that cannot be allocated is a NumericalFailureError
        naming its shape and the sparse lowest-k route, not a bare
        MemoryError."""
        model = model_2d_bottom_inputs(6)

        def out_of_memory(a, *args, **kwargs):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(np.linalg, "svd", out_of_memory)
        with pytest.raises(NumericalFailureError) as info:
            an.spectrum(model)
        message = str(info.value)
        assert f"({model.n_p} x {model.n_q})" in message and "GiB" in message
        assert "--k" in message
        assert isinstance(info.value.__cause__, MemoryError)

    def test_banded_route_memory(self):
        """N = 1280 stays far below the 12.5 MB of the dense node coupling."""
        model = an.build_1d_model(1280, 0.5)
        tracemalloc.start()
        try:
            freqs = an.spectrum(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert freqs.size == 1280
        assert peak < 1_000_000

    def test_dense_eigenvalues_never_computed(self, monkeypatch):
        """Neither a certified model nor a rejected one reaches eig(A)."""
        calls = []
        eigvals = np.linalg.eigvals

        def spy(a):
            calls.append(a.shape)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", spy)
        for model in (an.build_1d_model(8, 0.0), an.build_golo_1d_model(8, -1 / 6),
                      model_2d_bottom_inputs(3)):
            an.spectrum(model)
        assert calls == []
        model = an.build_1d_model(8, 0.0)
        leak = sp.identity(model.n, format="csr") * 1e-6
        with pytest.raises(StructureViolationError, match="nonzero diagonal block"):
            an.spectrum(model._replace(J=(model.J + leak).tocsr()))
        assert calls == []


class TestZeroModes:
    @pytest.mark.parametrize("weights", ["set3", "set4"])
    @pytest.mark.parametrize("N", [12, 24])
    def test_boundary_pair_dropped_at_every_size(self, weights, N):
        """p-ports on the bottom side leave two boundary modes that decay
        exponentially in N (set4: 1e-9 beta at 12 x 12, 5e-17 beta at
        24 x 24).  The filter is relative to beta, so both sizes drop the
        pair; an absolute 1e-9 would keep it at 12 x 12 only."""
        model = model_2d_bottom_inputs(N, weights)
        S, beta = node_coupling(model)
        sigma = np.linalg.svd(S.toarray(), compute_uv=False)
        tiny = np.sort(sigma)[:2]
        assert tiny.max() < 1e-5 * beta < np.sort(sigma)[2]
        assert an.spectrum(model).size == min(S.shape) - 2

    def test_set2_pair_kept(self):
        """set2's pair decays more slowly (6.6e-5 beta at 24 x 24) and is
        still a resolved frequency."""
        model = model_2d_bottom_inputs(24)
        assert an.spectrum(model).size == min(model.n_p, model.n_q)


class TestLowestK:
    """`spectrum(model, k)`: the lowest k frequencies by bisection on the
    band of H where the band is narrow and k (n_p + n_q) small, else by
    shift-invert Lanczos on the Gram matrix of the node coupling."""

    @pytest.mark.parametrize("N", [20, 40, 80, 160, 320, 640])
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_convergence_models_agree_with_full_route(self, alpha, N):
        """k = 1 (bisection up to N = 640) and k = 6 (bisection up to
        N = 80, Lanczos above)."""
        model = an.build_1d_model(N, alpha)
        full = an.spectrum(model)
        for k in (1, 6):
            np.testing.assert_allclose(an.spectrum(model, k), full[:k], rtol=1e-12, atol=0)

    def test_convergence_study_takes_bisection(self, monkeypatch):
        """The spectra1d study asks each model for k = 1 (k (n_p + n_q) at
        most 1 280 at N = 640): no Lanczos and no sparse LU."""
        def refuse(*args, **kwargs):
            raise AssertionError("Lanczos route taken")

        monkeypatch.setattr(an, "eigsh", refuse)
        monkeypatch.setattr(an, "splu", refuse)
        study = an.convergence_study((0.0, 0.5), (20, 40, 80, 160, 320, 640), (1,))
        assert study.slopes[(0.0, 1)] == pytest.approx(-1.0, abs=0.1)
        assert study.slopes[(0.5, 1)] == pytest.approx(-2.0, abs=0.1)

    @pytest.mark.parametrize("k, route", [(1, "bisection"), (2, "lanczos")])
    def test_cost_rule_picks_the_route(self, k, route, monkeypatch):
        """N = 640 has n_p + n_q = 1 280: k = 1 sits on the rule's bound and
        bisects, k = 2 is past it and takes Lanczos."""
        model = an.build_1d_model(640, 0.0)
        n = model.n_p + model.n_q
        assert n <= an.BISECTION_MAX_KN < 2 * n
        taken = []
        eigsh, eigvals_banded = an.eigsh, an.eigvals_banded

        def spy_eigsh(*args, **kwargs):
            taken.append("lanczos")
            return eigsh(*args, **kwargs)

        def spy_banded(*args, **kwargs):
            taken.append("bisection" if kwargs.get("select") == "i" else "full")
            return eigvals_banded(*args, **kwargs)

        monkeypatch.setattr(an, "eigsh", spy_eigsh)
        monkeypatch.setattr(an, "eigvals_banded", spy_banded)
        assert an.spectrum(model, k).size == k
        assert taken == [route]

    @pytest.mark.parametrize("k, asks", [(2, [2, 4, 5]), (4, [4, 7])])
    def test_bisection_asks_past_zero_modes(self, k, asks, monkeypatch):
        """The 60 x 2 set2 model with q-ports all round has a narrow band
        (b = 10, m = 183) and three exact zero modes.  Each ask that zero
        modes leave short asks again from the same band, so no ask may let
        LAPACK overwrite it (no route passes overwrite_a_band).  k = 4 is
        past the cost rule (4 x 481 > 1 280), so the bound is raised to
        reach the route."""
        model = model_q_edges_all(60, 2, "set2")
        n, r = model.n_p + model.n_q, min(model.n_p, model.n_q)
        full = an.spectrum(model)
        monkeypatch.setattr(an, "BISECTION_MAX_KN", k * n)
        asked = []
        eigvals_banded = an.eigvals_banded

        def spy(band, **kwargs):
            assert not kwargs.get("overwrite_a_band", False)
            first, last = kwargs["select_range"]
            assert first == n - r
            asked.append(last - first + 1)
            return eigvals_banded(band, **kwargs)

        monkeypatch.setattr(an, "eigvals_banded", spy)
        np.testing.assert_allclose(an.spectrum(model, k), full[:k], rtol=1e-12, atol=0)
        assert asked == asks

    def test_bisection_keeps_both_copies_with_more_p_states(self, monkeypatch):
        """The 40 x 1 set1 model with q-ports all round has n_p = 82 > n_q =
        79 and a double frequency 0.07848021 at the 2nd and 3rd place: the
        Sturm counts return both copies, with no Lanczos call."""
        model = model_q_edges_all(40, 1, "set1")
        assert (model.n_p, model.n_q) == (82, 79)
        full = an.spectrum(model)

        def refuse(*args, **kwargs):
            raise AssertionError("Lanczos route taken")

        monkeypatch.setattr(an, "eigsh", refuse)
        low = an.spectrum(model, 3)
        np.testing.assert_allclose(low, full[:3], rtol=1e-12, atol=0)
        np.testing.assert_allclose(low[1], 0.07848021, rtol=1e-7)
        np.testing.assert_allclose(low[2], low[1], rtol=1e-12)

    def test_bisection_failure_is_numerical_failure(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(an, "eigvals_banded", fail)
        with pytest.raises(NumericalFailureError) as exc:
            an.spectrum(an.build_1d_model(40, 0.0), 2)
        assert exc.value.exit_code == 4

    @pytest.mark.parametrize("weights", ["set1", "set2", "set3", "set4"])
    @pytest.mark.parametrize("N", [6, 12, 24])
    def test_2d_all_sides_agree_with_full_route(self, weights, N):
        model = model_2d_all_sides(N, weights)
        np.testing.assert_allclose(
            an.spectrum(model, 12), an.spectrum(model)[:12], rtol=1e-12, atol=0
        )

    @pytest.mark.parametrize("weights", ["set2", "set3", "set4"])
    @pytest.mark.parametrize("N", [12, 24])
    def test_bottom_side_models_within_gram_bound(self, weights, N, monkeypatch):
        """With the boundary pair among the lowest modes, the route asks
        again for two more and reports the same modes as the full route,
        within the docstring's bound c eps beta^2 / sigma (c the largest
        row count of S)."""
        model = model_2d_bottom_inputs(N, weights)
        S, beta = node_coupling(model)
        full = an.spectrum(model)
        asked = []
        eigsh = an.eigsh

        def spy(G, k, **kwargs):
            asked.append(k)
            return eigsh(G, k=k, **kwargs)

        monkeypatch.setattr(an, "eigsh", spy)
        low = an.spectrum(model, 6)
        assert low.size == 6
        assert asked == ([6] if full.size == min(S.shape) else [6, 8])
        c = np.diff(S.indptr).max()
        bound = c * np.finfo(float).eps * beta**2 / full[:6]
        assert np.all(np.abs(low - full[:6]) <= bound)

    @pytest.mark.parametrize("N", [20, 640])
    def test_centred_weight_keeps_both_copies(self, N):
        """At alpha = 1/2 the bipartite graph of J_p splits into two halves
        of N vertices, so every frequency is double (the full route's pairs
        agree to 5e-14).  The lowest k hold both copies of each, each
        within the Gram route's round-off (~1e-13 at N = 640) of the full
        route, as `test_convergence_models_agree_with_full_route` checks."""
        model = an.build_1d_model(N, 0.5)
        J_p = model.node_blocks()[0]
        count, label = connected_components(sp.bmat([[None, J_p], [J_p.T, None]]))
        assert count == 2 and np.all(np.bincount(label) == N)
        low = an.spectrum(model, 6)
        np.testing.assert_allclose(low[0::2], low[1::2], rtol=1e-12, atol=0)

    def test_swapped_blocks_agree(self):
        """Swapping the p and q states (n_p = 420 > n_q = 156) transposes
        the node coupling, which keeps its singular values."""
        model = model_2d_bottom_inputs(12, "set4")
        swapped = swap_blocks(model)
        assert (swapped.n_p, swapped.n_q) == (420, 156)
        np.testing.assert_allclose(
            an.spectrum(swapped, 6), an.spectrum(model, 6), rtol=1e-12, atol=0
        )

    def test_more_p_than_q_states_take_full_route(self, monkeypatch):
        """The Gram matrix is built from the n_p x n_p node coupling, so a
        model with n_p > n_q (only a hand-built one) takes the full route."""
        swapped = swap_blocks(model_2d_bottom_inputs(12, "set4"))
        full = an.spectrum(swapped)

        def refuse(*args, **kwargs):
            raise AssertionError("Lanczos route taken")

        monkeypatch.setattr(an, "eigsh", refuse)
        assert an.spectrum(swapped, 6).tobytes() == full[:6].tobytes()

    def test_double_frequency_not_missed(self, monkeypatch):
        """24 x 24 set1 with q-ports all round: three zero modes and a double
        frequency at the 10th and 11th place.  Asked again for the zero
        modes (k = 15), Lanczos returns one copy only; the inertia count
        finds the missing one and asks for k = 16.  G + I is factored once
        for the three asks."""
        model = sim.build_model(
            {"mesh": {"kind": "rect", "N": 24, "M": 24, "h": 1.0},
             "causality": {"q_edges": "all"}, "weights": "set1"}
        ).model
        full = an.spectrum(model)
        assert full[10] - full[9] <= 1e-12 * full[9]
        asked, factored = [], []
        eigsh, splu = an.eigsh, an.splu

        def spy_eigsh(G, k, **kwargs):
            asked.append(k)
            return eigsh(G, k=k, **kwargs)

        def spy_splu(A, **kwargs):
            factored.append("inertia" if "diag_pivot_thresh" in kwargs else "G + I")
            return splu(A, **kwargs)

        monkeypatch.setattr(an, "eigsh", spy_eigsh)
        monkeypatch.setattr(an, "splu", spy_splu)
        low = an.spectrum(model, 12)
        np.testing.assert_allclose(low, full[:12], rtol=1e-11, atol=0)
        assert asked == [12, 15, 16]
        assert factored == ["G + I", "inertia", "inertia"]

    def test_certificate_asks_again_for_a_dropped_value(self, monkeypatch):
        """An eigensolver that drops the second value on its first call is
        caught by the inertia count, which asks again for one more."""
        model = model_2d_all_sides(12, "set2")
        full = an.spectrum(model)
        asked = []
        eigsh = an.eigsh

        def drop_second(G, k, **kwargs):
            asked.append(k)
            if len(asked) > 1:
                return eigsh(G, k=k, **kwargs)
            return np.delete(np.sort(eigsh(G, k=k + 1, **kwargs)), 1)

        monkeypatch.setattr(an, "eigsh", drop_second)
        low = an.spectrum(model, 5)
        assert asked == [5, 6]
        np.testing.assert_allclose(low, full[:5], rtol=1e-12, atol=0)

    def test_off_diagonal_pivots_take_full_route(self, monkeypatch):
        """An inertia factor that leaves the diagonal certifies nothing: the
        full route answers."""
        model = model_2d_all_sides(12, "set2")
        full = an.spectrum(model)
        splu = an.splu

        def pivoting(A, **kwargs):
            lu = splu(A, **kwargs)
            if "diag_pivot_thresh" not in kwargs:
                return lu
            return SimpleNamespace(U=lu.U, perm_c=lu.perm_c, perm_r=lu.perm_r[::-1])

        monkeypatch.setattr(an, "splu", pivoting)
        assert an.spectrum(model, 5).tobytes() == full[:5].tobytes()

    def test_repeats_bitwise(self):
        model = model_2d_all_sides(12, "set4")
        assert an.spectrum(model, 5).tobytes() == an.spectrum(model, 5).tobytes()

    def test_nothing_dense(self, monkeypatch):
        """The Lanczos route reaches neither the dense SVD nor the banded
        eigensolver of the full route."""
        def refuse(*args, **kwargs):
            raise AssertionError("full route taken")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(an, "eigvals_banded", refuse)
        assert an.spectrum(model_2d_all_sides(12, "set2"), 4).size == 4
        assert an.spectrum(an.build_1d_model(640, 0.0), 3).size == 3

    @pytest.mark.parametrize("k", [19, 20, 25])
    def test_large_k_takes_full_route(self, k, monkeypatch):
        """m = min(n_p, n_q) = 20: k >= m - 1 is sliced from the full route."""
        model = an.build_1d_model(20, 0.5)
        full = an.spectrum(model)

        def refuse(*args, **kwargs):
            raise AssertionError("Lanczos route taken")

        monkeypatch.setattr(an, "eigsh", refuse)
        assert an.spectrum(model, k).tobytes() == full[:k].tobytes()

    def test_no_convergence_is_numerical_failure(self, monkeypatch):
        def stall(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.array([]), np.array([]))

        monkeypatch.setattr(an, "eigsh", stall)
        with pytest.raises(NumericalFailureError) as exc:
            an.spectrum(model_2d_all_sides(12, "set2"), 2)
        assert exc.value.exit_code == 4

    @pytest.mark.parametrize("k", [True, 1.5, 2.0, 0, -3])
    def test_invalid_k_rejected(self, k):
        with pytest.raises(InvalidArgumentError):
            an.spectrum(an.build_1d_model(20, 0.0), k)


class TestComparisonScheme:
    @pytest.mark.parametrize("a", [0.0, 1 / 12, -1 / 6, 0.45, -0.6])
    def test_power_preservation(self, a):
        maps = pm.build_golo_1d_maps(12, a)
        inc = incidence(build_interval_mesh(12, 1.0))
        assert pm.power_residual(pm.effort_stacks(maps, inc)) <= 1e-12

    def test_zero_weight_coincides_with_flow_map_model(self):
        ours = an.build_1d_model(20, 0.0)
        theirs = an.build_golo_1d_model(20, 0.0)
        for name in ("J", "Q", "B", "C", "D"):
            diff = (getattr(ours, name) - getattr(theirs, name)).toarray()
            assert np.abs(diff).max() <= 1e-13, name

    @pytest.mark.parametrize("N,a", [(4, 0.4), (5, 1 / 3), (20, 1 / 12)])
    def test_structural_feedthrough_closed_form(self, N, a):
        """Eliminating the stacked effort map leaves the geometric decay
        (-a/(1-a))^N as the direct input-to-output term on each port."""
        model = an.build_golo_1d_model(N, a)
        expected = (-a / (1.0 - a)) ** N
        D = model.D.toarray()
        assert D[0, 1] == pytest.approx(expected, rel=1e-9)
        assert D[1, 0] == pytest.approx(-expected, rel=1e-9)
        assert D[0, 0] == D[1, 1] == 0.0

    def test_reference_values(self):
        assert abs(an.spectrum(an.build_golo_1d_model(20, 1 / 12))[0] - 1.5387) <= 5e-4
        assert abs(an.spectrum(an.build_golo_1d_model(40, -1 / 6))[4] - 13.679) <= 5e-4

    def test_orientation_calibration(self):
        """The frozen orientation (q effort weights its left node by alpha')
        is the only one whose stacked effort map stays invertible down to
        alpha' = 0, where the scheme must collapse to the alpha = 0 model."""
        N, n_nodes = 6, 7
        rows = np.repeat(np.arange(N), 2)
        cols = np.column_stack([np.arange(N), np.arange(1, n_nodes)]).ravel()

        def stacked_det(a, swapped):
            w = [1.0 - a, a] if swapped else [a, 1.0 - a]
            P_eq = sp.csr_matrix((np.tile(w, N), (rows, cols)), shape=(N, n_nodes))
            T_q = sp.csr_matrix(([1.0], ([0], [0])), shape=(1, n_nodes))
            return np.linalg.det(sp.vstack([P_eq, T_q]).toarray())

        assert stacked_det(0.0, swapped=False) != 0.0
        assert stacked_det(0.0, swapped=True) == 0.0

    def test_non_convex_flag(self):
        assert an.build_golo_1d_model(10, -1 / 6).meta["non_convex"] is True
        assert an.build_golo_1d_model(10, 1 / 12).meta["non_convex"] is False

    @pytest.mark.parametrize("a", [1.0, -1.0, 1.2])
    def test_invalid_weight(self, a):
        with pytest.raises(InvalidArgumentError):
            an.build_golo_1d_model(10, a)

    def test_invalid_size(self):
        with pytest.raises(InvalidArgumentError):
            an.build_golo_1d_model(1, 0.0)


class TestTables:
    def test_layout_and_nan_pattern(self):
        t = an.table3()
        assert t.ks == (1, 2, 3, 4, 5, 10, 20, 40, 80)
        assert len(t.columns) == 9
        for (_, _, N), vals in t.columns.items():
            for row, k in enumerate(t.ks):
                assert np.isnan(vals[row]) == (k > N)

    def test_spot_values(self):
        t3, t4 = an.table3(), an.table4()
        assert t3.columns[("mixed", "0", 20)][0] == pytest.approx(1.5321, abs=5e-4)
        assert t3.columns[("mixed", "-1/12", 80)][6] == pytest.approx(60.828, abs=5e-4)
        assert t3.columns[("mixed", "1/6", 40)][5] == pytest.approx(27.852, abs=5e-4)
        assert t4.columns[("golo", "1/12", 20)][0] == pytest.approx(1.5387, abs=5e-4)
        assert t4.columns[("golo", "-1/6", 40)][7] == pytest.approx(59.974, abs=5e-4)

    def test_zero_parameter_columns_coincide(self):
        t3, t4 = an.table3(), an.table4()
        for N in (20, 40, 80):
            np.testing.assert_allclose(
                t4.columns[("golo", "0", N)],
                t3.columns[("mixed", "0", N)],
                atol=1e-13,
            )

    def test_csv_writer(self, tmp_path):
        t = an.eig_table("mixed", [("0", 0.0)], [4, 8], ks=(1, 2, 5))
        path = an.write_eig_csv(t, tmp_path / "eigs.csv")
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["k", "exact", "alpha=0 N=4", "alpha=0 N=8"]
        assert float(rows[1][1]) == pytest.approx(HALF_PI)
        assert rows[3][2] == ""  # k = 5 unresolved at N = 4
        assert float(rows[3][3]) == pytest.approx(
            an.spectrum(an.build_1d_model(8, 0.0))[4]
        )

    def test_unknown_method(self):
        with pytest.raises(InvalidArgumentError):
            an.eig_table("spectral", [("0", 0.0)], [4])

    @pytest.mark.parametrize("ks", [(0, 1), (1, -1), (1.0,), (True,)])
    def test_mode_index_below_one_or_not_integer_rejected(self, ks):
        with pytest.raises(InvalidArgumentError):
            an.eig_table("mixed", [("0", 0.0)], [20], ks=ks)

    def test_columns_bitwise(self):
        columns = {**an.table3().columns, **an.table4().columns}
        assert {key: digest(col) for key, col in columns.items()} == TABLE_DIGESTS

    @pytest.mark.parametrize(
        "parameters, Ns, repeated",
        [([("a", 0.0), ("a", 0.5)], (20, 40), "'a'"),
         ([("a", 0.0)], (20, 20, 40), "N = 20")],
        ids=["label", "N"],
    )
    def test_repeated_column_key_rejected(self, parameters, Ns, repeated, monkeypatch):
        """A repeated label or N would overwrite a column: rejected before
        any model is built."""
        monkeypatch.setattr(an, "build_1d_model", None)
        with pytest.raises(InvalidArgumentError, match=f"repeated.*{repeated}"):
            an.eig_table("mixed", parameters, Ns)


class TestConvergence:
    def test_first_order_at_zero_weight(self):
        study = an.convergence_study([0.0], [20, 40, 80], [1])
        np.testing.assert_allclose(
            study.errors[(0.0, 1)],
            np.array([0.0387, 0.0195, 0.0098]) / 1.5708,
            atol=1e-3,
        )
        assert study.slopes[(0.0, 1)] == pytest.approx(-1.0, abs=0.1)

    def test_second_order_at_centered_weight(self):
        study = an.convergence_study([0.5], [20, 40, 80, 160], [1])
        assert study.slopes[(0.5, 1)] == pytest.approx(-2.0, abs=0.2)

    def test_under_resolved_mode_rejected(self):
        with pytest.raises(InvalidArgumentError):
            an.convergence_study([0.0], [20, 40], [40])

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            an.convergence_study([], [20], [1])

    @pytest.mark.parametrize("ks", [(0,), (1, -1), (1.5,)])
    def test_mode_index_below_one_or_not_integer_rejected(self, ks):
        with pytest.raises(InvalidArgumentError):
            an.convergence_study([0.0], [20, 40], ks)

    @pytest.mark.parametrize("Ns", [(20.9, 40.2), (20, 40.0), (True, 40)])
    @pytest.mark.parametrize(
        "run",
        [lambda Ns: an.convergence_study([0.0], Ns, [1]),
         lambda Ns: an.eig_table("mixed", [("0", 0.0)], Ns)],
        ids=["convergence_study", "eig_table"],
    )
    def test_non_integer_grid_rejected(self, run, Ns):
        """A float or bool N is rejected, not truncated to an int."""
        with pytest.raises(InvalidArgumentError, match="grid size N"):
            run(Ns)

    @pytest.mark.parametrize("Ns", [(20,), (20, 20)])
    def test_one_distinct_grid_rejected(self, Ns):
        with pytest.raises(InvalidArgumentError):
            an.convergence_study([0.0], Ns, [1])

    @pytest.mark.parametrize(
        "alphas, Ns, ks, repeated",
        [((0.0, 0.0), (20, 40), (1,), "alpha = 0.0"),
         ((0.0,), (20, 20, 40), (1,), "N = 20"),
         ((0.0,), (20, 40), (1, 2, 1), "k = 1")],
        ids=["alpha", "N", "k"],
    )
    def test_repeated_value_rejected(self, alphas, Ns, ks, repeated, monkeypatch):
        """A repeated alpha or k would merge two error rows, and a repeated N
        would count twice in the slope fit: rejected before any model is built."""
        monkeypatch.setattr(an, "build_1d_model", None)
        with pytest.raises(InvalidArgumentError, match=f"repeated {repeated}"):
            an.convergence_study(alphas, Ns, ks)

    def test_errors_bitwise(self):
        study = an.convergence_study((0.0, 0.5), (20, 40, 80, 160, 320, 640), (1,))
        assert {key: digest(e) for key, e in study.errors.items()} == CONVERGENCE_DIGESTS
