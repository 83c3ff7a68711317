"""Self-checks of the test oracles (quadrature exactness, FV energy
conservation, exponential propagator) before they are trusted elsewhere."""

import numpy as np
import pytest

from oracles import (
    SEG_QP,
    SEG_QW,
    TRI_QP,
    TRI_QW,
    TriangleFrame,
    dense_rank_mod_p,
    expm_trajectory,
    staggered_fv_1d,
)


def fact(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def test_triangle_rule_integrates_barycentric_monomials():
    # degree <= 4 monomials on a skewed triangle vs the factorial formula
    tri = TriangleFrame(np.array([[0.2, -0.1], [1.7, 0.3], [0.4, 1.9]]))
    for a in range(5):
        for b in range(5 - a):
            for c in range(5 - a - b):
                exact = (
                    fact(a) * fact(b) * fact(c) / fact(a + b + c + 2) * 2 * tri.area
                )
                num = tri.integrate(
                    lambda p, a=a, b=b, c=c: float(
                        tri.lam(p)[0, 0] ** a
                        * tri.lam(p)[0, 1] ** b
                        * tri.lam(p)[0, 2] ** c
                    )
                )
                assert num == pytest.approx(exact, abs=1e-14)


def test_quadrature_weights_normalized():
    assert TRI_QW.sum() == pytest.approx(1.0, abs=1e-15)
    assert TRI_QP.sum(axis=1) == pytest.approx(np.ones(6), abs=1e-15)
    assert SEG_QW.sum() == pytest.approx(1.0, abs=1e-15)
    # segment rule integrates s^4 on [0,1] exactly
    assert (SEG_QW @ SEG_QP**4) == pytest.approx(0.2, abs=1e-15)


def test_fv_oracle_is_port_hamiltonian():
    # with H = h/2 sum (P_i/h)^2 + (Q_i/h)^2, i.e. Q_H = I/h, the FV system
    # must satisfy the lossless power balance: A = J Q_H with J skew, C = B^T Q_H^{-1}...
    # equivalently Q_H A skew and C = B^T Q_H
    N = 7
    h = 1.0 / N
    A, B, C, D = staggered_fv_1d(N)
    QH = np.eye(2 * N) / h
    skew = QH @ A
    assert np.abs(skew + skew.T).max() < 1e-13
    assert np.abs(C - B.T @ QH).max() < 1e-13
    assert np.abs(D).max() == 0.0


def test_fv_oracle_conserves_energy_unforced():
    N = 5
    h = 1.0 / N
    A, _, _, _ = staggered_fv_1d(N)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(2 * N)
    # exact flow map over t=1
    import scipy.linalg as sla

    x1 = sla.expm(A) @ x
    H0 = 0.5 * (x @ x) / h
    H1 = 0.5 * (x1 @ x1) / h
    assert H1 == pytest.approx(H0, rel=1e-12)


def test_expm_trajectory_matches_analytic_rotation():
    # dx/dt = [[0,1],[-1,0]] x + b, constant b: x(t) = R(t)x0 + A^{-1}(R(t)-I)b
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    B = np.eye(2)
    b = np.array([0.3, -0.7])
    x0 = np.array([1.0, 2.0])
    dt, n = 0.05, 40
    xs = expm_trajectory(A, B, lambda t: b, dt, n, x0)
    T = dt * n
    R = np.array([[np.cos(T), np.sin(T)], [-np.sin(T), np.cos(T)]])
    exact = R @ x0 + np.linalg.solve(A, (R - np.eye(2)) @ b)
    assert np.abs(xs[-1] - exact).max() < 1e-12


def test_dense_rank_mod_p_matches_rational_rank():
    # small entries keep every minor below p: the rank over GF(p) is the
    # rank over the rationals; a multiple of p vanishes
    rng = np.random.default_rng(3)
    p = 2**31 - 1
    for shape in [(1, 1), (4, 7), (9, 5), (12, 12)]:
        a = rng.integers(-2, 3, shape)
        if shape[0] > 2:
            a[-1] = a[0] - 2 * a[1]  # a planted dependent row
        assert dense_rank_mod_p(a, p) == np.linalg.matrix_rank(a)
    assert dense_rank_mod_p(np.array([[p, 0], [0, 1]]), p) == 1
    assert dense_rank_mod_p(np.array([[2, 1], [1, 1]]), 3) == 2
    assert dense_rank_mod_p(np.array([[2, 1], [1, 2]]), 3) == 1
