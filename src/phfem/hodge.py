"""Diagonal discrete Hodge matrices: the constitutive/metric side.

The reduced states pair with efforts through diagonal, positive definite
matrices Q_p, Q_q: e~_p = Q_p p~ and e~_q = Q_q q~, defining the discrete
Hamiltonian H_d = (1/2)(p~^T Q_p p~ + q~^T Q_q q~).

Consistency fixes the entries from the geometry of the reduction maps:

* Q_p averages 2-form densities over the weighted balance areas that make
  up each reduced p state: [Q_p]_ii = 2 / (h^2 * rowsum_i(P_fp)).
* Q_q turns the transverse (perpendicular-edge) part of each reduced q
  state into a flux across the effort edge: 1 / abs-rowsum of the perp
  block for horizontal/vertical edges, 2 / abs-rowsum for diagonals (each
  perpendicular pair sees only half of the crossing flux there).

In 1D the same reasoning gives (1/h) diagonals with a single 1/(1-alpha)
entry at the inflow end of each family; alpha = 1 makes that entry blow up.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import InvalidArgumentError, SingularHodgeError, scalar
from .mesh import SimplexMesh, csr
from .power_maps import MapSet

WEIGHT_FLOOR = 1e-14


class HodgePair(NamedTuple):
    """Diagonal Hodge matrices (sparse) for the reduced state [p~; q~]."""

    Q_p: sp.csr_matrix
    Q_q: sp.csr_matrix

    def as_block(self) -> sp.csr_matrix:
        return _diagonal(np.concatenate([self.Q_p.diagonal(), self.Q_q.diagonal()]))


def _pair(q_p: np.ndarray, q_q: np.ndarray) -> HodgePair:
    """The pair with diagonals q_p and q_q, each entry finite and positive:
    SingularHodgeError names an entry that a mesh size over- or underflows."""
    for name, q in (("Q_p", q_p), ("Q_q", q_q)):
        bad = np.flatnonzero(~(np.isfinite(q) & (q > 0)))
        if bad.size:
            raise SingularHodgeError(
                f"Hodge entry {name}[{bad[0]}] = {q[bad[0]]:.6g} is not finite and positive"
            )
    return HodgePair(_diagonal(q_p), _diagonal(q_q))


def _diagonal(values: np.ndarray) -> sp.csr_matrix:
    """Diagonal CSR matrix with the given entries, built from index arrays."""
    n = len(values)
    return csr(values, np.arange(n), np.arange(n + 1), (n, n))


def hodge_2d(mesh: SimplexMesh, maps: MapSet) -> HodgePair:
    """Consistent diagonal Hodge pair for a uniform square grid, from the
    cell size mesh.h and the map set's P_fp, transverse part perp of P_fq and
    effort edges P_eq.indices (the mesh edge behind each P_fq row, which
    tells diagonal from horizontal/vertical edges)."""
    if mesh.dim != 2:
        raise InvalidArgumentError("hodge_2d requires a 2D mesh")
    h = mesh.h

    p_weights = np.asarray(maps.P_fp.sum(axis=1)).ravel()
    if np.any(p_weights <= WEIGHT_FLOOR):
        bad = int(np.argmin(p_weights))
        raise SingularHodgeError(
            f"P_fp row {bad} has nonpositive weight sum {p_weights[bad]:.3e}; "
            "the triangle weights leave this node without balance area"
        )

    abs_sums = np.asarray(abs(maps.perp).sum(axis=1)).ravel()
    if np.any(abs_sums <= WEIGHT_FLOOR):
        bad = int(np.argmin(abs_sums))
        raise SingularHodgeError(
            f"transverse part of P_fq row {bad} (edge {maps.P_eq.indices[bad]}) has "
            f"absolute sum {abs_sums[bad]:.3e}; no flux information crosses "
            "this effort edge"
        )
    factor = np.where(mesh.edge_class[maps.P_eq.indices] == "d", 2.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        return _pair(2.0 / (h * h * p_weights), factor / abs_sums)


def hodge_1d(N: int, alpha: float, h: float) -> HodgePair:
    """Upwinded 1D Hodge pair: 1/(1-alpha) at the q-inflow end of Q_p and
    the p-inflow end of Q_q, 1 elsewhere, all scaled by 1/h."""
    N, alpha, h = scalar(N, "N", integer=True), scalar(alpha, "alpha"), scalar(h, "h")
    if N < 1 or h <= 0:
        raise InvalidArgumentError(f"need N >= 1 and a mesh size h > 0, got N={N}, h={h}")
    if alpha >= 1:
        raise SingularHodgeError(
            f"alpha = {alpha}: the boundary Hodge entry 1/(1-alpha) degenerates"
        )
    dp = np.ones(N)
    dp[0] = 1.0 / (1.0 - alpha)
    dq = np.ones(N)
    dq[-1] = 1.0 / (1.0 - alpha)
    with np.errstate(over="ignore"):
        return _pair(dp / h, dq / h)


def hodge_golo_1d(N: int, h: float) -> HodgePair:
    """Identity-per-length Hodge pair used with effort-averaged 1D models:
    the upwinded pair at alpha = 0, where the boundary entries are 1/h too."""
    return hodge_1d(N, 0.0, h)
