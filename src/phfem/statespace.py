"""Explicit port-Hamiltonian state space of the discrete Dirac structure.

The reduced flow/effort relations of the power-preserving maps define the
discrete Dirac structure.  Resolving the (signed) permutations between
interior efforts and boundary inputs (`assemble_model`) turns it into an
explicit input-output form

    d/dt [p~; q~] = J Q x + B u,      y = B^T Q x + D u,

with J skew-symmetric, Q the diagonal Hodge block, u = [e_b_hat; e_b]
(p-type inputs first), y the conjugated boundary flows, and D skew (zero
whenever the effort/input split is a plain permutation).  The discrete
Hamiltonian H_d = (1/2) x^T Q x then satisfies dH_d/dt = y^T u exactly
along trajectories.
"""

from __future__ import annotations

import json
import pathlib
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    InvalidArgumentError,
    MissingArtifactError,
    SingularHodgeError,
    StructureViolationError,
)
from .hodge import HodgePair
from .mesh import IncidencePair
from .power_maps import MapSet

SKEW_TOL = 1e-12


def _resolve(stack: sp.csr_matrix, Pi: sp.csr_matrix) -> sp.csr_matrix:
    """Right-multiply by Pi^{-1}.

    A (sign-)orthogonal Pi, the selector case of every mixed model, is its
    own inverse transpose, so the product stays sparse; sorted indices keep
    the exported entry order canonical.  Only the merely invertible effort
    maps of the comparison scheme (1D, small) take a dense LU solve.
    """
    gram = (Pi @ Pi.T - sp.identity(Pi.shape[0])).tocsr()
    gram.eliminate_zeros()
    if gram.nnz == 0 or np.abs(gram.data).max() <= 1e-14:
        X = (stack @ Pi.T).tocsr()
        X.eliminate_zeros()
        X.sort_indices()
        return X
    lu = spla.splu(sp.csc_matrix(Pi.T))
    return sp.csr_matrix(lu.solve(stack.toarray().T).T)


class PHModel(NamedTuple):
    """Explicit port-Hamiltonian state-space model.

    State x = [p~; q~] (n_p + n_q entries), input u = [e_b_hat; e_b]
    (m_hat p-type entries first, then m q-type), output y = [f_b_hat; f_b].
    """

    J: sp.csr_matrix
    Q: sp.csr_matrix
    B: sp.csr_matrix
    C: sp.csr_matrix
    D: sp.csr_matrix
    n_p: int
    n_q: int
    m_hat: int
    m: int
    meta: dict

    @property
    def n(self) -> int:
        return self.n_p + self.n_q

    @property
    def n_u(self) -> int:
        return self.m_hat + self.m

    def A(self) -> sp.csr_matrix:
        return (self.J @ self.Q).tocsr()

    def node_blocks(self) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
        """Certificate of the mixed structure: (J_p, diag Q_p, diag Q_q)
        when J = [[0, J_p], [J_q, 0]] with exactly zero diagonal blocks and
        |J_q + J_p^T| <= SKEW_TOL, and Q is diagonal and positive; else
        StructureViolationError naming the condition that failed."""
        n_p, J, q = self.n_p, self.J.tocsr(), self.Q.diagonal()
        J_p = J[:n_p, n_p:].tocsr()
        skew = np.abs((J[n_p:, :n_p] + J_p.T).tocsr().data).max(initial=0.0)
        for failed, condition in (
            (J[:n_p, :n_p].count_nonzero() or J[n_p:, n_p:].count_nonzero(),
             "J has a nonzero diagonal block"),
            (not skew <= SKEW_TOL, f"|J_q + J_p^T| = {skew:.3e} exceeds {SKEW_TOL}"),
            ((self.Q - sp.diags(q)).count_nonzero(), "Q is not diagonal"),
            (not np.all(q > 0), f"Q is not positive (min {q.min(initial=1.0):.6g})"),
        ):
            if failed:
                raise StructureViolationError(
                    f"model outside the mixed structure: {condition}"
                )
        return J_p, q[:n_p], q[n_p:]


def assemble_model(
    maps: MapSet,
    inc: IncidencePair,
    hodge: HodgePair,
    meta: dict | None = None,
) -> PHModel:
    """Combine structure (maps) and metric (Hodge pair) into a PH model.

    The flow and output rows of each law are right-multiplied by the
    inverse of its stacked effort map [P_e; T] (`_resolve`), which gives
    the blocks of J, B, C and D in one product per law.  The power balance
    of the result is checked by the callers that build (`sim.build_model`)
    or load (`load_model`) a model, each once.
    """
    n_p, n_q = maps.P_fp.shape[0], maps.P_fq.shape[0]
    Pi_q = sp.vstack([maps.P_eq, maps.T_q]).tocsr()
    Pi_p = sp.vstack([maps.P_ep, maps.T_p_hat]).tocsr()
    if Pi_q.shape[0] != Pi_q.shape[1] or Pi_p.shape[0] != Pi_p.shape[1]:
        raise InvalidArgumentError(
            "effort selectors and input traces do not tile the effort spaces"
        )
    # rows of X_q: p flows, then p-type outputs; columns: q efforts, then
    # q-type inputs.  X_p mirrors this with p and q swapped.
    sgn = (-1.0) ** maps.r
    X_q = _resolve(
        sp.vstack([sgn * (maps.P_fp @ inc.d_p.astype(float)), maps.S_q_hat]).tocsr(),
        Pi_q,
    )
    X_p = _resolve(
        sp.vstack([maps.P_fq @ inc.d_q.astype(float), maps.S_p]).tocsr(), Pi_p
    )

    def off_diagonal(upper, lower):
        return sp.bmat([[None, upper], [lower, None]], format="csr")

    J = off_diagonal(-X_q[:n_p, :n_q], -X_p[:n_q, :n_p])
    B = off_diagonal(-X_q[:n_p, n_q:], -X_p[:n_q, n_p:])
    C = off_diagonal(X_q[n_p:, :n_q], X_p[n_q:, :n_p])
    D = off_diagonal(X_q[n_p:, n_q:], X_p[n_q:, n_p:])
    m_hat, m = X_p.shape[1] - n_p, X_q.shape[1] - n_q
    if hodge.Q_p.shape[0] != n_p or hodge.Q_q.shape[0] != n_q:
        raise InvalidArgumentError(
            f"Hodge blocks ({hodge.Q_p.shape[0]}, {hodge.Q_q.shape[0]}) do not "
            f"match state dimensions ({n_p}, {n_q})"
        )
    Q = hodge.as_block()

    return PHModel(J, Q, B, C, D, n_p, n_q, m_hat, m, dict(meta or {}))


def power_balance_residual(model: PHModel) -> float:
    """Max-abs violation of skew-symmetry (J, D) and collocation (C = B^T):
    zero means dH_d/dt = y^T u holds exactly along trajectories."""
    vals = []
    for mat in (model.J + model.J.T, model.D + model.D.T, model.C - model.B.T):
        mat = sp.csr_matrix(mat)
        mat.eliminate_zeros()
        vals.append(np.abs(mat.data).max() if mat.nnz else 0.0)
    return float(max(vals))


# ---------------------------------------------------------------------------
# serialization

_MATRICES = ("J", "Q", "B", "C", "D")


def export_model(model: PHModel, outdir) -> pathlib.Path:
    """Write the model matrices (Matrix Market) plus manifest.json."""
    out = pathlib.Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    from scipy.io import mmwrite

    for name in _MATRICES:
        mat = sp.coo_matrix(getattr(model, name))
        mmwrite(str(out / f"{name}.mtx"), mat)
    manifest = {
        "format": "phfem-model/v1",
        "n_p": model.n_p,
        "n_q": model.n_q,
        "m_hat": model.m_hat,
        "m": model.m,
        "meta": model.meta,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return out


def load_model(indir) -> PHModel:
    """Read a model written by `export_model` and re-validate it: the
    matrix shapes must agree with the manifest dimensions, every stored
    entry of J, B, C and D must couple a p-type index with a q-type one
    (the block pattern `assemble_model` produces, which pins the split
    into n_p, n_q and m_hat, m), Q must be diagonal, the power balance
    must hold to SKEW_TOL and the diagonal of Q must be positive.  A
    loaded model therefore passes `PHModel.node_blocks`."""
    indir = pathlib.Path(indir)
    mf = indir / "manifest.json"
    if not mf.is_file():
        raise MissingArtifactError(f"no manifest.json under {indir}")
    try:
        manifest = json.loads(mf.read_text())
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(
            f"manifest parse error in {mf} at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(manifest, dict):
        raise InvalidArgumentError(
            f"{mf} must hold a JSON object, not a {type(manifest).__name__}"
        )
    meta = manifest.get("meta", {})
    if not isinstance(meta, dict):
        raise InvalidArgumentError(f"{mf}: meta must be an object, got {meta!r}")
    dims = {key: manifest.get(key) for key in ("n_p", "n_q", "m_hat", "m")}
    for key, v in dims.items():
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            raise InvalidArgumentError(
                f"{mf}: {key} must be a non-negative integer, got {v!r}"
            )
    from scipy.io import mmread

    n_p, m_hat = dims["n_p"], dims["m_hat"]
    n, n_u = n_p + dims["n_q"], m_hat + dims["m"]
    shapes = {
        "J": (n, n), "Q": (n, n), "B": (n, n_u), "C": (n_u, n), "D": (n_u, n_u)
    }
    # numbers of p-type rows and columns
    p_split = {
        "J": (n_p, n_p), "B": (n_p, m_hat), "C": (m_hat, n_p), "D": (m_hat, m_hat)
    }
    mats = {}
    for name in _MATRICES:
        path = indir / f"{name}.mtx"
        if not path.is_file():
            raise MissingArtifactError(f"model matrix file missing: {path}")
        try:
            mat = sp.coo_matrix(mmread(str(path)))
        except ValueError as exc:
            raise InvalidArgumentError(
                f"unreadable model matrix {path}: {exc}"
            ) from None
        if mat.shape != shapes[name]:
            raise InvalidArgumentError(
                f"model matrix {path} has shape {mat.shape}, but the "
                f"manifest dimensions {dims} require {shapes[name]}"
            )
        if name == "Q":
            bad = mat.row != mat.col
            why = "off the diagonal; the Hodge matrix must be diagonal"
        else:
            p_rows, p_cols = p_split[name]
            bad = (mat.row < p_rows) == (mat.col < p_cols)
            why = f"coupling two indices of one type under the manifest split {dims}"
        bad &= mat.data != 0
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise InvalidArgumentError(
                f"model matrix {path} has entry ({mat.row[i]}, {mat.col[i]}) {why}"
            )
        mats[name] = mat.tocsr()
    model = PHModel(**mats, **dims, meta=meta)
    resid = power_balance_residual(model)
    if not resid <= SKEW_TOL:
        raise StructureViolationError(
            f"loaded model {indir} violates power balance: residual {resid:.3e}"
        )
    q = model.Q.diagonal()
    if not np.all(q > 0):
        bad = int(np.flatnonzero(~(q > 0))[0])
        raise SingularHodgeError(
            f"model matrix {indir / 'Q.mtx'} has diagonal entry {bad} = "
            f"{q[bad]:.6g}; the Hodge matrix must be positive definite"
        )
    return model
