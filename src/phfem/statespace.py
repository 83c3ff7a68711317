"""Explicit port-Hamiltonian state space of the discrete Dirac structure.

The reduced flow/effort relations of the power-preserving maps define the
discrete Dirac structure.  Resolving the (signed) permutations between
interior efforts and boundary inputs (`assemble_model`) turns it into an
explicit input-output form, one system matrix

    [d/dt x]   [J  B] [Q x]
    [  y   ] = [C  D] [ u ]

over the state x = [p~; q~] and the input u = [e_b_hat; e_b] (p-type
inputs first), its rows and columns both ordered [p; q; p-type ports;
q-type ports].  J is skew-symmetric, Q the diagonal Hodge block, y the
conjugated boundary flows, C = B^T and D skew (zero whenever the
effort/input split is a plain permutation).  The discrete Hamiltonian
H_d = (1/2) x^T Q x then satisfies dH_d/dt = y^T u exactly along
trajectories.

The system matrix exists only as CSR arrays (`mesh.CSRArrays`) inside
`assemble_model`: a `PHModel` holds its four blocks J, B, C and D and the
Hodge block Q, each a canonical CSR matrix constructed once.
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
    read_json,
)
from .hodge import HodgePair
from .mesh import CSRArrays, csr, kept, max_abs_sum, sort_rows
from .power_maps import EffortStacks

SKEW_TOL = 1e-12


def _resolve(stack, Pi) -> CSRArrays:
    """The CSR arrays of the stack right-multiplied by Pi^{-1} (both CSR
    matrices or `CSRArrays`), canonical: sorted indices, no duplicates,
    no stored zeros.

    A signed permutation Pi (one nonzero per row, +1 or -1, in a column no
    other row uses; the selectors of every mixed model) has Pi^{-1} = Pi^T,
    so the product is an exact gather of signed columns, read off Pi's CSR
    arrays, with zeros dropped and indices sorted.  The gather reuses the
    stack's arrays, so the stack is consumed: its memory becomes the
    product's.  Any other Pi (the comparison scheme's effort maps, 1D and
    small) takes a dense LU solve, whose nonzeros are read off row by row.
    """
    n = Pi.shape[0]
    nonzero = Pi.data != 0
    rows = np.repeat(np.arange(n), np.diff(Pi.indptr))[nonzero]
    cols, signs = Pi.indices[nonzero], Pi.data[nonzero]
    if rows.size == n and np.all(np.abs(signs) == 1) and all(
        np.all(np.bincount(index, minlength=n) == 1) for index in (rows, cols)
    ):
        # stack column cols[i] becomes column rows[i] of the product, times signs[i]
        target, sign = np.empty(n, dtype=stack.indices.dtype), np.empty(n)
        target[cols], sign[cols] = rows, signs
        stack.data[:] *= sign[stack.indices]
        stack.indices[:] = target[stack.indices]
        X = CSRArrays(stack.data, stack.indices, stack.indptr, stack.shape)
        if not X.data.all():
            X = kept(X, X.data != 0)
        sort_rows(X)
        return X
    lu = spla.splu(sp.csc_matrix((Pi.data, Pi.indices, Pi.indptr), shape=Pi.shape[::-1]))
    dense = np.zeros(stack.shape)
    dense[np.repeat(np.arange(stack.shape[0]), np.diff(stack.indptr)), stack.indices] = stack.data
    X = lu.solve(dense.T).T
    rows, cols = np.nonzero(X)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=X.shape[0]))])
    return CSRArrays(X[rows, cols], cols, indptr, X.shape)


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
        """A = J Q, whose nnz `perfbench` reports."""
        return (self.J @ self.Q).tocsr()

    def node_blocks(self) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
        """Certificate of the mixed structure: (J_p, diag Q_p, diag Q_q)
        when J = [[0, J_p], [J_q, 0]] with exactly zero diagonal blocks and
        |J_q + J_p^T| <= SKEW_TOL, and Q is diagonal, finite and positive;
        else StructureViolationError naming the condition that failed."""
        n_p, J, q = self.n_p, self.J, self.Q.diagonal()
        rows = np.repeat(np.arange(J.shape[0]), np.diff(J.indptr))
        # with zero diagonal blocks, J + J^T holds J_q + J_p^T and its transpose
        skew = max_abs_sum(J, J)
        for failed, condition in (
            (np.any(((rows < n_p) == (J.indices < n_p)) & (J.data != 0)),
             "J has a nonzero diagonal block"),
            (not skew <= SKEW_TOL, f"|J_q + J_p^T| = {skew:.3e} exceeds {SKEW_TOL}"),
            (self.Q.count_nonzero() != np.count_nonzero(q), "Q is not diagonal"),
            (not np.all(np.isfinite(q)), "Q is not finite and positive"),
            (not np.all(q > 0), f"Q is not positive (min {q.min(initial=1.0):.6g})"),
        ):
            if failed:
                raise StructureViolationError(
                    f"model outside the mixed structure: {condition}"
                )
        # J_p: the first n_p rows' entries in the columns of x_q, in order
        J_p = kept(J, (rows < n_p) & (J.indices >= n_p))
        J_p = csr(J_p.data, J_p.indices - n_p, J_p.indptr[: n_p + 1], (n_p, J.shape[1] - n_p))
        return J_p, q[:n_p], q[n_p:]


def node_coupling(J_p: sp.csr_matrix, q_q: np.ndarray) -> tuple:
    """(J_p Q_q, J_p Q_q J_p^T) from the blocks `PHModel.node_blocks`
    certifies: the one construction of the node coupling, which both the
    midpoint stepper's node matrix Q_p^-1 + h^2 J_p Q_q J_p^T and the
    lowest-k spectrum's Gram matrix Q_p^(1/2) J_p Q_q J_p^T Q_p^(1/2) hold."""
    J_p_Q_q = (J_p @ sp.diags(q_q)).tocsr()
    return J_p_Q_q, (J_p_Q_q @ J_p.T).tocsr()


def assemble_model(
    stacks: EffortStacks, hodge: HodgePair, meta: dict | None = None
) -> PHModel:
    """Combine structure (the `power_maps.effort_stacks` of the maps) and
    metric (Hodge pair) into a PH model.

    The flow and output rows of each law are right-multiplied by the
    inverse of its stacked effort map [P_e; T] (`_resolve`, which consumes
    the stacks: their memory becomes the model's).  Both products are
    canonical CSR arrays.  Their rows, flows negated, are the rows of the
    system matrix [[J, B], [C, D]] (rows p flows, q flows, p-type outputs,
    q-type outputs; columns x_p, x_q, u_p, u_q), and J, B, C and D are cut
    out of those arrays (a column mask, then a row cut), one construction
    each; Q is built from the Hodge diagonals.  The power balance of the
    result is checked by the callers that build (`sim.build_model`) or load
    (`load_model`) a model, each once.
    """
    F_q, Pi_q, F_p, Pi_p, n_p, n_q = stacks
    if Pi_q.shape[0] != Pi_q.shape[1] or Pi_p.shape[0] != Pi_p.shape[1]:
        raise InvalidArgumentError(
            "effort selectors and input traces do not tile the effort spaces"
        )
    if hodge.q_p.size != n_p or hodge.q_q.size != n_q:
        raise InvalidArgumentError(
            f"Hodge blocks ({hodge.q_p.size}, {hodge.q_q.size}) do not "
            f"match state dimensions ({n_p}, {n_q})"
        )
    m_hat, m = Pi_p.shape[0] - n_p, Pi_q.shape[0] - n_q
    n, n_u = n_p + n_q, m_hat + m

    def rows(F, Pi, n_flows, n_efforts, shift, input_shift):
        """A law's resolved rows as (data, indices, row lengths): its flow
        rows, negated, then its output rows.  The columns (its efforts, then
        its inputs) move to their place in [x_p; x_q; u_p; u_q], in place in
        the owned product; the map increases, so every row stays sorted."""
        X = _resolve(F, Pi)
        cut = X.indptr[n_flows]
        X.data[:cut] *= -1.0
        X.indices[X.indices >= n_efforts] += input_shift
        X.indices[:] += shift
        lengths = np.diff(X.indptr)
        return (
            (X.data[:cut], X.indices[:cut], lengths[:n_flows]),
            (X.data[cut:], X.indices[cut:], lengths[n_flows:]),
        )

    (flows_q, outputs_q), (flows_p, outputs_p) = (
        rows(F_q, Pi_q, n_p, n_q, n_p, m_hat), rows(F_p, Pi_p, n_q, n_p, 0, n_q)
    )

    data, indices, lengths = (
        np.concatenate(arrays) for arrays in zip(flows_q, flows_p, outputs_q, outputs_p)
    )
    system = CSRArrays(data, indices, np.concatenate([[0], np.cumsum(lengths)]), (n + n_u,) * 2)
    blocks = []  # [J; C] over the state columns, then [B; D] over the input columns
    state = indices < n
    for part, shift, width in ((kept(system, state), 0, n), (kept(system, ~state), n, n_u)):
        cut = part.indptr[n]
        blocks += [
            csr(part.data[:cut], part.indices[:cut] - shift, part.indptr[: n + 1], (n, width)),
            csr(part.data[cut:], part.indices[cut:] - shift, part.indptr[n:] - cut, (n_u, width)),
        ]
    J, C, B, D = blocks
    return PHModel(J, hodge.as_block(), B, C, D, n_p, n_q, m_hat, m, dict(meta or {}))


def power_balance_residual(model: PHModel) -> float:
    """Max-abs violation of skew-symmetry (J, D) and collocation (C = B^T):
    zero means dH_d/dt = y^T u holds exactly along trajectories."""
    J, B, C, D = model.J, model.B, model.C, model.D
    return max(max_abs_sum(J, J), max_abs_sum(D, D), max_abs_sum(C, B, -1.0))


# ---------------------------------------------------------------------------
# serialization

_MATRICES = ("J", "Q", "B", "C", "D")
_FORMAT = "phfem-model/v1"


def export_model(model: PHModel, outdir) -> pathlib.Path:
    """Write the model matrices (Matrix Market) plus manifest.json."""
    out = pathlib.Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    from scipy.io import mmwrite

    for name in _MATRICES:
        mat = sp.coo_matrix(getattr(model, name))
        mmwrite(str(out / f"{name}.mtx"), mat)
    manifest = {
        "format": _FORMAT,
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
    manifest format must be phfem-model/v1, the matrix shapes must agree
    with the manifest dimensions, every stored entry must be finite, every
    nonzero entry of J, B, C and D must couple a p-type index with a q-type
    one (the block pattern `assemble_model` produces, which pins the split
    into n_p, n_q and m_hat, m), Q must be diagonal, the power balance must
    hold to SKEW_TOL and the diagonal of Q must be positive.  A loaded model
    therefore passes `PHModel.node_blocks`."""
    indir = pathlib.Path(indir)
    mf = indir / "manifest.json"
    if not mf.is_file():
        raise MissingArtifactError(f"no manifest.json under {indir}")
    manifest = read_json(mf, "manifest", obj=True)
    if manifest.get("format") != _FORMAT:
        raise InvalidArgumentError(
            f"{mf}: format must be {_FORMAT!r}, got {manifest.get('format')!r}"
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
        bad = (bad & (mat.data != 0)) | ~np.isfinite(mat.data)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            if not np.isfinite(mat.data[i]):
                why = f"= {mat.data[i]}, which is not finite"
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
