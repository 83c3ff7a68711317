"""Spectral analysis of the 1D two-conservation-law family.

Provides the frequencies of a conservative model (`spectrum`: singular
values of the node coupling S certified by `PHModel.node_blocks()`),
frequency tables over the flow-map parameter alpha and over the effort-map
parameter alpha' of a comparison scheme, and log-log convergence-order
estimation against the closed-form frequencies (2k - 1) * pi / (2L).

The singular values of S are the positive eigenvalues of the symmetric
matrix [[0, S], [S^T, 0]].  When reverse Cuthill-McKee orders that matrix
into a band of half-width b with b^2 <= min(n_p, n_q) (the 1-D mixed
models), `spectrum` takes them from a banded eigensolver in O(n^2 b)
work and O(n b) memory; wider bands (the comparison scheme at alpha' != 0,
2-D meshes) keep a dense SVD of S.  The Bauer-Fike bound of the
certificate's skew slack holds on both routes (see `spectrum`).

The comparison scheme (`build_golo_1d_model`) keeps both flow maps at the
identity and instead forms the reduced efforts as convex combinations of the
two adjacent node efforts: the p effort on edge i weights node i with
1 - alpha' and node i + 1 with alpha', the q effort mirrors this.  Its
boundary outputs are solved from the same power-preservation equation as
everywhere else; because the stacked effort maps are merely invertible (not
selectors) the resolved model carries a feedthrough matrix D != 0 whenever
alpha' != 0.  At alpha' = 0 both constructions collapse to the identical
staggered model.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigvals_banded
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import InvalidArgumentError, NumericalFailureError
from .sim import build_model
from .statespace import PHModel

#: smallest frequency reported; lower singular values count as zero modes
REAL_PART_TOL = 1e-9

#: mode indices printed in the reference frequency tables
TABLE_KS = (1, 2, 3, 4, 5, 10, 20, 40, 80)
#: grid sizes of the reference frequency tables
TABLE_NS = (20, 40, 80)
#: flow-map parameters of the first reference table, with display labels
TABLE3_ALPHAS = (("-1/12", -1.0 / 12.0), ("0", 0.0), ("1/6", 1.0 / 6.0))
#: effort-map parameters of the comparison table
TABLE4_ALPHA_PRIMES = (("1/12", 1.0 / 12.0), ("0", 0.0), ("-1/6", -1.0 / 6.0))


def exact_frequencies(ks, L: float = 1.0) -> np.ndarray:
    """Closed-form angular frequencies (2k - 1) * pi / (2L) of the interval
    of length L with effort clamped at one end per field."""
    ks = np.asarray(ks, dtype=float)
    return (2.0 * ks - 1.0) * np.pi / (2.0 * L)


def _mode_indices(ks) -> tuple:
    """ks as a tuple of mode indices, each an integer >= 1."""
    ks = tuple(ks)
    for k in ks:
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
            raise InvalidArgumentError(f"mode index must be an integer >= 1, got {k!r}")
    return ks


def spectrum(model: PHModel) -> np.ndarray:
    """Positive frequencies of the model (imaginary parts of eig(A) above
    REAL_PART_TOL), ascending.

    Every model `sim.build_model` builds or `statespace.load_model` loads
    passes `PHModel.node_blocks()`: J = [[0, J_p], [J_q, 0]] with
    J_q = -J_p^T and Q = diag(Q_p, Q_q) > 0.  Scaling by Q^(1/2) makes
    A = J Q similar to [[0, S], [-S^T, 0]] with S = Q_p^(1/2) J_p Q_q^(1/2),
    whose eigenvalues are +-i sigma_k(S) plus |n_p - n_q| zeros.  So the
    frequencies are the singular values of the sparse n_p x n_q matrix S,
    and they lie on the imaginary axis by construction: no purity check is
    left to make.  The certificate bounds the entries of E = J_q + J_p^T
    by SKEW_TOL rather than requiring zero, and S takes J_q as -J_p^T.
    As [[0, S], [-S^T, 0]] is normal, Bauer-Fike bounds the eigenvalue
    shift this causes by ||Q_q^(1/2) E Q_p^(1/2)||_2: at most SKEW_TOL
    times the largest row or column count of E times max(Q).

    The singular values come from one of two routes, chosen from S alone.
    The symmetric Jordan-Wielandt matrix H = [[0, S], [S^T, 0]] has the
    eigenvalues +-sigma_k(S) plus |n_p - n_q| zeros (Golub & Kahan, 1965),
    so its eigenvalues above REAL_PART_TOL are the frequencies.  Reverse
    Cuthill-McKee on the bipartite graph of H gives a half-bandwidth b;
    when b^2 <= min(n_p, n_q) (mixed 1-D models, b <= 2, from N = 4 on,
    and the comparison scheme at alpha' = 0) the banded LAPACK eigensolver
    takes H in O(n^2 b) work and O(n b) memory.  A wider band (the
    comparison scheme at alpha' != 0, b up to N - 1; 2-D meshes, b = 31
    at 6 x 6 and 181 at 24 x 24) makes the band reduction slower than a
    dense SVD of S, which those models keep.

    Any other model (a hand-built or permuted one) has no certified
    frequencies: the StructureViolationError of `node_blocks` propagates.
    """
    J_p, q_p, q_q = model.node_blocks()
    S = (sp.diags(np.sqrt(q_p)) @ J_p @ sp.diags(np.sqrt(q_q))).tocsr()
    H = sp.bmat([[None, S], [S.T, None]], format="coo")
    order = reverse_cuthill_mckee(H.tocsr(), symmetric_mode=True)
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size)
    row, col = pos[H.row], pos[H.col]
    b = int(np.abs(row - col).max(initial=0))
    try:
        if b * b <= min(S.shape):
            lower = row > col
            band = np.zeros((b + 1, order.size))
            band[row[lower] - col[lower], col[lower]] = H.data[lower]
            lam = eigvals_banded(band, lower=True, overwrite_a_band=True)
            return lam[lam > REAL_PART_TOL]
        sigma = np.linalg.svd(S.toarray(), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"singular value computation failed: {exc}") from exc
    return np.sort(sigma[sigma > REAL_PART_TOL])


def build_1d_model(N: int, alpha: float, L: float = 1.0) -> PHModel:
    """Interval model with flow-map weight alpha (see `sim.build_model`)."""
    mesh = {"kind": "interval", "N": N, "L": L}
    return build_model({"mesh": mesh, "alpha": alpha}).model


def build_golo_1d_model(N: int, alpha_prime: float, L: float = 1.0) -> PHModel:
    """Comparison model with effort-interpolation weight alpha' on (-1, 1);
    values below 0 leave the convex range (the interpolation extrapolates)
    and are flagged as non_convex in the model metadata."""
    mesh = {"kind": "interval", "N": N, "L": L}
    return build_model({"mesh": mesh, "method": "golo", "alpha_prime": alpha_prime}).model


class EigTable(NamedTuple):
    """Frequency table: one row per mode index, one column per (method,
    parameter label, N) cell group; NaN where the model resolves fewer modes
    than requested (k > N)."""

    ks: tuple
    exact: np.ndarray
    columns: dict  # {(method, label, N): np.ndarray aligned with ks}


def eig_table(method: str, parameters, Ns, ks=TABLE_KS) -> EigTable:
    """Tabulate the k-th discrete frequencies over a parameter/size sweep.

    parameters is a sequence of (label, value) pairs; method selects the
    model family ("mixed" -> build_1d_model, "golo" -> build_golo_1d_model).
    """
    builders: dict[str, Callable[[int, float], PHModel]] = {
        "mixed": build_1d_model,
        "golo": build_golo_1d_model,
    }
    if method not in builders:
        raise InvalidArgumentError(f"unknown method {method!r}")
    ks = _mode_indices(ks)
    columns = {}
    for label, value in parameters:
        for N in Ns:
            freqs = spectrum(builders[method](int(N), float(value)))
            columns[(method, label, int(N))] = np.array(
                [freqs[k - 1] if k <= freqs.size else np.nan for k in ks]
            )
    return EigTable(ks=ks, exact=exact_frequencies(ks), columns=columns)


def table3() -> EigTable:
    """Frequencies of the flow-map family at the reference parameters."""
    return eig_table("mixed", TABLE3_ALPHAS, TABLE_NS)


def table4() -> EigTable:
    """Frequencies of the effort-map comparison at the reference parameters."""
    return eig_table("golo", TABLE4_ALPHA_PRIMES, TABLE_NS)


_PARAM_NAMES = {"mixed": "alpha", "golo": "alpha_prime"}


def write_eig_csv(table: EigTable, path) -> "pathlib.Path":
    """CSV layout: k, exact, then one column per (parameter, N) cell group.

    Unresolved cells (NaN) are left empty.
    """
    import csv
    import pathlib

    path = pathlib.Path(path)
    header = ["k", "exact"] + [
        f"{_PARAM_NAMES.get(method, method)}={label} N={N}"
        for (method, label, N) in table.columns
    ]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row, k in enumerate(table.ks):
            cells = [str(k), f"{table.exact[row]:.10g}"]
            for values in table.columns.values():
                v = values[row]
                cells.append("" if np.isnan(v) else f"{v:.10g}")
            writer.writerow(cells)
    return path


class ConvergenceStudy(NamedTuple):
    """Relative frequency errors and their log-log slopes over N.

    errors maps (alpha, k) to the per-N relative errors; slopes maps the
    same keys to the least-squares slope of log(error) against log(N)
    (order -s convergence shows up as slope -s).
    """

    alphas: tuple
    Ns: tuple
    ks: tuple
    errors: dict
    slopes: dict


def convergence_study(alphas, Ns, ks) -> ConvergenceStudy:
    """Sweep build_1d_model over alphas x Ns and fit convergence orders."""
    alphas, Ns, ks = tuple(alphas), tuple(int(N) for N in Ns), _mode_indices(ks)
    if not alphas or not ks:
        raise InvalidArgumentError("alphas and ks must be nonempty")
    if len(set(Ns)) < 2:
        raise InvalidArgumentError(
            f"a convergence slope needs at least two distinct N, got {Ns}"
        )
    if max(ks) > min(Ns):
        raise InvalidArgumentError(
            f"mode k = {max(ks)} unresolved on the coarsest grid N = {min(Ns)}"
        )
    exact = exact_frequencies(ks)
    errors: dict = {}
    for alpha in alphas:
        freqs = {N: spectrum(build_1d_model(N, alpha)) for N in Ns}
        for pos, k in enumerate(ks):
            errors[(alpha, k)] = np.array(
                [abs(freqs[N][k - 1] - exact[pos]) / exact[pos] for N in Ns]
            )
    log_N = np.log(np.asarray(Ns, dtype=float))
    slopes = {
        key: float(np.polyfit(log_N, np.log(errs), 1)[0])
        for key, errs in errors.items()
    }
    return ConvergenceStudy(alphas, Ns, ks, errors, slopes)
