"""Spectral analysis of conservative models, and the 1D reference tables.

Provides the frequencies of any conservative model, 1-D or 2-D, that
passes `PHModel.node_blocks()` (`spectrum`: singular values of the node
coupling S that method certifies), frequency tables of the 1D family
over the flow-map parameter alpha and over the effort-map parameter
alpha' of a comparison scheme, and log-log convergence-order estimation
against the closed-form frequencies (2k - 1) * pi / (2L).

The singular values of S are the positive eigenvalues of the symmetric
matrix [[0, S], [S^T, 0]].  When reverse Cuthill-McKee orders that matrix
into a band of half-width b with b^2 <= min(n_p, n_q) (the 1-D mixed
models), `spectrum` takes them from a banded eigensolver in O(n^2 b)
work and O(n b) memory; wider bands (the comparison scheme at alpha' != 0,
2-D meshes) keep a dense SVD of S.  A caller that reads only the lowest k
frequencies (`spectrum(model, k)`, the convergence study, `phfem eigs
--k`) gets them by bisection on that band when it is narrow and
k (n_p + n_q) <= BISECTION_MAX_KN (every call of the convergence study),
and otherwise by shift-invert Lanczos on the sparse Gram matrix
S S^T = Q_p^(1/2) (J_p Q_q J_p^T) Q_p^(1/2), scaled from the node coupling
that `statespace.node_coupling` builds for the midpoint stepper too, with
their count certified by Sylvester's law of inertia and no dense array.
The Bauer-Fike bound of the certificate's skew slack holds on every route
(see `spectrum`).

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
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

from .errors import InvalidArgumentError, NumericalFailureError, scalar, scalars
from .mesh import csr, transposed
from .sim import build_model
from .statespace import PHModel, node_coupling

#: singular values of the node coupling S at or below this fraction of the
#: certified bound sqrt(||S||_1 ||S||_inf) on ||S||_2 count as zero modes
ZERO_MODE_RTOL = 1e-5

#: largest k (n_p + n_q) at which `spectrum(model, k)` takes the lowest k
#: of a narrow-band model by bisection rather than by Lanczos
BISECTION_MAX_KN = 1280

#: relative margin below the k-th eigenvalue the lowest-k route of
#: `spectrum` keeps, at which it counts the eigenvalues of the Gram matrix
INERTIA_RTOL = 1e-8

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
    of length L with effort clamped at one end per field, for a list of
    mode indices k >= 1."""
    if scalar(L, "length L") <= 0:
        raise InvalidArgumentError(f"length L must be a positive finite number, got {L}")
    ks = np.asarray(_positive_ints(ks, "mode index"), dtype=float)
    return (2.0 * ks - 1.0) * np.pi / (2.0 * L)


def _positive_ints(values, what: str) -> tuple:
    """values as a tuple of `errors.scalars` integers, each >= 1."""
    values = scalars(values, what, integer=True)
    if min(values, default=1) < 1:
        raise InvalidArgumentError(f"{what} must be an integer >= 1, got {min(values)}")
    return values


def _distinct(values: list | tuple, what: str) -> None:
    """InvalidArgumentError naming the first value that repeats: a repeat
    would overwrite a table column or an error row, or count twice in a
    slope fit."""
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise InvalidArgumentError(f"repeated {what}{repeated[0]!r}")


def spectrum(model: PHModel, k: int | None = None) -> np.ndarray:
    """Positive frequencies of the model, ascending: all of them, or the
    lowest k when k is an integer >= 1 (fewer when the model has fewer).

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

    Zero modes.  A singular value at or below ZERO_MODE_RTOL * beta, with
    beta = sqrt(||S||_1 ||S||_inf) >= ||S||_2, counts as a zero mode and
    is not reported, on every route.  Besides the exact zeros, the 2-D
    models with p-ports on part of the boundary (set2 to set4) carry a
    pair of boundary modes that decay exponentially in N (set4 with
    p-ports on the bottom side: 1e-9 beta at 12 x 12, 5e-17 beta at
    24 x 24).  An absolute threshold would report them at one size and
    drop them at the next; beta scales with the model.  The lowest 1-D
    frequency stays above 1e-3 beta up to N = 640.

    Three routes: the full route, bisection and Lanczos.  The full route
    takes k = None, or k >= m - 1 (m = min(n_p, n_q): the lowest k are then
    nearly all of them, and ARPACK needs k < m): every singular value is
    computed and the lowest k kept.  The symmetric Jordan-Wielandt matrix
    H = [[0, S], [S^T, 0]] has the eigenvalues +-sigma_k(S) plus
    |n_p - n_q| zeros (Golub & Kahan, 1965).  Reverse Cuthill-McKee on the
    bipartite graph of H gives a half-bandwidth b; when b^2 <= m (mixed
    1-D models, b <= 2, from N = 4 on, and the comparison scheme at
    alpha' = 0) the banded LAPACK eigensolver takes H in O(n^2 b) work
    and O(n b) memory.  A wider band (the comparison scheme at
    alpha' != 0, b up to N - 1; 2-D meshes, b = 31 at 6 x 6 and 181 at
    24 x 24) makes the band reduction slower than a dense SVD of S, which
    those models keep.

    With an integer k < m - 1, a narrow band (b^2 <= m) and
    k (n_p + n_q) <= BISECTION_MAX_KN (checked first, so large calls never
    pay for the ordering), the lowest k are the eigenvalues of H
    with indices n - m to n - m + k - 1 (n = n_p + n_q), found by
    bisection on the band (LAPACK sbevx; Sturm counts, Barth, Martin &
    Wilkinson, 1967).  The counts are exact, so no copy of a multiple value
    is missed and no certificate is needed; zero modes that take some of
    the k are asked past.  This route also serves n_p > n_q.  Its error is
    that of a backward-stable eigensolver of H, a relative
    O(eps beta / sigma).  The bound sits where the two routes cross in
    time a call on the 1-D mixed models: bisection's cost grows with
    k (n_p + n_q), Lanczos's much more slowly (the crossover table is in
    README's lowest-k section).

    Otherwise, with an integer k < n_p - 1 and n_p <= n_q (an n_p > n_q
    model, such as a thin grid with q-ports all round, takes the full
    route), the lowest k are sigma = sqrt(lambda) of the lowest
    eigenvalues of the sparse Gram matrix G = S S^T, scaled in place from
    the node coupling J_p Q_q J_p^T that `statespace.node_coupling` also
    builds for the midpoint stepper.
    Shift-invert Lanczos (ARPACK; Lehoucq, Sorensen & Yang, 1998) about -1,
    with a fixed start vector so that runs repeat exactly, finds them
    through one sparse LU per call of the SPD G + I (symmetric
    minimum-degree order; no zero pivot, whatever the zero modes).  An ask
    that zero modes or missed values leave short asks again with that
    factor.  Lanczos can miss a copy of a multiple eigenvalue (24 x 24 set1
    with q-ports all round has a double frequency among its lowest 12), so
    the eigenvalues of G below tau = (1 - INERTIA_RTOL) lambda_k are
    counted by Sylvester's law of inertia (`_eigenvalues_below`, one more
    sparse LU) and any missing ones asked for; a copy missed between tau
    and lambda_k moves sigma_k by at most INERTIA_RTOL / 2.  An uncertified
    count, or an ask that reaches n_p - 1, takes the full route.  Nothing
    on the Gram route is dense.  Accuracy: forming G perturbs it by at
    most about c eps beta^2 in 2-norm (c the largest row count of S;
    |S| |S|^T has 2-norm at most beta^2), and the eigensolver adds a
    backward error of the same order, so lambda moves by O(eps beta^2) and
    sigma by a relative O(eps beta^2 / sigma^2): ~1e-13 for the lowest 1-D
    mode at N = 640.  Above 1e-3 beta that stays below INERTIA_RTOL, so the
    count does not take a returned value for a missed one.  A zero mode
    returns as about sqrt(eps) beta, far below the zero-mode threshold.

    Any other model (a hand-built or permuted one) has no certified
    frequencies: the StructureViolationError of `node_blocks` propagates.
    """
    if k is not None:
        (k,) = _positive_ints((k,), "k")
    J_p, q_p, q_q = model.node_blocks()
    # S = diag(q_p)^(1/2) J_p diag(q_q)^(1/2), scaled entry by entry
    row, col = np.repeat(np.arange(J_p.shape[0]), np.diff(J_p.indptr)), J_p.indices
    S = csr(J_p.data * np.sqrt(q_p)[row] * np.sqrt(q_q)[col], col, J_p.indptr, J_p.shape)
    w = np.abs(S.data)
    beta = np.sqrt(np.bincount(row, w).max(initial=0) * np.bincount(col, w).max(initial=0))
    floor = ZERO_MODE_RTOL * beta
    n, m = sum(S.shape), min(S.shape)
    if k is not None and k < m - 1:
        band = _narrow_band(S) if k * n <= BISECTION_MAX_KN else None
        if band is not None:
            return _lowest_from_band(band, n, m, k, floor)
        if model.n_p <= model.n_q:
            freqs = _lowest_singular_values(J_p, q_p, q_q, k, floor)
            if freqs is not None:
                return freqs
    freqs = _singular_values(S, _narrow_band(S))
    return freqs[freqs > floor][:k]


def _lowest_from_band(band, n: int, r: int, k: int, floor: float) -> np.ndarray:
    """The k lowest singular values of S above floor, ascending (fewer when
    S has fewer), by bisection on the band of H (r = min(n_p, n_q)): the
    eigenvalues of H from index n - r on are sigma_r(S) <= ... <= sigma_1(S).
    Zero modes that take some of the k are asked past, as on the Gram route."""
    asked = k
    while True:
        try:
            lam = eigvals_banded(
                band, lower=True, select="i", select_range=(n - r, n - r + asked - 1)
            )
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(f"banded bisection failed: {exc}") from exc
        freqs = lam[lam > floor]
        if freqs.size >= k or asked == r:
            return freqs[:k]
        asked = min(r, k + lam.size - freqs.size)


def _narrow_band(S):
    """The lower band of H = [[0, S], [S^T, 0]] in the reverse Cuthill-McKee
    order, in LAPACK's lower storage, or None when its half-width b has
    b^2 > min(n_p, n_q)."""
    n_p, n_q = S.shape
    data, indices, indptr, _ = transposed(S)
    H = csr(
        np.concatenate([S.data, data]),
        np.concatenate([S.indices + n_p, indices]),
        np.concatenate([S.indptr, indptr[1:] + S.indptr[-1]]),
        (n_p + n_q, n_p + n_q),
    )
    H.sum_duplicates()
    order = reverse_cuthill_mckee(H, symmetric_mode=True)
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size)
    row = pos[np.repeat(np.arange(order.size), np.diff(H.indptr))]
    col = pos[H.indices]
    b = int(np.abs(row - col).max(initial=0))
    if b * b > min(S.shape):
        return None
    lower = row > col
    band = np.zeros((b + 1, order.size))
    band[row[lower] - col[lower], col[lower]] = H.data[lower]
    return band


def _singular_values(S, band) -> np.ndarray:
    """Every singular value of S, ascending, from the banded route of
    `spectrum` when S has a narrow band, else from the dense one; the banded
    route returns all eigenvalues of H, so its -sigma and zeros come too
    (the zero-mode filter drops them)."""
    try:
        if band is not None:
            return eigvals_banded(band, lower=True)
        sigma = np.linalg.svd(S.toarray(), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"singular value computation failed: {exc}") from exc
    except MemoryError as exc:
        raise NumericalFailureError(
            f"every frequency needs S ({S.shape[0]} x {S.shape[1]}) dense, "
            f"{S.shape[0] * S.shape[1] * 8 / 2**30:.1f} GiB; ask for the lowest k "
            "(`phfem eigs --k`), which stays sparse"
        ) from exc
    return np.sort(sigma)


def _lowest_singular_values(J_p, q_p, q_q, k: int, floor: float):
    """The k lowest singular values of S above floor, ascending, from the
    Gram route of `spectrum` (k < n_p - 1, n_p <= n_q), or None when that
    route runs out of room or cannot certify them."""
    _, G = node_coupling(J_p, q_q)
    m = G.shape[0]
    # G = Q_p^(1/2) (J_p Q_q J_p^T) Q_p^(1/2) = S S^T, scaled in place
    s = np.sqrt(q_p)
    G.data *= s[np.repeat(np.arange(m), np.diff(G.indptr))] * s[G.indices]
    G_I = G.tocsc() + sp.identity(m, format="csc")
    diagonal = G_I.indices == np.repeat(np.arange(m), np.diff(G_I.indptr))
    # G + I is SPD: a symmetric minimum-degree ordering with diagonal
    # pivots keeps its factor sparser than the default column ordering
    shifted = splu(G_I, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    OPinv = LinearOperator(G.shape, matvec=shifted.solve)
    v0 = np.random.default_rng(0).standard_normal(m)  # fixed: runs repeat
    asked = k
    while asked < m - 1:
        try:
            lam = np.sort(eigsh(
                G, k=asked, sigma=-1.0, v0=v0, return_eigenvectors=False, OPinv=OPinv
            ))
        except ArpackError as exc:
            raise NumericalFailureError(f"Lanczos eigensolver failed: {exc}") from exc
        freqs = np.sqrt(np.maximum(lam, 0.0))
        kept = freqs > floor
        if np.count_nonzero(kept) < k:  # zero modes took some: ask for as many more
            asked = k + np.count_nonzero(~kept)
            continue
        tau = (1.0 - INERTIA_RTOL) * lam[kept][k - 1]
        below = _eigenvalues_below(G_I, diagonal, tau)
        returned = np.count_nonzero(lam < tau)
        if below is None or below < returned:
            return None
        if below == returned:
            return freqs[kept][:k]
        asked += below - returned  # Lanczos missed copies of a multiple value
    return None


def _eigenvalues_below(G_I, diagonal, tau: float) -> int | None:
    """The number of eigenvalues of G below tau, or None, from G_I = G + I
    in CSC with its diagonal entries at `diagonal`.  With diagonal pivots
    in a symmetric order, P (G - tau I) P^T = L D L^T, so the negative
    pivots count them (Sylvester); a pivot off the diagonal or an exactly
    singular G - tau I certifies nothing."""
    data = G_I.data.copy()
    data[diagonal] -= 1.0 + tau
    try:
        lu = splu(
            sp.csc_matrix((data, G_I.indices, G_I.indptr), shape=G_I.shape),
            permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError:
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return int(np.count_nonzero(lu.U.diagonal() < 0))


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
    The labels and the Ns must each be distinct: every (label, N) is a column.
    """
    builders: dict[str, Callable[[int, float], PHModel]] = {
        "mixed": build_1d_model,
        "golo": build_golo_1d_model,
    }
    if not isinstance(method, str) or method not in builders:
        raise InvalidArgumentError(f"unknown method {method!r}")
    Ns, ks = _positive_ints(Ns, "grid size N"), _positive_ints(ks, "mode index")
    pairs = []
    for entry in parameters:
        try:
            label, value = entry
            hash(label)  # a column key
        except (TypeError, ValueError):
            msg = f"parameters entry {entry!r} is not a (label, value) pair with a hashable label"
            raise InvalidArgumentError(msg) from None
        pairs.append((label, value))
    _distinct([label for label, _ in pairs], "label ")
    _distinct(Ns, "N = ")
    columns = {}
    for label, value in pairs:
        for N in Ns:
            freqs = spectrum(builders[method](N, value))
            columns[(method, label, N)] = np.array(
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
    """Sweep build_1d_model over alphas x Ns and fit convergence orders.

    Each model is asked for its lowest max(ks) frequencies only (the
    bisection or the Lanczos route of `spectrum`).  The alphas, the Ns and
    the ks must each be distinct, and the Ns at least two."""
    alphas = scalars(alphas, "alphas")
    Ns, ks = _positive_ints(Ns, "grid size N"), _positive_ints(ks, "mode index")
    if not alphas or not ks:
        raise InvalidArgumentError("alphas and ks must be nonempty")
    for values, what in ((alphas, "alpha = "), (Ns, "N = "), (ks, "k = ")):
        _distinct(values, what)
    if len(Ns) < 2:
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
        freqs = {N: spectrum(build_1d_model(N, alpha), max(ks)) for N in Ns}
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
