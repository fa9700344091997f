"""Exhaustive small-instance ground truth for the path chain.

Builds the full transition matrix over all catalan(m + 1) states and its
spectral diagnostics, on the state index (one word matrix) and exact
Gibbs law of :mod:`treegibbs.law` (numpy only; its names import from here too).
Everything here is a verification instrument: state spaces are
enumerated, matrices are sparse but complete, and every model is checked
for stochasticity, stationarity, and detailed balance before it is
handed out.

The kernel is the sampler's draw-cell table (``chain.draw_cells``) applied
to that matrix; no mirror of it is kept, so the checks certify
the moves the sampler makes.  :func:`second_eigenvalue` is the one place
a kernel becomes a second eigenvalue: dense, or Lanczos (ARPACK).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .chain import draw_cells
from .energy import EnergyParams
from .errors import (
    BalanceViolationError,
    ConfigInvalidError,
    InternalInvariantViolationError,
    NoConvergenceError,
)
from .law import (  # noqa: F401  (re-exported: the oracle's names stay importable from here)
    StateIndex,
    _codes,
    empirical_distribution,
    gibbs_distribution,
    tv_distance,
)
from .paths import TwoMotzkinPath

DENSE_CAP_STATES = 500  # above this "auto" solves with Lanczos


@dataclass
class TransitionModel:
    """Verified sparse kernel with its stationary law over an enumerated space."""

    index: StateIndex
    params: EnergyParams
    P: sp.csr_matrix
    pi: np.ndarray
    log_z: float

    @property
    def n(self) -> int:
        return len(self.pi)

    @cached_property
    def energies(self) -> np.ndarray:
        """``path_energy`` of each state under the model's parameters."""
        return self.index.energies(self.params)


@dataclass(frozen=True)
class SpectralReport:
    """Second eigenvalue diagnostics of a verified model."""

    lambda1: float
    gap: float
    relaxation_time: float
    method: str
    residual: float
    iterations: int = 0


def build_transition_model(m: int, params: EnergyParams) -> TransitionModel:
    """Assemble and verify the full kernel at length m.

    Raises :class:`BalanceViolationError` if row sums, stationarity, or
    detailed balance fail their 1e-12-scale checks.
    """
    index = StateIndex.build(m)
    pi, log_z = gibbs_distribution(m, params, index=index)

    n = len(index)
    codes = index.codes
    rows, target_codes, vals = [], [], []
    for cell, r, targets, accept in draw_cells(index.words, params):
        rows.append(r)
        target_codes.append(_codes(targets))
        vals.append(cell.weight * accept)
    rows, target_codes, vals = map(np.concatenate, (rows, target_codes, vals))
    cols = np.searchsorted(codes, target_codes)
    if not np.array_equal(codes[np.minimum(cols, n - 1)], target_codes):
        raise InternalInvariantViolationError("a move left the enumerated state space")
    # What no cell moves stays on the diagonal.
    diag = np.arange(n)
    stay = 1.0 - np.bincount(rows, weights=vals, minlength=n)
    P = sp.csr_matrix(
        (np.append(vals, stay), (np.append(rows, diag), np.append(cols, diag))), shape=(n, n)
    )
    model = TransitionModel(index=index, params=params, P=P, pi=pi, log_z=log_z)
    verify_model(model)
    return model


def verify_model(model: TransitionModel, tol: float = 1e-12) -> None:
    """Stochasticity, stationarity, and detailed balance, or raise."""
    row_err = float(np.abs(np.asarray(model.P.sum(axis=1)).ravel() - 1.0).max())
    if row_err > tol:
        raise BalanceViolationError(f"row sums off by {row_err:.3e}", magnitude=row_err)
    stat_err = stationarity_residual(model)
    if stat_err > tol:
        raise BalanceViolationError(f"pi P != pi, residual {stat_err:.3e}", magnitude=stat_err)
    worst, pair = detailed_balance_violation(model)
    flow_scale = float((model.P.multiply(model.pi[:, None])).max())
    if worst > tol * flow_scale:
        x, y = pair
        raise BalanceViolationError(
            f"detailed balance violated by {worst:.3e} at pair "
            f"({model.index.paths[x].word!r}, {model.index.paths[y].word!r})",
            worst_pair=pair,
            magnitude=worst,
        )


def stationarity_residual(model: TransitionModel) -> float:
    """Max-norm of pi^T P - pi^T."""
    return float(np.abs(model.pi @ model.P - model.pi).max())


def detailed_balance_violation(model: TransitionModel) -> tuple[float, tuple[int, int]]:
    """Largest |pi(x)P(x,y) - pi(y)P(y,x)| and the offending index pair."""
    flow = model.P.multiply(model.pi[:, None]).tocsr()
    asym = (flow - flow.T).tocoo()
    if asym.nnz == 0:
        return 0.0, (0, 0)
    k = int(np.abs(asym.data).argmax())
    return float(abs(asym.data[k])), (int(asym.row[k]), int(asym.col[k]))


def is_strongly_connected(model: TransitionModel) -> bool:
    """Strong connectivity of the positive-transition directed graph."""
    # Self-loops do not join components, so the kernel's pattern is the graph.
    n_comp, _ = connected_components(model.P, directed=True, connection="strong")
    return n_comp == 1


def spectral_gap(model, method: str = "auto") -> SpectralReport:
    """Second-largest eigenvalue of the kernel and the gap 1 - lambda1.

    ``model`` is any chain with a kernel ``P``, its law ``pi`` and size ``n``.
    ``"auto"`` solves densely up to ``DENSE_CAP_STATES`` states and with
    Lanczos above.  Laziness makes the spectrum nonnegative, so the second
    eigenvalue is also the second-largest modulus.
    """
    n = model.n
    if n < 2:
        raise ConfigInvalidError("spectral gap needs at least two states")
    if method == "auto":
        method = auto_method(n)
    lambda1, residual, iterations = second_eigenvalue(model.P, model.pi, method)
    gap = 1.0 - lambda1
    return SpectralReport(
        lambda1=lambda1,
        gap=gap,
        relaxation_time=1.0 / gap,
        method=method,
        residual=residual,
        iterations=iterations,
    )


def auto_method(n: int) -> str:
    """The solver "auto" picks for n states: dense up to ``DENSE_CAP_STATES``, Lanczos above."""
    return "dense" if n <= DENSE_CAP_STATES else "lanczos"


def second_eigenvalue(P, pi: np.ndarray, method: str) -> tuple[float, float, int]:
    """(lambda1, residual, iterations) of a reversible kernel P with law pi.

    Both methods solve A = diag(pi)^{1/2} P diag(pi)^{-1/2}, symmetric for a
    reversible chain.  ``"dense"``: residual |lambda0 - 1|.  ``"lanczos"``:
    ARPACK's two top eigenpairs of A made exactly symmetric, started from
    sqrt(pi) so reruns are identical; residual max ||A v - lambda v||,
    iterations the count of products with A.
    """
    root = np.sqrt(pi)
    if method == "dense":
        A = P.toarray() if sp.issparse(P) else np.array(P, dtype=float)
        A *= root[:, None]
        A /= root
        # A.T is Fortran-ordered, so LAPACK overwrites it without a copy; its
        # upper triangle is A's lower one.
        eigvals = scipy.linalg.eigvalsh(A.T, lower=False, overwrite_a=True)
        return float(eigvals[-2]), float(abs(eigvals[-1] - 1.0)), 0
    if method != "lanczos":
        raise ValueError(f"unknown spectral method {method!r}")
    n = len(pi)
    if n < 3:
        raise ConfigInvalidError(f"lanczos needs at least 3 states, got {n}; use dense")
    A = sp.diags(root) @ sp.csr_matrix(P) @ sp.diags(1.0 / root)
    A = ((A + A.T) * 0.5).tocsr()
    products = 0

    def matvec(v: np.ndarray) -> np.ndarray:
        nonlocal products
        products += 1
        return A @ v

    op = LinearOperator((n, n), matvec=matvec, dtype=float)
    try:
        vals, vecs = eigsh(op, k=2, which="LA", v0=root, tol=0)
    except ArpackNoConvergence as exc:
        raise NoConvergenceError(products, float("nan")) from exc
    residual = float(np.linalg.norm(A @ vecs - vecs * vals, axis=0).max())
    return float(vals.min()), residual, products


def tv_decay_curve(
    model: TransitionModel,
    x0: TwoMotzkinPath | int,
    horizon: int,
) -> list[tuple[int, float]]:
    """TV(P^t(x0, .), pi) for t = 0..horizon via iterated row products."""
    if horizon < 0:
        raise ConfigInvalidError("horizon must be nonnegative")
    start = x0 if isinstance(x0, int) else model.index.index_of(x0)
    dist = np.zeros(model.n)
    dist[start] = 1.0
    curve = [(0, tv_distance(dist, model.pi))]
    for t in range(1, horizon + 1):
        dist = dist @ model.P
        curve.append((t, tv_distance(dist, model.pi)))
    return curve
