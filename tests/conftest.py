from functools import lru_cache

import numpy as np
import pytest

from treegibbs import EnergyParams, TwoMotzkinPath, build_transition_model
from treegibbs.chain import draw_cells
from treegibbs.exact import Kernel

PARAM_GRID = [(a, b) for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0)]


def sample_rows(samples) -> list:
    """Each emission time of ``run``'s samples with the sample covering it, in order."""
    return [(t, s) for s in samples for t in s.steps]


def to_dense(P) -> np.ndarray:
    """The kernel ``P`` as a dense ``(n, n)`` array: the reference its sparse
    products and the package's solves are checked against."""
    a = np.zeros((P.n, P.n))
    a[P.rows, P.indices] = P.data
    return a


def scipy_csr(P):
    """The kernel ``P`` viewed as a scipy CSR matrix; scipy is a test-only reference."""
    import scipy.sparse as sp

    return sp.csr_matrix((P.data, P.indices, P.indptr), shape=(P.n, P.n))


def dense_lambda1(P, pi) -> float:
    """Second eigenvalue of the reversible kernel ``P`` with law ``pi``: numpy's
    ``eigvalsh`` of diag(sqrt(pi)) P diag(sqrt(pi))^-1, the dense reference
    the package's Lanczos solves are checked against."""
    root = np.sqrt(pi)
    A = to_dense(P)
    A *= root[:, None]
    A /= root
    return float(np.linalg.eigvalsh(A)[-2])


def kernel_from_dense(a) -> Kernel:
    """The nonzero entries of a square array as a :class:`Kernel`: ``np.nonzero``
    lists them row by row, columns ascending, as a kernel stores them."""
    a = np.asarray(a, dtype=float)
    rows, cols = np.nonzero(a)
    indptr = np.searchsorted(rows, np.arange(len(a) + 1))
    return Kernel(indptr, cols, a[rows, cols])


def transition_distribution(x: TwoMotzkinPath, params: EnergyParams) -> dict[bytes, float]:
    """Exact one-step law from ``x``: every reachable word mapped to its mass.

    The one-row case of ``draw_cells``; the mass no cell moves stays on
    ``x``, so ``x`` is always a key.
    """
    sym = x.symbols
    moved: dict[bytes, float] = {}
    words = np.frombuffer(sym, dtype=np.uint8).reshape(1, len(sym))
    for cell, _, targets, accept in draw_cells(words, params):
        for target, q in zip(targets, accept):
            key = target.tobytes()
            moved[key] = moved.get(key, 0.0) + cell.weight * float(q)
    return {sym: 1.0 - sum(moved.values()), **moved}


def is_strongly_connected(chain) -> bool:
    """Strong connectivity of the positive-transition directed graph of a
    chain's kernel: every state is reached from state 0, and reaches it."""
    P = chain.P
    positive = P.data > 0
    rows, cols = P.rows[positive], P.indices[positive]
    for tail, head in ((rows, cols), (cols, rows)):
        reached = np.zeros(P.n, dtype=bool)
        reached[0] = True
        count = 1
        while True:
            reached[head[reached[tail]]] = True
            grown = int(np.count_nonzero(reached))
            if grown == count:
                break
            count = grown
        if count < P.n:
            return False
    return True


@lru_cache(maxsize=None)
def cached_model(m: int, alpha: float, beta: float):
    return build_transition_model(m, EnergyParams(alpha, beta))


@pytest.fixture
def model_for():
    return cached_model
