from functools import lru_cache

import numpy as np
import pytest

from treegibbs import EnergyParams, build_transition_model
from treegibbs.exact import Kernel

PARAM_GRID = [(a, b) for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0)]


def sample_rows(samples) -> list:
    """Each emission time of ``run``'s samples with the sample covering it, in order."""
    return [(t, s) for s in samples for t in s.steps]


def scipy_csr(P):
    """The kernel ``P`` viewed as a scipy CSR matrix; scipy is a test-only reference."""
    import scipy.sparse as sp

    return sp.csr_matrix((P.data, P.indices, P.indptr), shape=P.shape)


def dense_lambda1(P, pi) -> float:
    """Second eigenvalue of the reversible kernel ``P`` with law ``pi``: numpy's
    ``eigvalsh`` of diag(sqrt(pi)) P diag(sqrt(pi))^-1, the dense reference
    the package's Lanczos solves are checked against."""
    root = np.sqrt(pi)
    A = P.toarray()
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


@lru_cache(maxsize=None)
def cached_model(m: int, alpha: float, beta: float):
    return build_transition_model(m, EnergyParams(alpha, beta))


@pytest.fixture
def model_for():
    return cached_model
