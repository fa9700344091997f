from functools import lru_cache

import pytest

from treegibbs import EnergyParams, build_transition_model

PARAM_GRID = [(a, b) for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0)]


def sample_rows(samples) -> list:
    """Each emission time of ``run``'s samples with the sample covering it, in order."""
    return [(t, s) for s in samples for t in s.steps]


def scipy_csr(P):
    """The kernel ``P`` viewed as a scipy CSR matrix; scipy is a test-only reference."""
    import scipy.sparse as sp

    return sp.csr_matrix((P.data, P.indices, P.indptr), shape=P.shape)


@lru_cache(maxsize=None)
def cached_model(m: int, alpha: float, beta: float):
    return build_transition_model(m, EnergyParams(alpha, beta))


@pytest.fixture
def model_for():
    return cached_model
