"""Tests for the benchmark's own math and checks.

    PYTHONPATH=src python3 -m pytest -q perfbench

Not part of the package's tier-1 suite (pyproject's testpaths is ``tests``).
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

import checks
import stats
from treegibbs import EnergyParams, decode, degree_profile, iter_paths, path_energy, resolve_params

TURNER = resolve_params("turner04-cg")
ALPHA_BETA = [(TURNER.alpha, TURNER.beta), (0.0, 0.0), (1.0, -1.0)]


@pytest.mark.parametrize("m", range(1, 10))
def test_d0_law_counts_match_enumeration(m):
    counted = Counter()
    for p in iter_paths(m):
        counted[(p.word.count("U"), p.word.count("H"))] += 1
    expected = {key: n for key, n in stats.d0_law_counts(m).items() if n}
    assert dict(counted) == expected


@pytest.mark.parametrize("m", range(1, 10))
@pytest.mark.parametrize("alpha,beta", ALPHA_BETA)
def test_d0_law_matches_enumerated_gibbs_law(m, alpha, beta):
    params = EnergyParams(alpha, beta)
    weights: dict[int, list[float]] = {}
    for p in iter_paths(m):
        d0 = p.word.count("U") + p.word.count("H") + 1
        weights.setdefault(d0, []).append(-path_energy(p, params))
    top = max(max(v) for v in weights.values())
    mass = {d0: math.fsum(math.exp(w - top) for w in v) for d0, v in weights.items()}
    z = math.fsum(mass.values())
    law = stats.d0_law(m, alpha, beta)
    assert set(law) == set(mass)
    for d0, p in law.items():
        assert p == pytest.approx(mass[d0] / z, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("seed", range(3))
def test_geyer_tau_recovers_ar1(phi, seed):
    rng = np.random.default_rng(seed)
    n = 200_000
    noise = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = noise[0] / math.sqrt(1 - phi * phi)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + noise[t]
    tau, se = stats.geyer_tau(x)
    true_tau = (1 + phi) / (1 - phi)
    assert abs(tau - true_tau) <= 3 * se
    assert se < 0.1 * true_tau


def test_tv_to_law():
    assert stats.tv_to_law([1, 1, 2, 2], {1: 0.5, 2: 0.5}) == 0.0
    assert stats.tv_to_law([1, 1, 1, 1], {1: 0.5, 2: 0.5}) == 0.5
    assert stats.tv_to_law([3], {1: 1.0}) == 1.0


@pytest.mark.parametrize("m", range(1, 8))
def test_word_profile_matches_decode(m):
    for p in iter_paths(m):
        prof = degree_profile(decode(p))
        assert checks.word_profile(p.word, m) == (prof.d0, prof.d1, prof.r)


@pytest.mark.parametrize("word", ["D", "UU", "DU", "HX", "UDD", "IU"])
def test_word_profile_rejects_non_paths(word):
    assert checks.word_profile(word, len(word)) is None
    assert checks.word_profile("UD", 3) is None


@pytest.mark.parametrize("m", range(0, 8))
def test_enumeration_hash_matches_state_index(m):
    from treegibbs.exact import StateIndex

    assert checks.enumeration_hash(m) == StateIndex.build(m).order_hash()
