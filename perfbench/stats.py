"""The benchmark's own statistics: the exact d0 law, ESS, TV and quartiles.

Kept free of any ``treegibbs`` import so that the numbers used to judge the
program are not computed by the program under test.
"""

from __future__ import annotations

import math
import statistics

import numpy as np


def d0_law_counts(m: int) -> dict[tuple[int, int], int]:
    """Number of 2-Motzkin paths of length m with k up steps and h H steps.

    Choose the 2k vertical positions, a Dyck word on them (Cat(k)), and which
    of the remaining m - 2k level positions are H rather than I.
    """
    out = {}
    for k in range(m // 2 + 1):
        dyck = math.comb(m, 2 * k) * math.comb(2 * k, k) // (k + 1)
        for h in range(m - 2 * k + 1):
            out[(k, h)] = dyck * math.comb(m - 2 * k, h)
    return out


def d0_law(m: int, alpha: float, beta: float) -> dict[int, float]:
    """Closed-form Gibbs law of d0 = k + h + 1 at path length m.

    P(k, h) is proportional to C(m, 2k) Cat(k) C(m - 2k, h)
    exp(-alpha (k + h + 1) - beta (m - 2k - h)); normalised in log space.
    """
    logs: dict[int, list[float]] = {}
    for (k, h), count in d0_law_counts(m).items():
        d0 = k + h + 1
        logs.setdefault(d0, []).append(
            math.log(count) - alpha * d0 - beta * (m - 2 * k - h)
        )
    per_d0 = {d0: _logsumexp(v) for d0, v in logs.items()}
    log_z = _logsumexp(list(per_d0.values()))
    return {d0: math.exp(v - log_z) for d0, v in sorted(per_d0.items())}


def _logsumexp(values: list[float]) -> float:
    top = max(values)
    return top + math.log(sum(math.exp(v - top) for v in values))


def tv_to_law(values, law: dict[int, float]) -> float:
    """Total variation between the histogram of integer ``values`` and ``law``."""
    counts: dict[int, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    n = len(values)
    keys = set(counts) | set(law)
    return 0.5 * sum(abs(counts.get(k, 0) / n - law.get(k, 0.0)) for k in keys)


def geyer_tau(series) -> tuple[float, float]:
    """Integrated autocorrelation time by Geyer's (1992) initial positive sequence.

    Sums Gamma_j = gamma(2j) + gamma(2j + 1) while it stays positive, with the
    initial-monotone correction, and returns (tau, standard error).  The error
    is Sokal's large-sample approximation tau * sqrt(2 (2M + 1) / N), with M
    the last lag summed.  A constant series has tau = 1 by convention.
    """
    x = np.asarray(series, dtype=float)
    n = x.size
    if n < 4:
        raise ValueError("need at least four values")
    x = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, size)
    acov = np.fft.irfft(f * np.conj(f), size)[:n] / n
    if acov[0] <= 0.0:
        return 1.0, 0.0
    total = 0.0
    prev = math.inf
    lag = 1
    for j in range(n // 2):
        pair = acov[2 * j] + acov[2 * j + 1]
        if pair <= 0.0:
            break
        pair = min(pair, prev)
        total += pair
        prev = pair
        lag = 2 * j + 1
    tau = max((2.0 * total - acov[0]) / acov[0], 1.0 / n)
    return tau, tau * math.sqrt(2.0 * (2 * lag + 1) / n)


def ess(series) -> float:
    """Effective sample size len(series) / tau."""
    return len(series) / geyer_tau(series)[0]


def summary(values: list[float]) -> dict:
    """Median, quartiles and count of a list of samples."""
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}
