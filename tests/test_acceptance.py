"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Budgets and tolerances are pinned here; the sampler-correctness runs use
one million retained samples (burn-in 10^4 transitions, thinning 10), and
every exact tolerance is stated next to its check.
"""

import math
import subprocess
import sys
import time
from collections import Counter

import numpy as np

from treegibbs import (
    BUILTIN_NNTM,
    ChainConfig,
    EnergyParams,
    batch_means_stderr,
    catalan,
    check_decomposition_bound,
    check_skeleton_projection,
    decode,
    degree_profile,
    derive_params,
    encode,
    iter_paths,
    projected_k_distribution,
    run,
    spectral_gap,
    tv_distance,
)
from treegibbs.decomposition import blocks_at
from treegibbs.law import empirical_distribution
from treegibbs.paths import H, I, U

from conftest import (
    PARAM_GRID,
    cached_model,
    dense_lambda1,
    is_strongly_connected,
    sample_rows,
    scipy_csr,
)

SAMPLER_SEED = 1
SAMPLER_BURN_IN = 10_000
SAMPLER_THIN = 10
SAMPLER_KEPT = 1_000_000
SAMPLER_TOTAL = SAMPLER_BURN_IN + SAMPLER_THIN * SAMPLER_KEPT


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name:<42s} {status}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _empirical_from_samples(samples, index) -> np.ndarray:
    counts = Counter(s.path.symbols for _, s in sample_rows(samples))
    return empirical_distribution(dict(counts), index)


def test_01_nntm_table_reproduction():
    published = {
        "turner89-cg": (-0.9, -1.8, -1.7),
        "turner89-gc": (-0.9, -1.2, -1.7),
        "turner99-cg": (2.3, 1.3, -0.4),
        "turner99-gc": (2.2, 1.9, -0.4),
        "turner04-cg": (-2.8, -3.0, 0.9),
        "turner04-gc": (-2.8, -2.2, 0.9),
    }
    start = time.time()
    worst = 0.0
    for name, (alpha, beta, gamma) in published.items():
        got = derive_params(BUILTIN_NNTM[name])
        worst = max(
            worst,
            abs(got.alpha - alpha),
            abs(got.beta - beta),
            abs(got.gamma - gamma),
        )
    elapsed = time.time() - start
    _report(1, "nntm-table-reproduction", worst <= 0.05 and elapsed < 1.0,
            f"worst |dev|={worst:.3g} ({elapsed:.2f}s)")


def test_02_bijection_exhaustive_roundtrip():
    start = time.time()
    checked = 0
    ok = True
    for m in range(0, 10):
        for x in iter_paths(m):
            t = decode(x)
            prof = degree_profile(t)
            s = x.symbols
            if encode(t) != x or prof.d1 != s.count(I) or prof.d0 != s.count(U) + s.count(H) + 1:
                ok = False
                break
            checked += 1
    elapsed = time.time() - start
    _report(2, "bijection-roundtrip-m<=9", ok and elapsed < 10.0,
            f"{checked} paths ({elapsed:.1f}s)")


def test_03_counting_identities():
    start = time.time()
    ok = True
    details = []
    for m in range(0, 11):
        strata: dict[int, int] = {}
        one_color: dict[int, int] = {}
        total = 0
        for x in iter_paths(m):
            k = x.symbols.count(U)
            total += 1
            strata[k] = strata.get(k, 0) + 1
            if x.symbols.count(I) == 0:
                one_color[k] = one_color.get(k, 0) + 1
        if total != catalan(m + 1):
            ok = False
            details.append(f"m={m} count {total} != {catalan(m + 1)}")
        for k, cnt in strata.items():
            # Two-color stratum: binom(m, 2k) * C_k placements/skeletons times
            # 2^(m-2k) level colorings.
            if cnt != math.comb(m, 2 * k) * catalan(k) * 2 ** (m - 2 * k):
                ok = False
                details.append(f"m={m} k={k} stratum")
        for k, cnt in one_color.items():
            # Single level color recovers the binomial-Catalan summand exactly.
            if cnt != math.comb(m, 2 * k) * catalan(k):
                ok = False
                details.append(f"m={m} k={k} one-color stratum")
    elapsed = time.time() - start
    _report(3, "counting-identities-m<=10", ok and elapsed < 30.0,
            "; ".join(details) if details else f"exact ({elapsed:.1f}s)")


def test_04_detailed_balance_and_stationarity():
    start = time.time()
    worst_db_rel = 0.0
    worst_stat = 0.0
    worst_row = 0.0
    connected = True
    for m in range(1, 7):
        for alpha, beta in PARAM_GRID:
            model = cached_model(m, alpha, beta)
            P = scipy_csr(model.P)
            flow = P.multiply(model.pi[:, None]).tocsr()
            asym = np.abs((flow - flow.T).toarray()).max()
            scale = flow.max()
            worst_db_rel = max(worst_db_rel, asym / scale)
            worst_stat = max(worst_stat, float(np.abs(model.pi @ P - model.pi).max()))
            rows = np.asarray(P.sum(axis=1)).ravel()
            worst_row = max(worst_row, float(np.abs(rows - 1.0).max()))
            connected = connected and is_strongly_connected(model)
    elapsed = time.time() - start
    ok = (worst_db_rel <= 1e-12 and worst_stat <= 1e-12 and worst_row <= 1e-12
          and connected and elapsed < 120.0)
    _report(4, "detailed-balance-stationarity-m<=6", ok,
            f"db={worst_db_rel:.2e} stat={worst_stat:.2e} rows={worst_row:.2e} "
            f"connected={connected} ({elapsed:.1f}s)")


def test_05_sampler_uniform_case():
    start = time.time()
    params = EnergyParams(0.0, 0.0)
    model = cached_model(6, 0.0, 0.0)
    cfg = ChainConfig(m=6, params=params, seed=SAMPLER_SEED)
    result = run(cfg, total_steps=SAMPLER_TOTAL, burn_in=SAMPLER_BURN_IN, thin=SAMPLER_THIN)
    emp = _empirical_from_samples(result.samples, model.index)
    uniform = np.full(model.n, 1.0 / model.n)
    tv = tv_distance(emp, uniform)
    elapsed = time.time() - start
    _report(5, "sampler-uniform-tv<=0.02", tv <= 0.02 and elapsed < 60.0,
            f"TV={tv:.4f} over {result.emitted} kept samples ({elapsed:.1f}s)")


def test_06_sampler_weighted_case():
    start = time.time()
    params = derive_params(BUILTIN_NNTM["turner04-cg"])
    model = cached_model(6, params.alpha, params.beta)
    cfg = ChainConfig(m=6, params=params, seed=SAMPLER_SEED)
    result = run(cfg, total_steps=SAMPLER_TOTAL, burn_in=SAMPLER_BURN_IN, thin=SAMPLER_THIN)
    emp = _empirical_from_samples(result.samples, model.index)
    tv = tv_distance(emp, model.pi)

    d0_series = [
        s.path.symbols.count(U) + s.path.symbols.count(H) + 1
        for _, s in sample_rows(result.samples)
    ]
    mean_d0 = float(np.mean(d0_series))
    se = batch_means_stderr(d0_series, n_batches=100)
    exact_d0 = float(
        sum(
            pi_x * (p.symbols.count(U) + p.symbols.count(H) + 1)
            for pi_x, p in zip(model.pi, iter_paths(6))
        )
    )
    z = abs(mean_d0 - exact_d0) / se
    elapsed = time.time() - start
    ok = tv <= 0.03 and z <= 3.0 and elapsed < 60.0
    _report(6, "sampler-weighted-tv<=0.03-and-mean-d0", ok,
            f"TV={tv:.4f} mean_d0={mean_d0:.4f} exact={exact_d0:.4f} |z|={z:.2f} ({elapsed:.1f}s)")


def test_07_decomposition_structure():
    start = time.time()
    worst_kdist = 0.0
    worst_energy_spread = 0.0
    worst_uniform = 0.0
    sizes_ok = True
    log_concave_ok = True
    for m in range(1, 7):
        for alpha, beta in PARAM_GRID:
            params = EnergyParams(alpha, beta)
            model = cached_model(m, alpha, beta)
            closed = projected_k_distribution(m, params)
            masses = np.array([model.pi[idx].sum() for idx in blocks_at(model.index, 1).values()])
            worst_kdist = max(worst_kdist, float(np.abs(closed - masses).max()))
            logs = np.log(closed)
            for i in range(1, len(logs) - 1):
                if 2 * logs[i] + 1e-12 < logs[i - 1] + logs[i + 1]:
                    log_concave_ok = False
            for rep in check_skeleton_projection(model).values():
                sizes_ok = sizes_ok and rep.sizes_match
                worst_energy_spread = max(worst_energy_spread, rep.energy_spread)
                worst_uniform = max(worst_uniform, rep.pi_uniform_maxdev)
    elapsed = time.time() - start
    ok = (worst_kdist <= 1e-12 and log_concave_ok and worst_energy_spread == 0.0
          and sizes_ok and worst_uniform <= 1e-12 and elapsed < 120.0)
    _report(7, "decomposition-structure-m<=6", ok,
            f"kdist={worst_kdist:.2e} spread={worst_energy_spread:.2e} "
            f"uniform={worst_uniform:.2e} sizes_ok={sizes_ok} ({elapsed:.1f}s)")


def test_08_gap_product_lower_bound():
    start = time.time()
    ok = True
    margins = []
    for m in (3, 4, 5, 6):
        for alpha, beta in PARAM_GRID:
            report = check_decomposition_bound(cached_model(m, alpha, beta))
            ok = ok and report.holds
            margins.append(report.gap_full / report.bound)
    elapsed = time.time() - start
    _report(8, "gap-product-bound-m=3..6", ok and elapsed < 120.0,
            f"min gap/bound ratio={min(margins):.2f} ({elapsed:.1f}s)")


def test_09_spectral_method_cross_check():
    start = time.time()
    worst = 0.0
    for m in range(2, 7):
        model = cached_model(m, 0.0, 0.0)
        dense_gap = 1.0 - dense_lambda1(model.P, model.pi)
        lanczos = spectral_gap(model)
        worst = max(worst, abs(dense_gap - lanczos.gap))
    elapsed = time.time() - start
    _report(9, "spectral-dense-vs-lanczos-1e-8", worst <= 1e-8 and elapsed < 60.0,
            f"worst |diff|={worst:.2e} ({elapsed:.1f}s)")


def test_10_relaxation_scaling_consistency():
    start = time.time()
    gaps = {}
    worst = 0.0  # against the dense reference, where it is small enough
    for m in range(3, 9):
        model = cached_model(m, 0.0, 0.0)
        gaps[m] = spectral_gap(model).gap
        if model.n <= 1000:
            worst = max(worst, abs(gaps[m] - (1.0 - dense_lambda1(model.P, model.pi))))
    ms = np.array(sorted(gaps))
    slope = float(np.polyfit(np.log(ms), np.log([1.0 / gaps[m] for m in ms]), 1)[0])
    elapsed = time.time() - start
    ok = slope <= 7.0 and worst <= 1e-12 and elapsed < 600.0
    _report(10, "relaxation-scaling-slope<=7", ok,
            f"slope={slope:.2f} gaps m=3..8, worst |diff| to dense={worst:.2e} ({elapsed:.1f}s)")


def test_11_cli_determinism(tmp_path):
    start = time.time()
    cli = [sys.executable, "-m", "treegibbs"]

    def run_cli(*args):
        res = subprocess.run(cli + [str(a) for a in args], capture_output=True, timeout=300)
        assert res.returncode == 0, res.stderr.decode()

    pairs = []
    for tag, flags in {
        "sample": ["sample", "--n", "6", "--alpha", "-1", "--beta", "0.5",
                   "--steps", "3e3", "--burn-in", "100", "--thin", "3", "--seed", "11"],
        "exact": ["exact", "gap", "--m", "4", "--alpha", "0", "--beta", "0"],
        "decompose": ["decompose", "report", "--m", "4", "--alpha", "1",
                      "--beta", "-1", "--level", "kqs"],
    }.items():
        a = tmp_path / f"{tag}.a.out"
        b = tmp_path / f"{tag}.b.out"
        run_cli(*flags, "--out", a)
        run_cli(*flags, "--out", b)
        pairs.append((tag, a.read_bytes() == b.read_bytes()))
    words = "\n".join(p.word for p in iter_paths(4)) + "\n"
    src = tmp_path / "in.txt"
    src.write_text(words)
    a = tmp_path / "conv.a.out"
    b = tmp_path / "conv.b.out"
    run_cli("convert", "--to", "trees", "--in", src, "--out", a)
    run_cli("convert", "--to", "trees", "--in", src, "--out", b)
    pairs.append(("convert", a.read_bytes() == b.read_bytes()))
    elapsed = time.time() - start
    ok = all(same for _, same in pairs) and elapsed < 60.0
    _report(11, "cli-byte-identical-reruns", ok,
            f"{[(t, s) for t, s in pairs]} ({elapsed:.1f}s)")
