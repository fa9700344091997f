"""Exact oracle: Gibbs law, verified transition models, spectra, TV curves."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegibbs import (
    EnergyParams,
    StateIndex,
    build_transition_model,
    catalan,
    gibbs_distribution,
    path_energy,
    resolve_params,
    spectral_gap,
    tv_decay_curve,
    tv_distance,
    validate,
)
from treegibbs.exact import (
    detailed_balance_violation,
    empirical_distribution,
    is_strongly_connected,
    stationarity_residual,
    verify_model,
)
from treegibbs.errors import (
    BalanceViolationError,
    CapExceededError,
    ConfigInvalidError,
    LengthMismatchError,
)
from treegibbs.law import logsumexp
from treegibbs.paths import TwoMotzkinPath

from conftest import sample_rows

ZERO = EnergyParams(0.0, 0.0)
PINS = json.loads((Path(__file__).parent / "data" / "law_pins_m0-12.json").read_text())
PIN_PARAMS = {
    "turner04-cg": resolve_params("turner04-cg"),
    "0,0": ZERO,
    "1,-1": EnergyParams(1.0, -1.0),
}


class TestStateIndex:
    def test_order_and_lookup(self):
        idx = StateIndex.build(3)
        assert len(idx) == 14
        for i, p in enumerate(idx.paths):
            assert idx.index_of(p) == i

    def test_order_hash_stable(self):
        assert StateIndex.build(2).order_hash() == StateIndex.build(2).order_hash()
        assert StateIndex.build(2).order_hash() != StateIndex.build(3).order_hash()

    def test_cap(self):
        with pytest.raises(CapExceededError):
            StateIndex.build(13)

    @pytest.mark.parametrize("m", range(13))
    def test_order_hash_pinned(self, m):
        assert StateIndex.build(m).order_hash() == PINS["order_hash"][str(m)]

    @pytest.mark.parametrize(
        "word",
        [
            b"UHD",  # another length
            b"XD",  # a byte outside U/H/I/D, which the codes read as a U
            b"DU",  # the right length, but not a path
        ],
    )
    def test_non_state_raises_key_error(self, word):
        idx = StateIndex.build(2)
        with pytest.raises(KeyError):
            idx.index_of(TwoMotzkinPath._trusted(word))
        with pytest.raises(KeyError):
            empirical_distribution({b"UD": 2, word: 1}, idx)

    def test_paths_view_matches_words(self):
        idx = StateIndex.build(4)
        assert [p.symbols for p in idx.paths] == [row.tobytes() for row in idx.words]
        assert idx.paths[-1].word == "IIII"
        assert not idx.words.flags.writeable


class TestGibbsDistribution:
    @pytest.mark.parametrize("name", PIN_PARAMS)
    @pytest.mark.parametrize("m", range(13))
    def test_pi_pinned(self, m, name):
        pi, log_z = gibbs_distribution(m, PIN_PARAMS[name])
        assert hashlib.sha256(pi.astype("<f8").tobytes()).hexdigest() == PINS["pi_sha256"][name][str(m)]
        assert repr(log_z) == PINS["log_z_repr"][name][str(m)]

    def test_uniform_m2(self):
        pi, log_z = gibbs_distribution(2, ZERO)
        assert np.allclose(pi, 0.2, atol=1e-15)
        assert log_z == pytest.approx(math.log(5.0), rel=1e-15)

    def test_two_state_weights(self):
        # At m=1 the states are H (energy 2a) and I (energy a + b); with
        # a=0, b=log 2 the weights are 1 and 1/2.
        pi, _ = gibbs_distribution(1, EnergyParams(0.0, math.log(2.0)))
        idx = StateIndex.build(1)
        order = {p.word: i for i, p in enumerate(idx.paths)}
        assert pi[order["H"]] == pytest.approx(2 / 3, rel=1e-14)
        assert pi[order["I"]] == pytest.approx(1 / 3, rel=1e-14)

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_normalization(self, m):
        pi, _ = gibbs_distribution(m, EnergyParams(-2.8, -3.0))
        assert pi.sum() == pytest.approx(1.0, abs=1e-14)
        assert (pi > 0).all()

    def test_log_space_survives_extreme_params(self):
        pi, log_z = gibbs_distribution(4, EnergyParams(300.0, -300.0))
        assert np.isfinite(pi).all() and np.isfinite(log_z)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)


LSE_PARAMS = [resolve_params("turner04-cg"), ZERO, EnergyParams(1.0, -1.0), EnergyParams(-0.7, 2.3)]


class TestLogSumExp:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_scipy_on_the_callers_inputs(self, m):
        # The Gibbs log-weights of every state and the closed-form log-weights
        # of each up-step count k: what gibbs_distribution and
        # projected_k_distribution normalize.
        from scipy.special import logsumexp as scipy_logsumexp

        paths = StateIndex.build(m).paths
        for params in LSE_PARAMS:
            a, b = params.alpha, params.beta
            log_t = np.logaddexp(-a, -b)
            by_k = [
                math.log(math.comb(m, 2 * k) * catalan(k)) - a * k + (m - 2 * k) * log_t
                for k in range(m // 2 + 1)
            ]
            for log_w in (np.array([-path_energy(p, params) for p in paths]), np.array(by_k)):
                assert logsumexp(log_w) == pytest.approx(
                    float(scipy_logsumexp(log_w)), rel=1e-15, abs=0.0
                )

    @pytest.mark.parametrize(
        "a, expected",
        [
            ([3.0, 3.0, 1.0], 3.0 + math.log(2.0 + math.exp(-2.0))),
            ([-math.inf, -math.inf], -math.inf),
            ([math.inf, 0.0], math.inf),
            ([math.inf, -math.inf, math.inf], math.inf),
            ([-math.inf, 0.0, 1.0], 1.0 + math.log1p(math.exp(-1.0))),
        ],
    )
    def test_ties_and_infinities(self, a, expected):
        assert logsumexp(a) == pytest.approx(expected, rel=1e-15)


class TestTransitionModel:
    @pytest.mark.parametrize("name", PIN_PARAMS)
    @pytest.mark.parametrize("m", range(1, 9))
    def test_energies_are_path_energy(self, m, name):
        params = PIN_PARAMS[name]
        model = build_transition_model(m, params)
        got = [repr(e) for e in model.energies.tolist()]
        assert got == [repr(path_energy(x, params)) for x in model.index.paths]

    def test_matches_pointwise_law(self, model_for):
        model = model_for(2, 0.0, 0.0)
        i = model.index.index_of(validate("UD"))
        j = model.index.index_of(validate("HH"))
        assert model.P[i, j] == pytest.approx(1 / 16)
        assert model.P[j, i] == pytest.approx(1 / 16)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_rows_match_transition_distribution(self, m, model_for):
        # The matrix looks each target up by its code; the one-row law reads
        # the same cells by word.
        from treegibbs.chain import transition_distribution

        model = model_for(m, 1.0, -1.0)
        for i, x in enumerate(model.index.paths):
            law = transition_distribution(x, model.params)
            row = model.P.getrow(i)
            got = {model.index.paths[j].symbols: v for j, v in zip(row.indices, row.data)}
            assert got.keys() == law.keys()
            for key, mass in law.items():
                assert got[key] == pytest.approx(mass, abs=1e-15)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_rows_and_stationarity(self, m, model_for):
        model = model_for(m, -1.0, 1.0)
        rows = np.asarray(model.P.sum(axis=1)).ravel()
        assert np.abs(rows - 1.0).max() < 1e-12
        assert stationarity_residual(model) < 1e-12

    @pytest.mark.parametrize("m", range(1, 6))
    def test_strong_connectivity(self, m, model_for):
        assert is_strongly_connected(model_for(m, 1.0, -1.0))

    def test_one_way_edge_is_not_strongly_connected(self, model_for):
        import copy

        import scipy.sparse as sp

        model = copy.deepcopy(model_for(1, 0.0, 0.0))
        # H -> I but not back: one-way, so two components; the lazy diagonal
        # joins nothing.
        model.P = sp.csr_matrix(np.array([[0.5, 0.5], [0.0, 1.0]]))
        assert not is_strongly_connected(model)
        model.P = sp.csr_matrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert is_strongly_connected(model)

    def test_verify_detects_broken_kernel(self, model_for):
        import copy

        model = copy.deepcopy(model_for(2, 0.0, 0.0))
        P = model.P.tolil()
        P[0, 1] += 0.01
        P[0, 0] -= 0.01
        model.P = P.tocsr()
        with pytest.raises(BalanceViolationError):
            verify_model(model)

    def test_detailed_balance_reporting(self, model_for):
        worst, pair = detailed_balance_violation(model_for(4, -1.0, 0.0))
        assert worst <= 1e-15
        assert isinstance(pair, tuple)

    @given(
        alpha=st.floats(min_value=-5.0, max_value=5.0),
        beta=st.floats(min_value=-5.0, max_value=5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_detailed_balance_arbitrary_params(self, alpha, beta):
        # Construction verifies row sums, stationarity, and balance, and
        # raises on any violation beyond the 1e-12 scale.
        model = build_transition_model(3, EnergyParams(alpha, beta))
        assert stationarity_residual(model) < 1e-12


class TestSpectral:
    def test_dense_matches_direct_eigensolve(self, model_for):
        model = model_for(2, 0.0, 0.0)
        report = spectral_gap(model, method="dense")
        # Independent route: eigenvalues of the dense kernel itself.
        eigvals = np.sort(np.abs(np.linalg.eigvals(model.P.toarray())))
        assert report.lambda1 == pytest.approx(eigvals[-2], abs=1e-12)
        assert 0.0 < report.gap <= 1.0
        assert report.relaxation_time == pytest.approx(1.0 / report.gap)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_methods_agree(self, m, model_for):
        model = model_for(m, 0.0, 0.0)
        dense = spectral_gap(model, method="dense")
        lanczos = spectral_gap(model, method="lanczos")
        assert abs(dense.gap - lanczos.gap) < 1e-8
        assert lanczos.residual <= 1e-10

    @pytest.mark.parametrize("m", [7, 8])
    def test_lanczos_matches_dense_at_auto_sizes(self, m):
        # "auto" picks Lanczos here; the dense solve is the reference.
        model = build_transition_model(m, resolve_params("turner04-cg"))
        lanczos = spectral_gap(model)
        assert lanczos.method == "lanczos"
        assert abs(lanczos.gap - spectral_gap(model, method="dense").gap) <= 1e-12
        assert lanczos.residual <= 1e-10
        assert lanczos.iterations > 0

    def test_spectrum_nonnegative_from_laziness(self, model_for):
        for m in range(1, 7):
            model = model_for(m, 1.0, 1.0)
            root = np.sqrt(model.pi)
            sym = (root[:, None] * model.P.toarray()) / root[None, :]
            eigvals = np.linalg.eigvalsh(sym)
            assert eigvals.min() >= -1e-12

    def test_single_state_rejected(self):
        model = build_transition_model(1, ZERO)
        # m=0 would be a one-state space; emulate via slicing contract instead.
        assert model.n == 2
        with pytest.raises(ConfigInvalidError):
            import dataclasses

            tiny = dataclasses.replace(model, pi=np.array([1.0]))
            spectral_gap(tiny)


class TestTV:
    def test_identical(self):
        assert tv_distance(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0

    def test_disjoint_point_masses(self):
        assert tv_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_uniform_vs_point(self):
        assert tv_distance(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            tv_distance(np.ones(2) / 2, np.ones(3) / 3)


class TestTVDecay:
    def test_starts_at_complement_of_pi_mass(self, model_for):
        model = model_for(3, 0.0, 0.0)
        x0 = validate("HHH")
        curve = tv_decay_curve(model, x0, horizon=5)
        i = model.index.index_of(x0)
        assert curve[0] == (0, pytest.approx(1.0 - model.pi[i]))

    @pytest.mark.parametrize("m", [2, 4, 5])
    def test_monotone_and_convergent(self, m, model_for):
        model = model_for(m, 0.0, 0.0)
        curve = tv_decay_curve(model, validate("H" * m), horizon=3000)
        values = [v for _, v in curve]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-12
        assert values[-1] < 1e-6

    def test_weighted_convergence(self, model_for):
        model = model_for(4, -1.0, 1.0)
        curve = tv_decay_curve(model, validate("UUDD"), horizon=4000)
        assert curve[-1][1] < 1e-6


class TestEmpirical:
    def test_long_run_matches_weighted_pi(self, model_for):
        # Off-axis grid point not covered by the acceptance suite.
        from collections import Counter

        from treegibbs import ChainConfig, run

        params = EnergyParams(1.0, -1.0)
        model = model_for(4, 1.0, -1.0)
        cfg = ChainConfig(m=4, params=params, seed=2)
        res = run(cfg, total_steps=10_000 + 10 * 200_000, burn_in=10_000, thin=10)
        counts = Counter(s.path.symbols for _, s in sample_rows(res.samples))
        emp = empirical_distribution(dict(counts), model.index)
        assert tv_distance(emp, model.pi) < 0.03

    def test_alignment(self):
        idx = StateIndex.build(2)
        occ = {validate("UD").symbols: 3, validate("II").symbols: 1}
        emp = empirical_distribution(occ, idx)
        assert emp.sum() == pytest.approx(1.0)
        assert emp[idx.index_of(validate("UD"))] == pytest.approx(0.75)

    def test_empty_rejected(self):
        with pytest.raises(ConfigInvalidError):
            empirical_distribution({}, StateIndex.build(2))
