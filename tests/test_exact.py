"""Exact oracle: Gibbs law, verified transition models, spectra, TV curves."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treegibbs.exact as exact
from treegibbs import (
    EnergyParams,
    StateIndex,
    build_transition_model,
    catalan,
    gibbs_distribution,
    iter_paths,
    path_energy,
    resolve_params,
    spectral_gap,
    tv_decay_curve,
    tv_distance,
)
from treegibbs.cli import main
from treegibbs.exact import (
    Kernel,
    build_sector,
    detailed_balance_violation,
    reversal_gap,
    stationarity_residual,
    symmetrized,
    verify_model,
)
from treegibbs.errors import (
    BalanceViolationError,
    CapExceededError,
    ConfigInvalidError,
    InternalInvariantViolationError,
    LengthMismatchError,
)
from treegibbs.law import empirical_distribution, logsumexp
from treegibbs.paths import D, H, U, TwoMotzkinPath

from conftest import (
    dense_lambda1,
    is_strongly_connected,
    kernel_from_dense,
    sample_rows,
    scipy_csr,
    to_dense,
    transition_distribution,
)

ZERO = EnergyParams(0.0, 0.0)
PINS = json.loads((Path(__file__).parent / "data" / "law_pins_m0-12.json").read_text())
PIN_PARAMS = {
    "turner04-cg": resolve_params("turner04-cg"),
    "0,0": ZERO,
    "1,-1": EnergyParams(1.0, -1.0),
}
# (-1, 1) adds a set with beta > alpha, where I -> H is the larger site acceptance.
FOUR_PARAMS = {**PIN_PARAMS, "-1,1": EnergyParams(-1.0, 1.0)}


class TestStateIndex:
    def test_order_and_lookup(self):
        idx = StateIndex.build(3)
        assert len(idx) == 14
        for i, p in enumerate(iter_paths(3)):
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
            b"XD",  # a byte outside U/H/I/D
            b"DU",  # the right length, but not a path
        ],
    )
    def test_non_state_raises_key_error(self, word):
        idx = StateIndex.build(2)
        with pytest.raises(KeyError):
            idx.index_of(TwoMotzkinPath._trusted(word))
        with pytest.raises(KeyError):
            empirical_distribution({b"UD": 2, word: 1}, idx)

    def test_words_match_iter_paths(self):
        idx = StateIndex.build(4)
        assert [row.tobytes() for row in idx.words] == [p.symbols for p in iter_paths(4)]
        assert idx.words[-1].tobytes() == b"IIII"
        assert not idx.words.flags.writeable


class TestGibbsDistribution:
    @pytest.mark.parametrize("name", PIN_PARAMS)
    @pytest.mark.parametrize("m", range(13))
    def test_pi_pinned(self, m, name):
        pi, log_z = gibbs_distribution(StateIndex.build(m), PIN_PARAMS[name])
        assert hashlib.sha256(pi.astype("<f8").tobytes()).hexdigest() == PINS["pi_sha256"][name][str(m)]
        assert repr(log_z) == PINS["log_z_repr"][name][str(m)]

    def test_uniform_m2(self):
        pi, log_z = gibbs_distribution(StateIndex.build(2), ZERO)
        assert np.allclose(pi, 0.2, atol=1e-15)
        assert log_z == pytest.approx(math.log(5.0), rel=1e-15)

    def test_two_state_weights(self):
        # At m=1 the states are H (energy 2a) and I (energy a + b); with
        # a=0, b=log 2 the weights are 1 and 1/2.
        idx = StateIndex.build(1)
        pi, _ = gibbs_distribution(idx, EnergyParams(0.0, math.log(2.0)))
        order = {p.word: i for i, p in enumerate(iter_paths(1))}
        assert pi[order["H"]] == pytest.approx(2 / 3, rel=1e-14)
        assert pi[order["I"]] == pytest.approx(1 / 3, rel=1e-14)

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_normalization(self, m):
        pi, _ = gibbs_distribution(StateIndex.build(m), EnergyParams(-2.8, -3.0))
        assert pi.sum() == pytest.approx(1.0, abs=1e-14)
        assert (pi > 0).all()

    def test_log_space_survives_extreme_params(self):
        pi, log_z = gibbs_distribution(StateIndex.build(4), EnergyParams(300.0, -300.0))
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

        paths = list(iter_paths(m))
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
        assert got == [repr(path_energy(x, params)) for x in iter_paths(m)]

    def test_matches_pointwise_law(self, model_for):
        model = model_for(2, 0.0, 0.0)
        i = model.index.index_of(TwoMotzkinPath("UD"))
        j = model.index.index_of(TwoMotzkinPath("HH"))
        P = scipy_csr(model.P)
        assert P[i, j] == pytest.approx(1 / 16)
        assert P[j, i] == pytest.approx(1 / 16)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_rows_match_transition_distribution(self, m, model_for):
        # The matrix looks each target up by its code; the one-row law reads
        # the same cells by word.
        model = model_for(m, 1.0, -1.0)
        P = scipy_csr(model.P)
        for i, x in enumerate(iter_paths(m)):
            law = transition_distribution(x, model.params)
            row = P.getrow(i)
            got = {model.index.words[j].tobytes(): v for j, v in zip(row.indices, row.data)}
            assert got.keys() == law.keys()
            for key, mass in law.items():
                assert got[key] == pytest.approx(mass, abs=1e-15)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_rows_and_stationarity(self, m, model_for):
        model = model_for(m, -1.0, 1.0)
        rows = np.asarray(scipy_csr(model.P).sum(axis=1)).ravel()
        assert np.abs(rows - 1.0).max() < 1e-12
        assert stationarity_residual(model) < 1e-12

    @pytest.mark.parametrize("m", range(1, 6))
    def test_strong_connectivity(self, m, model_for):
        assert is_strongly_connected(model_for(m, 1.0, -1.0))

    def test_one_way_edge_is_not_strongly_connected(self, model_for):
        import copy

        model = copy.deepcopy(model_for(1, 0.0, 0.0))
        # H -> I but not back: one-way, so two components; the lazy diagonal
        # joins nothing.
        model.P = kernel_from_dense(np.array([[0.5, 0.5], [0.0, 1.0]]))
        assert not is_strongly_connected(model)
        model.P = kernel_from_dense(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert is_strongly_connected(model)

    def test_verify_detects_broken_kernel(self, model_for):
        import copy

        model = copy.deepcopy(model_for(2, 0.0, 0.0))
        P = scipy_csr(model.P).tolil()
        P[0, 1] += 0.01
        P[0, 0] -= 0.01
        P = P.tocsr()  # canonical: columns ascend in each row, with no repeats
        model.P = Kernel(P.indptr.astype(np.intp), P.indices.astype(np.intp), P.data)
        with pytest.raises(BalanceViolationError):
            verify_model(model, model.index.words)

    def test_draw_cell_listed_twice_is_an_internal_fault(self, monkeypatch, capsys):
        # Summing the repeated entries would keep every row stochastic and
        # pass every check in verify_model, with a wrong kernel.
        real = exact.draw_cells

        def first_site_cell_twice(words, params):
            for item in real(words, params):
                yield item
                if item[0].move == 1 and item[0].i == 0:
                    yield item

        monkeypatch.setattr(exact, "draw_cells", first_site_cell_twice)
        with pytest.raises(InternalInvariantViolationError):
            build_transition_model(4, resolve_params("turner04-cg"))
        assert main(["exact", "gap", "--m", "4", "--params", "turner04-cg"]) == 5
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old,new", [(H, D), (U, ord("X"))], ids=["not-a-path", "byte-outside-the-alphabet"]
    )
    def test_move_out_of_the_state_space_is_an_internal_fault(self, monkeypatch, capsys, old, new):
        # One cell writes one target with a symbol replaced: an H by a D
        # leaves a word that ends below 0, a U by an X a word that is not over
        # U/H/I/D at all.
        real = exact.draw_cells

        def one_target_spoiled(words, params):
            spoiled = False
            for cell, rows, targets, accept in real(words, params):
                at = np.argwhere(targets == old)
                if not spoiled and len(at):
                    targets = targets.copy()
                    targets[tuple(at[0])] = new
                    spoiled = True
                yield cell, rows, targets, accept

        monkeypatch.setattr(exact, "draw_cells", one_target_spoiled)
        with pytest.raises(InternalInvariantViolationError):
            build_transition_model(4, resolve_params("turner04-cg"))
        assert main(["exact", "gap", "--m", "4", "--params", "turner04-cg"]) == 5
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_cells_need_not_share_arrays(self, m, monkeypatch):
        # The build places each cell's entries as they are, so fresh copies
        # of every cell's arrays build the same kernel.
        params = resolve_params("turner04-cg")
        expected = build_transition_model(m, params).P
        real = exact.draw_cells

        def copied(words, params):
            for cell, *arrays in real(words, params):
                yield (cell, *(a.copy() for a in arrays))

        monkeypatch.setattr(exact, "draw_cells", copied)
        P = build_transition_model(m, params).P
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(P, name), getattr(expected, name)), name

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


class TestKernel:
    @pytest.mark.parametrize("name", PIN_PARAMS)
    @pytest.mark.parametrize("m", range(1, 7))
    def test_matches_scipy_reference(self, m, name):
        # The reference assembles the same draw cells through scipy's COO ->
        # CSR conversion; no two cells place the same entry, and no cell
        # places a diagonal one.
        import scipy.sparse as sp

        from treegibbs.chain import draw_cells

        params = PIN_PARAMS[name]
        model = build_transition_model(m, params)
        index = model.index
        # Targets are found by their bytes, not by the package's lookup.
        row_of = {word.tobytes(): row for row, word in enumerate(index.words)}
        rows, cols, vals = [], [], []
        for cell, r, targets, accept in draw_cells(index.words, params):
            rows.append(r)
            cols.append([row_of[target.tobytes()] for target in targets])
            vals.append(cell.weight * accept)
        rows, cols, vals = map(np.concatenate, (rows, cols, vals))
        n = len(index)
        stay = 1.0 - np.bincount(rows, weights=vals, minlength=n)
        reference = sp.csr_matrix(
            (np.append(vals, stay), (np.append(rows, np.arange(n)), np.append(cols, np.arange(n)))),
            shape=(n, n),
        )
        assert to_dense(model.P).shape == reference.shape
        assert model.P.nnz == reference.nnz
        assert np.array_equal(to_dense(model.P), reference.toarray())

    @pytest.mark.parametrize(
        "dense",
        [np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]]),
         np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [3.0, 0.0, 4.0]])],
        ids=["lazy", "empty-row"],
    )
    def test_products_match_dense(self, dense):
        P = kernel_from_dense(dense)
        assert np.array_equal(to_dense(P), dense)
        x = np.array([1.0, -2.0, 0.5])
        assert np.allclose(x @ P, x @ dense, rtol=0, atol=1e-15)
        assert np.allclose(P.row_sums(), dense.sum(axis=1), rtol=0, atol=1e-15)

    def test_mirrors(self):
        P = kernel_from_dense(np.array([[1.0, 2.0, 0.0], [3.0, 0.0, 4.0], [5.0, 0.0, 6.0]]))
        # Entries (0,0) (0,1) (1,0) (1,2) (2,0) (2,2); (1,2) and (2,0) lack mirrors.
        assert P.mirrors.tolist() == [0, 2, 1, -1, -1, 5]

    @pytest.mark.parametrize("m", range(2, 7))
    def test_symmetrized_operator(self, m, model_for):
        model = model_for(m, 1.0, -1.0)
        root = np.sqrt(model.pi)
        A = (root[:, None] * to_dense(model.P)) / root[None, :]
        x = np.random.default_rng(m).standard_normal(model.n)
        op = symmetrized(model.P, root)
        assert np.abs(op @ x - 0.5 * (A + A.T) @ x).max() < 1e-14
        assert np.abs(op @ root - root).max() < 1e-14


class TestPinnedGaps:
    # Recorded from `exact gap` before the oracle ran on numpy alone, when
    # Lanczos was ARPACK's.
    @pytest.mark.parametrize(
        "flags,lambda1,gap",
        [(("--m", "9", "--params", "turner04-cg"), 0.9981349908018864, 0.0018650091981136097),
         (("--m", "10", "--params", "turner04-cg"), 0.9985507286233, 0.0014492713767000343),
         (("--m", "8", "--alpha", "1", "--beta=-1"), 0.9988886503710741, 0.001111349628925895)],
        ids=["m9-turner04-cg", "m10-turner04-cg", "m8-1,-1"],
    )
    def test_exact_gap(self, tmp_path, flags, lambda1, gap):
        from treegibbs.cli import main

        out = tmp_path / "gap.json"
        assert main(["exact", "gap", *flags, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["method"] == "lanczos"
        assert abs(report["lambda1"] - lambda1) <= 1e-12
        assert abs(report["gap"] - gap) <= 1e-12
        assert report["residual"] <= 1e-12


class TestSpectral:
    def test_dense_matches_direct_eigensolve(self, model_for):
        model = model_for(2, 0.0, 0.0)
        report = spectral_gap(model)
        # Independent route: eigenvalues of the dense kernel itself.
        eigvals = np.sort(np.abs(np.linalg.eigvals(to_dense(model.P))))
        assert report.lambda1 == pytest.approx(eigvals[-2], abs=1e-12)
        assert 0.0 < report.gap <= 1.0
        assert report.relaxation_time == pytest.approx(1.0 / report.gap)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_methods_agree(self, m, model_for):
        model = model_for(m, 0.0, 0.0)
        dense_gap = 1.0 - dense_lambda1(model.P, model.pi)
        lanczos = spectral_gap(model)
        assert abs(dense_gap - lanczos.gap) < 1e-8
        assert lanczos.residual <= 1e-10

    @pytest.mark.parametrize("m", [7, 8])
    def test_lanczos_matches_dense_at_auto_sizes(self, m):
        # Above 500 states; the dense solve is the reference.
        model = build_transition_model(m, resolve_params("turner04-cg"))
        lanczos = spectral_gap(model)
        assert abs(lanczos.gap - (1.0 - dense_lambda1(model.P, model.pi))) <= 1e-12
        assert lanczos.residual <= 1e-10
        assert lanczos.iterations > 0

    def test_spectrum_nonnegative_from_laziness(self, model_for):
        for m in range(1, 7):
            model = model_for(m, 1.0, 1.0)
            root = np.sqrt(model.pi)
            sym = (root[:, None] * to_dense(model.P)) / root[None, :]
            eigvals = np.linalg.eigvalsh(sym)
            assert eigvals.min() >= -1e-12

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.0, -1.0)])
    def test_lanczos_ends_within_the_deflated_dimension(self, m, alpha, beta, model_for):
        # An orthonormal basis of the n - 1 directions orthogonal to sqrt(pi)
        # is exhausted after n - 1 products.
        model = model_for(m, alpha, beta)
        report = spectral_gap(model)
        assert report.iterations <= model.n - 1
        assert abs(report.gap - (1.0 - dense_lambda1(model.P, model.pi))) <= 1e-12

    def test_lanczos_reruns_are_identical(self, model_for):
        model = model_for(6, 1.0, -1.0)
        assert spectral_gap(model) == spectral_gap(model)

    def test_single_state_rejected(self):
        model = build_transition_model(1, ZERO)
        # m=0 would be a one-state space; emulate via slicing contract instead.
        assert model.n == 2
        with pytest.raises(ConfigInvalidError):
            import dataclasses

            tiny = dataclasses.replace(model, pi=np.array([1.0]))
            spectral_gap(tiny)

    def test_guess_orthogonal_to_the_top_eigenvector(self):
        # Two blocks, the top eigenvector in the first and the guess in the
        # second.  Products keep exact zeros, so a start from the guess alone
        # would never leave the second block; the cosines reach the first.
        first = np.array([[0.9, 0.05], [0.05, 0.5]])
        second = np.array([[0.6, 0.1, 0.0], [0.1, 0.4, 0.1], [0.0, 0.1, 0.3]])
        dense = np.zeros((5, 5))
        dense[:2, :2], dense[2:, 2:] = first, second
        A = symmetrized(kernel_from_dense(dense), np.ones(5))
        top = np.linalg.eigvalsh(dense)[-1]
        assert top > np.linalg.eigvalsh(second)[-1] + 0.2
        lambda1, v, _ = exact.lanczos_top(A, None, np.array([0.0, 0.0, 1.0, 2.0, 3.0]))
        assert abs(lambda1 - top) <= 1e-12
        assert np.abs(dense @ v - lambda1 * v).max() <= 1e-12


class TestReversalSectors:
    """The chain commutes with path reversal R, so ``exact gap`` solves the
    even and the odd sector apart (``exact.build_sector``)."""

    @pytest.mark.parametrize("name", FOUR_PARAMS)
    @pytest.mark.parametrize("m", range(1, 11))
    def test_kernel_commutes_with_reversal(self, m, name):
        model = build_transition_model(m, FOUR_PARAMS[name])
        P, rev = model.P, model.index.reversals
        states = np.arange(model.n)
        assert np.array_equal(rev[rev], states)
        assert np.count_nonzero(rev == states) == math.comb(m + 1, (m + 1) // 2)  # palindromes
        assert np.array_equal(model.pi[rev], model.pi)
        # The entry at (Rx, Ry) of each entry (x, y) is stored and, off the
        # diagonal, equal; a diagonal is 1 minus its row's moves, summed in
        # another order.
        rows = P.rows
        codes = rows * P.n + P.indices
        mirrored = rev[rows] * P.n + rev[P.indices]
        at = np.searchsorted(codes, mirrored).clip(max=P.nnz - 1)
        assert np.array_equal(codes[at], mirrored)
        off = rows != P.indices
        assert np.array_equal(P.data[at][off], P.data[off])
        assert np.abs(P.data[at][~off] - P.data[~off]).max() <= 2.3e-16

    @pytest.mark.parametrize("name", FOUR_PARAMS)
    @pytest.mark.parametrize("m", range(2, 11))
    def test_sector_gap_matches_the_full_model(self, m, name):
        params = FOUR_PARAMS[name]
        model = build_transition_model(m, params)
        full = spectral_gap(model)
        sectors = reversal_gap(model.index, model.pi, params)
        assert abs(sectors.lambda1 - full.lambda1) <= 1e-12
        assert abs(sectors.gap - full.gap) <= 1e-12
        assert sectors.residual <= 1e-13
        if m <= 6:
            assert abs(sectors.lambda1 - dense_lambda1(model.P, model.pi)) <= 1e-12

    @pytest.mark.parametrize("name", FOUR_PARAMS)
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_sector_spectra_make_up_the_full_spectrum(self, m, name):
        model = build_transition_model(m, FOUR_PARAMS[name])

        def spectrum(chain):
            root = np.sqrt(chain.pi)
            return np.linalg.eigvalsh(root[:, None] * to_dense(chain.P) / root)

        even, odd = (build_sector(model.index, model.pi, model.params, odd)[0]
                     for odd in (False, True))
        assert even.stochastic and not odd.stochastic
        assert even.n + odd.n == model.n
        both = np.sort(np.concatenate([spectrum(even), spectrum(odd)]))
        assert np.abs(both - spectrum(model)).max() <= 1e-12

    @pytest.mark.parametrize(
        "name,lambda1",
        [("turner04-cg", (0.8750000000000001, 0.941076988680778)),
         ("1,-1", (0.8750000000000002, 0.9831767239697222)),
         ("0,0", (0.875, 0.9657253726847361)),
         ("-1,1", (0.8750000000000002, 0.9439776416626923))],
    )
    def test_shortest_paths(self, name, lambda1, capsys):
        # Every state is a palindrome at m <= 1, so there is no odd sector;
        # at m = 2 it holds the one orbit {HI, IH}.  The values are the
        # full chain's.
        params = FOUR_PARAMS[name]
        flags = ["--alpha", repr(params.alpha), f"--beta={params.beta!r}"]
        assert main(["exact", "gap", "--m", "0", *flags]) == 3
        assert capsys.readouterr().err == "validation error: transition law requires m >= 1\n"
        for m, expected in zip((1, 2), lambda1):
            assert main(["exact", "gap", "--m", str(m), *flags]) == 0
            report = json.loads(capsys.readouterr().out)
            assert abs(report["lambda1"] - expected) <= 1e-12
            index = StateIndex.build(m)
            _, reps = build_sector(index, gibbs_distribution(index, params)[0], params, odd=True)
            assert [index.words[x].tobytes() for x in reps] == ([] if m == 1 else [b"HI"])

    @pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
    @pytest.mark.parametrize("m", range(1, 9))
    def test_sector_states_and_masses(self, m, odd):
        # The representatives x <= Rx (x < Rx in the odd sector), in state
        # order, each weighing pi(x) + pi(Rx); Rx is found here by its word.
        params = resolve_params("turner04-cg")
        index = StateIndex.build(m)
        pi, _ = gibbs_distribution(index, params)
        swap = str.maketrans("UD", "DU")
        mirror = [index.index_of(TwoMotzkinPath(x.word[::-1].translate(swap)))
                  for x in iter_paths(m)]
        expected = [x for x, rx in enumerate(mirror) if (x < rx if odd else x <= rx)]
        sector, reps = build_sector(index, pi, params, odd)
        assert reps.tolist() == expected
        assert sector.n == len(expected) and sector.stochastic is not odd
        assert sector.pi.tolist() == [pi[x] * (1.0 if mirror[x] == x else 2.0) for x in expected]

    def test_spectral_gap_rejects_an_odd_sector(self, monkeypatch):
        # The odd sector is not stochastic and has no known top eigenvector:
        # spectral_gap refuses it before any product.
        params = resolve_params("turner04-cg")
        index = StateIndex.build(4)
        odd, _ = build_sector(index, gibbs_distribution(index, params)[0], params, odd=True)

        def never(*args, **kwargs):
            raise AssertionError("lanczos_top was called")

        monkeypatch.setattr(exact, "lanczos_top", never)
        with pytest.raises(ConfigInvalidError, match="reversal_gap"):
            spectral_gap(odd)

    def test_rule_without_its_mirror_fails_the_construction_check(self, monkeypatch, capsys):
        # U H -> H U at 0.4 while its mirror H D -> D H keeps 0.5.
        import treegibbs.chain as chain

        real = chain._move_rules

        def mutant(params):
            rules = real(params)
            rules[3][U, H] = ((H, U), 0.4)
            return rules

        monkeypatch.setattr(chain, "_move_rules", mutant)
        with pytest.raises(InternalInvariantViolationError, match="mirror"):
            chain.check_reversal_symmetry(resolve_params("turner04-cg"))
        assert main(["exact", "gap", "--m", "4", "--params", "turner04-cg"]) == 5
        err = capsys.readouterr().err
        assert err.startswith("internal check failed: move class 3") and "Traceback" not in err

    def test_self_mirrored_rule_change_fails_verification(self, monkeypatch, capsys):
        # D U -> U D is its own mirror, so at 0.4 the chain still commutes
        # with reversal and the construction check passes; the sector's
        # detailed balance check refuses it.
        import treegibbs.chain as chain

        real = chain._move_rules

        def mutant(params):
            rules = real(params)
            rules[2][D, U] = ((U, D), 0.4)
            return rules

        monkeypatch.setattr(chain, "_move_rules", mutant)
        chain.check_reversal_symmetry(resolve_params("turner04-cg"))
        assert main(["exact", "gap", "--m", "4", "--params", "turner04-cg"]) == 5
        err = capsys.readouterr().err
        assert err.startswith("internal check failed: ") and "Traceback" not in err


class TestFootprint:
    def test_traced_peak_per_kernel_entry(self):
        # What the oracle holds per kernel entry at m = 9 (211 764 entries),
        # the model included: about 48 B for the build and 58 B for the
        # solve.  A kernel that caches its rows and mirrors, or a build that
        # sorts a copy of its entry lists, reads 64 and 78 B.
        import tracemalloc

        params = resolve_params("turner04-cg")
        tracemalloc.start()
        try:
            model = build_transition_model(9, params)
            build_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            spectral_gap(model)
            solve_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert build_peak / model.P.nnz <= 54
        assert solve_peak / model.P.nnz <= 66

    def test_exact_gap_traced_peak_per_full_kernel_entry(self, capsys):
        # `exact gap` holds one reversal sector at a time and never the full
        # kernel: at m = 9 its whole run peaks at about 27 B per entry of the
        # full kernel (211 764 entries).  Building and solving the full
        # chain, as `exact gap` once did, reads about 58 B.
        import tracemalloc

        tracemalloc.start()
        try:
            assert main(["exact", "gap", "--m", "9", "--params", "turner04-cg"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert json.loads(capsys.readouterr().out)["m"] == 9
        assert peak / 211_764 <= 34


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
        x0 = TwoMotzkinPath("HHH")
        curve = tv_decay_curve(model, x0, horizon=5)
        i = model.index.index_of(x0)
        assert curve[0] == (0, pytest.approx(1.0 - model.pi[i]))

    @pytest.mark.parametrize("m", [2, 4, 5])
    def test_monotone_and_convergent(self, m, model_for):
        model = model_for(m, 0.0, 0.0)
        curve = tv_decay_curve(model, TwoMotzkinPath("H" * m), horizon=3000)
        values = [v for _, v in curve]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-12
        assert values[-1] < 1e-6

    def test_weighted_convergence(self, model_for):
        model = model_for(4, -1.0, 1.0)
        curve = tv_decay_curve(model, TwoMotzkinPath("UUDD"), horizon=4000)
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
        occ = {TwoMotzkinPath("UD").symbols: 3, TwoMotzkinPath("II").symbols: 1}
        emp = empirical_distribution(occ, idx)
        assert emp.sum() == pytest.approx(1.0)
        assert emp[idx.index_of(TwoMotzkinPath("UD"))] == pytest.approx(0.75)

    def test_empty_rejected(self):
        with pytest.raises(ConfigInvalidError):
            empirical_distribution({}, StateIndex.build(2))
