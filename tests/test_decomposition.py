"""Three-level decomposition: labels, restrictions, projections, gap bound."""

import copy
import json
import math
import tracemalloc
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import treegibbs.decomposition as decomposition
from treegibbs import (
    EnergyParams,
    StateIndex,
    TwoMotzkinPath,
    catalan,
    check_decomposition_bound,
    check_skeleton_projection,
    decomposition_report,
    iter_paths,
    projected_k_distribution,
    projection_chain,
    resolve_params,
    restriction_chain,
)
from treegibbs.cli import main
from treegibbs.decomposition import blocks_at
from treegibbs.errors import (
    ConfigInvalidError,
    EmptyBlockError,
    InternalInvariantViolationError,
    NotAPartitionError,
)
from treegibbs.exact import Chain, Kernel, spectral_gap
from treegibbs.paths import U

from conftest import dense_lambda1, kernel_from_dense, scipy_csr, to_dense

ZERO = EnergyParams(0.0, 0.0)
GRID = [(a, b) for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0)]
GOLDEN_M6_KQS = Path(__file__).parent / "data" / "decompose_m6_kqs_a1_b-1.json"


class Label(NamedTuple):
    """Classification of a path: up-step count, color word, skeleton."""

    k: int
    q: str
    s: str


def classify(x: TwoMotzkinPath) -> Label:
    """Split a path into its (k, q, s) coordinates, one word at a time: the
    reference for ``StateIndex.label_blocks``."""
    w = x.symbols
    q, s = w.translate(None, b"UD"), w.translate(None, b"HI")
    return Label(w.count(b"U"), q.decode(), s.decode())


class TestClassify:
    @pytest.mark.parametrize(
        "word,label",
        [
            ("HIHI", (0, "HIHI", "")),
            ("UHIDUD", (2, "HI", "UDUD")),
            ("UUDD", (2, "", "UUDD")),
        ],
    )
    def test_examples(self, word, label):
        got = classify(TwoMotzkinPath(word))
        assert (got.k, got.q, got.s) == label

    def test_consistency(self):
        for x in iter_paths(6):
            label = classify(x)
            assert label.s == "".join(c for c in x.word if c in "UD")
            assert label.k == x.symbols.count(U)
            assert label.q == "".join(c for c in x.word if c in "HI")


class TestPartitions:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_blocks_cover_and_are_disjoint(self, m, model_for):
        model = model_for(m, 0.0, 0.0)
        for depth in (1, 2, 3):
            idxs = np.concatenate(list(blocks_at(model.index, depth).values()))
            assert sorted(idxs) == list(range(model.n))

    @pytest.mark.parametrize("m", range(1, 7))
    def test_block_sizes(self, m, model_for):
        model = model_for(m, 0.0, 0.0)
        for k, idx in blocks_at(model.index, 1).items():
            assert len(idx) == comb(m, 2 * k) * catalan(k) * 2 ** (m - 2 * k)
        for (k, q), idx in blocks_at(model.index, 2).items():
            assert len(idx) == comb(m, 2 * k) * catalan(k)
        for (k, q, s), idx in blocks_at(model.index, 3).items():
            assert len(idx) == comb(m, 2 * k)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_grouper_matches_classify_reference(self, m):
        index = StateIndex.build(m)
        labels = [classify(p) for p in iter_paths(m)]
        keys = {
            1: lambda lab: lab.k,
            2: lambda lab: (lab.k, lab.q),
            3: lambda lab: (lab.k, lab.q, lab.s),
        }
        for depth, key in keys.items():
            reference: dict = {}
            for i, lab in enumerate(labels):
                reference.setdefault(key(lab), []).append(i)
            got = blocks_at(index, depth)
            assert list(got) == sorted(reference)
            for label, idx in got.items():
                assert idx.tolist() == reference[label]

    def test_report_labels_each_state_once(self, monkeypatch):
        # The report labels the states through StateIndex.label_blocks, which
        # must compute the labels once per index, however often it is read.
        calls = []
        labels = StateIndex.label_blocks
        real = labels.func

        def counting(index):
            calls.append(index)
            return real(index)

        monkeypatch.setattr(labels, "func", counting)
        decomposition_report(6, EnergyParams(1.0, -1.0), level="kqs")
        assert len(calls) == 1


def test_every_chain_is_a_chain(model_for):
    # The full chain, its restrictions and its projections are one type: a
    # kernel with its law, which spectral_gap takes.
    model = model_for(4, 1.0, -1.0)
    by_k = blocks_at(model.index, 1)
    res = restriction_chain(model, by_k[1])
    proj = projection_chain(model, list(by_k.values()))
    assert isinstance(model, Chain)
    assert type(res) is Chain and type(proj) is Chain
    assert (res.n, proj.n) == (len(by_k[1]), len(by_k))
    assert projection_chain(res, [np.arange(res.n)]).n == 1


class TestRestriction:
    def test_whole_space_is_identity_operation(self, model_for):
        model = model_for(3, 0.0, 0.0)
        res = restriction_chain(model, np.arange(model.n))
        assert np.allclose(to_dense(res.P), to_dense(model.P), atol=1e-15)
        assert np.allclose(res.pi, model.pi, atol=1e-15)

    def test_singleton_block(self, model_for):
        model = model_for(3, 0.0, 0.0)
        res = restriction_chain(model, np.array([5]))
        assert to_dense(res.P).shape == (1, 1)
        assert scipy_csr(res.P)[0, 0] == 1.0

    def test_empty_block_rejected(self, model_for):
        with pytest.raises(EmptyBlockError):
            restriction_chain(model_for(3, 0.0, 0.0), np.array([], dtype=int))

    @pytest.mark.parametrize("block", [[0, 99], [-1, 0], [0, 14]], ids=["99", "-1", "14"])
    def test_index_outside_the_space_rejected(self, block, model_for):
        # 14 states at m = 3.
        with pytest.raises(NotAPartitionError):
            restriction_chain(model_for(3, 0.0, 0.0), block)

    def test_repeated_index_rejected(self, model_for):
        with pytest.raises(NotAPartitionError):
            restriction_chain(model_for(3, 0.0, 0.0), [1, 1, 2])

    def test_descending_block_rejected(self, model_for):
        with pytest.raises(NotAPartitionError):
            restriction_chain(model_for(3, 0.0, 0.0), [0, 2, 1])

    def test_row_without_diagonal_is_an_internal_fault(self, model_for):
        model = copy.deepcopy(model_for(1, 0.0, 0.0))
        model.P = kernel_from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(InternalInvariantViolationError):
            restriction_chain(model, [0, 1])

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.0, -1.0), (-1.0, 0.5)])
    def test_matches_scipy_slice_off_the_diagonal(self, depth, alpha, beta, model_for):
        model = model_for(6, alpha, beta)
        whole = scipy_csr(model.P)
        for block in blocks_at(model.index, depth).values():
            res = restriction_chain(model, block)
            expected = whole[block][:, block]
            off = res.P.rows != res.P.indices
            assert np.array_equal(res.P.indptr, expected.indptr)
            assert np.array_equal(res.P.indices, expected.indices)
            assert np.array_equal(res.P.data[off], expected.data[off])
            assert np.abs(res.P.row_sums() - 1.0).max() <= 1e-15

    @pytest.mark.parametrize("alpha,beta", GRID)
    def test_stationarity_of_renormalized_pi(self, alpha, beta, model_for):
        model = model_for(4, alpha, beta)
        for k, block in blocks_at(model.index, 1).items():
            res = restriction_chain(model, block)
            assert np.abs(res.pi @ res.P - res.pi).max() < 1e-12
            expected = model.pi[block] / model.pi[block].sum()
            assert np.abs(res.pi - expected).max() < 1e-12

    def test_rows_stochastic_and_lazy(self, model_for):
        model = model_for(5, 1.0, -1.0)
        for block in blocks_at(model.index, 1).values():
            res = restriction_chain(model, block)
            P = scipy_csr(res.P)
            assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12
            assert P.diagonal().min() >= 0.5 - 1e-12

    def test_restriction_is_a_sparse_slice(self, model_for):
        model = model_for(6, 1.0, -1.0)
        for block in blocks_at(model.index, 1).values():
            res = restriction_chain(model, block)
            assert isinstance(res.P, Kernel)
            assert res.P.nnz == scipy_csr(model.P)[block][:, block].nnz
            assert np.abs(np.asarray(scipy_csr(res.P).sum(axis=1)).ravel() - 1.0).max() < 1e-12


class TestProjection:
    def test_trivial_partition(self, model_for):
        model = model_for(3, 0.0, 0.0)
        proj = projection_chain(model, [np.arange(model.n)])
        assert to_dense(proj.P).shape == (1, 1)
        assert to_dense(proj.P)[0, 0] == pytest.approx(1.0)
        assert proj.pi[0] == pytest.approx(1.0)

    def test_no_blocks_rejected(self, model_for):
        with pytest.raises(NotAPartitionError):
            projection_chain(model_for(3, 0.0, 0.0), [])

    def test_not_a_partition_rejected(self, model_for):
        model = model_for(3, 0.0, 0.0)
        with pytest.raises(NotAPartitionError):
            projection_chain(model, [np.arange(5), np.arange(4, model.n)])

    @pytest.mark.parametrize("last", [-1, 14], ids=["aliased", "past-the-end"])
    def test_index_outside_the_space_rejected(self, last, model_for):
        # 14 states at m = 3: -1 would alias state 13 and leave state 6 unassigned.
        model = model_for(3, 0.0, 0.0)
        with pytest.raises(NotAPartitionError):
            projection_chain(model, [np.r_[np.arange(6), last], np.arange(7, 14)])

    def test_uniform_m4_block_masses(self, model_for):
        # Brute-force masses at alpha = beta = 0: |S_k| / 42 = (16, 24, 2) / 42.
        model = model_for(4, 0.0, 0.0)
        by_k = blocks_at(model.index, 1)
        proj = projection_chain(model, list(by_k.values()))
        assert np.allclose(proj.pi, np.array([16, 24, 2]) / 42, atol=1e-14)

    @pytest.mark.parametrize("alpha,beta", GRID)
    def test_projection_reversible_and_stochastic(self, alpha, beta, model_for):
        model = model_for(4, alpha, beta)
        by_k = blocks_at(model.index, 1)
        proj = projection_chain(model, list(by_k.values()))
        P = to_dense(proj.P)
        assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12
        flows = proj.pi[:, None] * P
        assert np.abs(flows - flows.T).max() < 1e-14
        assert proj.pi.sum() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.0, -1.0)])
    @pytest.mark.parametrize("depth", [1, 3], ids=["k", "label"])
    @pytest.mark.parametrize("m", range(1, 9))
    def test_dense_and_sorted_flows_agree_bit_for_bit(
        self, m, depth, alpha, beta, model_for, monkeypatch
    ):
        # The k partition takes the dense bincount and, from m = 2, the label
        # partition the sort; each is run again with the other form.
        model = model_for(m, alpha, beta)
        blocks = list(blocks_at(model.index, depth).values())
        expected = projection_chain(model, blocks)
        dense, ordered = decomposition._dense_flows, decomposition._sorted_flows
        monkeypatch.setattr(decomposition, "_dense_flows", ordered)
        monkeypatch.setattr(decomposition, "_sorted_flows", dense)
        swapped = projection_chain(model, blocks)
        for name in ("indptr", "indices", "data"):
            got, want = getattr(swapped.P, name), getattr(expected.P, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert swapped.pi.tobytes() == expected.pi.tobytes()


class TestProjectedKDistribution:
    def test_m2_uniform(self):
        assert np.allclose(projected_k_distribution(2, ZERO), [0.8, 0.2], atol=1e-15)

    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("alpha,beta", [(-1.0, 0.0), (0.0, 0.0), (1.0, -1.0)])
    def test_matches_oracle_blocks(self, m, alpha, beta, model_for):
        model = model_for(m, alpha, beta)
        masses = np.array([model.pi[idx].sum() for idx in blocks_at(model.index, 1).values()])
        assert np.abs(masses - projected_k_distribution(m, EnergyParams(alpha, beta))).max() < 1e-12

    @pytest.mark.parametrize("m", range(2, 13))
    def test_log_concavity(self, m):
        for alpha, beta in GRID:
            w = projected_k_distribution(m, EnergyParams(alpha, beta))
            logs = np.log(w)
            for i in range(1, len(w) - 1):
                assert 2 * logs[i] + 1e-12 >= logs[i - 1] + logs[i + 1]

    def test_extreme_params_stable(self):
        w = projected_k_distribution(10, EnergyParams(500.0, -500.0))
        assert np.isfinite(w).all()
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [49, 60, 70])
    def test_no_integer_overflow(self, m):
        # binom(m, 2k) * catalan(k) passes 2^63 from m = 46 on; it stays a
        # Python int, so no int64 product overflows.
        w = projected_k_distribution(m, resolve_params("turner04-cg"))
        assert np.isfinite(w).all()
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.0, -1.0), (math.log(2.0), 0.0)])
    def test_matches_exact_fractions(self, alpha, beta):
        # The weights in exact arithmetic from the float values of exp(-alpha)
        # and exp(-beta).  The log-space sum turns an absolute error of about
        # eps |log w| into a relative one, so the bound grows with m.
        a, b = Fraction(math.exp(-alpha)), Fraction(math.exp(-beta))
        for m in range(41):
            exact = [
                comb(m, 2 * k) * catalan(k) * a**k * (a + b) ** (m - 2 * k)
                for k in range(m // 2 + 1)
            ]
            total = sum(exact)
            w = projected_k_distribution(m, EnergyParams(alpha, beta))
            rel = max(abs(Fraction(float(x)) * total / e - 1) for x, e in zip(w, exact))
            assert rel <= 1e-15 * (m + 1)

    def test_finite_and_normalized_at_m999(self):
        w = projected_k_distribution(999, resolve_params("turner04-cg"))
        assert len(w) == 500
        assert np.isfinite(w).all()
        assert abs(w.sum() - 1.0) <= 1e-12


def skeleton_reference(model, k, q):
    """The skeleton check of one (k, q) block as a restriction chain to the
    block and a projection of it onto the block's skeleton families."""
    m = model.index.m
    families = {
        s: idx for (kk, qq, s), idx in model.index.label_blocks.items() if (kk, qq) == (k, q)
    }
    block = np.sort(np.concatenate(list(families.values())))
    energies = model.energies[block]
    sub_blocks = [np.searchsorted(block, idx) for idx in families.values()]
    proj = projection_chain(restriction_chain(model, block), sub_blocks)
    off = to_dense(proj.P)[~np.eye(proj.n, dtype=bool)]
    positive = [float(v) for v in off if v > 0.0]
    expected_rate = 1.0 / (4.0 * m * m)
    expected_size = comb(m, 2 * k)
    return {
        "m": m,
        "k": k,
        "q": q,
        "skeleton_sizes": {s: len(idx) for s, idx in families.items()},
        "expected_size": expected_size,
        "sizes_match": all(len(idx) == expected_size for idx in families.values()),
        "energy_spread": float(energies.max() - energies.min()),
        "pi_uniform_maxdev": float(np.abs(proj.pi - 1.0 / proj.n).max()),
        "offdiag_values": positive,
        "offdiag_expected": expected_rate,
        "offdiag_maxdev": max((abs(v - expected_rate) for v in positive), default=0.0),
    }


class TestSkeletonProjection:
    def test_m4_k1_hh(self, model_for):
        rep = check_skeleton_projection(model_for(4, 0.0, 0.0))[1, "HH"]
        assert rep.skeleton_sizes == {"UD": comb(4, 2)}
        assert rep.sizes_match
        assert rep.energy_spread == 0.0
        # One skeleton only: projection is the 1x1 identity, trivially uniform.
        assert rep.pi_uniform_maxdev <= 1e-12
        assert rep.offdiag_values == []

    def test_m6_k2_two_skeletons(self, model_for):
        rep = check_skeleton_projection(model_for(6, 0.0, 0.0))[2, "HH"]
        assert set(rep.skeleton_sizes) == {"UDUD", "UUDD"}
        assert all(v == comb(6, 4) for v in rep.skeleton_sizes.values())
        assert rep.pi_uniform_maxdev <= 1e-12
        assert rep.offdiag_expected == pytest.approx(1 / 144)
        assert rep.offdiag_maxdev <= 1e-12 * rep.offdiag_expected + 1e-18

    @pytest.mark.parametrize("alpha,beta", [(-1.0, 1.0), (0.0, 0.0)])
    def test_all_blocks_m5(self, alpha, beta, model_for):
        reports = check_skeleton_projection(model_for(5, alpha, beta))
        for rep in reports.values():
            assert rep.sizes_match
            assert rep.energy_spread == 0.0
            assert rep.uniform_ok
            assert rep.matches_expected_rate

    def test_missing_block(self, model_for):
        assert (2, "H") not in check_skeleton_projection(model_for(4, 0.0, 0.0))

    @pytest.mark.parametrize("m", range(1, 8))
    @pytest.mark.parametrize(
        "params",
        [resolve_params("turner04-cg"), ZERO, EnergyParams(1.0, -1.0)],
        ids=["turner04-cg", "0,0", "1,-1"],
    )
    def test_matches_per_block_reference(self, m, params, model_for):
        model = model_for(m, params.alpha, params.beta)
        reports = check_skeleton_projection(model)
        assert list(reports) == list(blocks_at(model.index, 2))
        for (k, q), rep in reports.items():
            want = skeleton_reference(model, k, q)
            for field, value in want.items():
                got = getattr(rep, field)
                if field == "offdiag_values":
                    assert len(got) == len(value)
                    assert np.abs(np.subtract(got, value)).max(initial=0.0) <= 1e-12
                elif isinstance(value, float):
                    assert abs(got - value) <= 1e-12, field
                else:
                    assert got == value, field
                    if field == "skeleton_sizes":
                        assert list(got) == list(value)

    def test_report_makes_one_label_projection(self, monkeypatch):
        # At m = 7: the bound restricts to the four k blocks and projects onto
        # them, and one skeleton check projects once onto the labels.
        calls = {"check_skeleton_projection": 0, "restriction_chain": 0, "projection_chain": 0}
        for name in calls:
            real = getattr(decomposition, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(decomposition, name, counting)
        decomposition_report(7, resolve_params("turner04-cg"), level="kqs")
        assert calls == {
            "check_skeleton_projection": 1,
            "restriction_chain": 4,
            "projection_chain": 2,
        }


class TestDecompositionBound:
    @pytest.mark.parametrize(
        "m,alpha,beta", [(4, 0.0, 0.0), (5, 1.0, -1.0), (3, -1.0, -1.0), (6, 0.0, 1.0)]
    )
    def test_bound_holds(self, m, alpha, beta, model_for):
        report = check_decomposition_bound(model_for(m, alpha, beta))
        assert report.holds
        assert report.gap_full >= report.bound
        assert report.bound > 0.0

    def test_singleton_partition_degenerates_to_half_gap(self, model_for):
        # The product bound's factors on the partition into single states:
        # the projection is the chain itself, and every restriction is one
        # state, which the bound counts as gap 1.
        model = model_for(3, 0.0, 0.0)
        blocks = [np.array([i]) for i in range(model.n)]
        gap_full = spectral_gap(model).gap
        gap_projection = spectral_gap(projection_chain(model, blocks)).gap
        restrictions = [restriction_chain(model, block) for block in blocks]
        assert all(res.n == 1 and to_dense(res.P)[0, 0] == 1.0 for res in restrictions)
        assert gap_projection == pytest.approx(gap_full, abs=1e-12)
        bound = 0.5 * gap_projection  # times the restrictions' gap, 1
        assert bound == pytest.approx(gap_full / 2, abs=1e-12)
        assert gap_full >= bound - 1e-13

    def test_bound_peak_memory_stays_sparse(self, model_for):
        # A dense copy of the 2 240-state k = 2 block alone would take 40 MB.
        params = resolve_params("turner04-cg")
        model = model_for(8, params.alpha, params.beta)
        tracemalloc.start()
        try:
            check_decomposition_bound(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_one_state_gap_convention(self, model_for):
        # At m = 2, {UD} is the one-state k = 1 block.
        model = model_for(2, 0.0, 0.0)
        assert [len(b) for b in blocks_at(model.index, 1).values()] == [4, 1]
        assert check_decomposition_bound(model).restriction_gaps[1] == 1.0
        # At m = 1 (H and I) the k-projection has one block.
        report = check_decomposition_bound(model_for(1, 0.0, 0.0))
        assert report.gap_projection == 1.0

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize(
        "params",
        [resolve_params("turner04-cg"), ZERO, EnergyParams(1.0, -1.0)],
        ids=["turner04-cg", "0,0", "1,-1"],
    )
    def test_two_block_projection_gap_is_closed_form(self, m, params, model_for):
        # At m = 2 and 3 the k-projection has two blocks, and a two-state
        # reversible chain has gap P(0, 1) + P(1, 0) = f (1/pi(0) + 1/pi(1)),
        # with f the flow between the blocks.
        model = model_for(m, params.alpha, params.beta)
        low, high = blocks_at(model.index, 1).values()
        flow = (model.pi[:, None] * to_dense(model.P))[np.ix_(low, high)].sum()
        closed = flow / model.pi[low].sum() + flow / model.pi[high].sum()
        assert abs(check_decomposition_bound(model).gap_projection - closed) <= 1e-14

    @pytest.mark.parametrize("m", [7, 8])
    @pytest.mark.parametrize(
        "params",
        [resolve_params("turner04-cg"), ZERO, EnergyParams(1.0, -1.0)],
        ids=["turner04-cg", "0,0", "1,-1"],
    )
    def test_auto_rule_matches_dense_solves(self, m, params, model_for):
        # Every gap is a Lanczos solve; dense is the reference.
        model = model_for(m, params.alpha, params.beta)
        report = check_decomposition_bound(model)
        dense = 1.0 - dense_lambda1(model.P, model.pi)
        assert abs(report.gap_full - dense) <= 1e-12
        for k, block in blocks_at(model.index, 1).items():
            restricted = restriction_chain(model, block)
            if restricted.n > 1:
                dense = 1.0 - dense_lambda1(restricted.P, restricted.pi)
                assert abs(report.restriction_gaps[k] - dense) <= 1e-12


class TestReport:
    def test_k_level(self):
        report = decomposition_report(4, EnergyParams(1.0, -1.0), level="k")
        kp = report["k_partition"]
        assert kp["bound_holds"]
        assert kp["log_concave"]
        assert kp["pi_bar_max_abs_diff"] < 1e-12
        assert "kq_partition" not in report

    def test_kqs_level(self):
        report = decomposition_report(4, ZERO, level="kqs")
        assert report["kq_partition"]["block_size_formula_ok"]
        assert report["kq_partition"]["max_energy_spread_within_block"] == 0.0
        kqs = report["kqs_partition"]
        assert kqs["family_size_binomial_ok"]
        assert kqs["skeleton_projection_uniform_ok"]
        assert kqs["offdiag_rate_matches"]
        assert kqs["offdiag_rate_expected"] == pytest.approx(1 / 64)

    def test_bad_level(self):
        with pytest.raises(ConfigInvalidError, match="level must be one of k, kq, kqs"):
            decomposition_report(3, ZERO, level="qk")

    def test_json_serializable(self):
        json.dumps(decomposition_report(3, EnergyParams(-1.0, 0.5), level="kqs"))

    def test_golden_m6_kqs(self, tmp_path):
        # Recorded with `decompose report --m 6 --level kqs --alpha 1 --beta -1`
        # before the labels were cached and the gaps moved to the auto rule.
        golden = json.loads(GOLDEN_M6_KQS.read_text())
        out = tmp_path / "report.json"
        argv = ["decompose", "report", "--m", "6", "--level", "kqs", "--alpha", "1", "--beta", "-1"]
        assert main(argv + ["--out", str(out)]) == 0
        got = json.loads(out.read_text())

        def walk(got, want, where):
            if isinstance(want, dict):
                assert list(got) == list(want), where
                for key in want:
                    walk(got[key], want[key], f"{where}.{key}")
            elif isinstance(want, list):
                assert len(got) == len(want), where
                for i, (g, w) in enumerate(zip(got, want)):
                    walk(g, w, f"{where}[{i}]")
            elif isinstance(want, float):
                assert abs(got - want) <= 1e-12, where
            else:
                assert got == want and type(got) is type(want), where

        walk(got, golden, "report")
