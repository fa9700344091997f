"""Sampler kernel versus its analytic transition law.

The law (`conftest.transition_distribution`) is exercised against
hand-derived probabilities and structural invariants; the stochastic
stepper is then cross-checked against the law with a long single-step
frequency count, and pinned to the draw-cell table (`draw_cells`) the law
is read from by injecting every cell's draws into it.
"""

from fractions import Fraction

import numpy as np
import pytest

from treegibbs import (
    ChainConfig,
    ChainState,
    EnergyParams,
    TwoMotzkinPath,
    batch_means_stderr,
    enumerate_paths,
    iter_paths,
    move_constants,
    path_energy,
    run,
)
from treegibbs import decode, degree_profile, resolve_params
from treegibbs import chain as chain_module
from treegibbs.chain import draw_cells, word_fields
from treegibbs.paths import D, H, I, U
from treegibbs.trees import DegreeProfile
from treegibbs.errors import ConfigInvalidError

from conftest import sample_rows, transition_distribution

ZERO = EnergyParams(0.0, 0.0)
GRID = [EnergyParams(a, b) for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0)]


class TestMoveConstants:
    def test_zero_params(self):
        c = move_constants(ZERO)
        assert c == (0.25, 0.25, 0.25, 0.25)

    def test_heat_bath_ratios(self):
        c = move_constants(EnergyParams(alpha=0.7, beta=-0.3))
        # Pair moves weight HH against UD by exp(-alpha).
        assert c.ud_to_hh / c.hh_to_ud == pytest.approx(np.exp(-0.7))
        # Site moves weight I against H by exp(-(beta - alpha)).
        assert c.h_to_i / c.i_to_h == pytest.approx(np.exp(0.7 - (-0.3)))

    def test_extreme_params_stay_finite(self):
        for a in (-1e4, 1e4):
            c = move_constants(EnergyParams(a, 0.0))
            assert all(0.0 <= v <= 0.5 for v in c)


class TestTransitionProbability:
    def test_ud_to_hh_at_zero(self):
        # One pair position, heat-bath 1/2, acceptance 1/2, class mass 1/4.
        p = transition_distribution(TwoMotzkinPath("UD"), ZERO)[b"HH"]
        assert p == pytest.approx(1 / 16, rel=1e-15)
        assert transition_distribution(TwoMotzkinPath("HH"), ZERO)[b"UD"] == pytest.approx(1 / 16)

    def test_adjacent_swap(self):
        # m=3: two pair positions, swap D with H, acceptance 1/2.
        p = transition_distribution(TwoMotzkinPath("UDH"), ZERO)[b"UHD"]
        assert p == pytest.approx(Fraction(1, 4) * Fraction(1, 2) * Fraction(1, 2))

    def test_level_pair_is_not_swappable(self):
        # HI holds two level steps; no move class exchanges them directly.
        assert transition_distribution(TwoMotzkinPath("HI"), ZERO).get(b"IH", 0.0) == 0.0

    def test_transposition_rate(self):
        # UUDD -> UDUD exchanges positions 1 and 2 (or 2 and 1): 2/(4 m^2) * 1/2.
        p = transition_distribution(TwoMotzkinPath("UUDD"), ZERO)[b"UDUD"]
        assert p == pytest.approx(2 / (4 * 16) / 2)

    def test_invalid_transposition_rejected(self):
        # Swapping the U and D of the single peak would dip below the axis,
        # so the rejected proposal mass stays on the diagonal and the only
        # neighbor is the pair rewrite.
        dist = transition_distribution(TwoMotzkinPath("UD"), ZERO)
        assert [y for y, p in dist.items() if y != b"UD" and p > 0.0] == [b"HH"]
        assert dist[b"UD"] == pytest.approx(1.0 - 1 / 16)

    def test_three_position_changes_unreachable(self):
        assert transition_distribution(TwoMotzkinPath("UDH"), ZERO).get(b"HHI", 0.0) == 0.0

    def test_m1_only_site_moves(self):
        dist = transition_distribution(TwoMotzkinPath("H"), EnergyParams(0.3, -0.6))
        c = move_constants(EnergyParams(0.3, -0.6))
        assert set(dist) == {b"H", b"I"}
        assert dist[b"I"] == pytest.approx(0.25 * c.h_to_i)


class TestKernelInvariants:
    @pytest.mark.parametrize("m", range(1, 6))
    def test_rows_sum_to_one_and_lazy(self, m):
        for params in GRID:
            for x in iter_paths(m):
                dist = transition_distribution(x, params)
                assert sum(dist.values()) == pytest.approx(1.0, abs=1e-13)
                assert dist[x.symbols] >= 0.5 - 1e-13

    @pytest.mark.parametrize("m", range(1, 6))
    def test_moves_preserve_validity(self, m):
        for x in iter_paths(m):
            for y, p in transition_distribution(x, ZERO).items():
                assert p >= 0.0
                TwoMotzkinPath(y)

    @pytest.mark.parametrize("m", range(2, 6))
    def test_move_class_energy_deltas(self, m):
        params = EnergyParams(alpha=0.8, beta=-0.4)
        for x in iter_paths(m):
            ex = path_energy(x, params)
            for word, p in transition_distribution(x, params).items():
                if word == x.symbols or p == 0.0:
                    continue
                y = TwoMotzkinPath(word)
                delta = path_energy(y, params) - ex
                diff = [i for i in range(m) if x.symbols[i] != y.symbols[i]]
                if len(diff) == 1:
                    # site recolor H <-> I
                    expected = params.alpha - params.beta
                    assert abs(delta) == pytest.approx(abs(expected))
                else:
                    i, j = diff
                    pair = bytes(sorted((x.symbols[i], x.symbols[j])))
                    if pair in (b"DU",):
                        if set(y.symbols[k] for k in diff) == {ord("H")}:
                            assert delta == pytest.approx(params.alpha)  # UD -> HH
                        else:
                            assert delta == pytest.approx(0.0)  # transposition
                    elif pair == b"HH":
                        assert delta == pytest.approx(-params.alpha)  # HH -> UD
                    else:
                        assert delta == pytest.approx(0.0)  # adjacent swap

    @pytest.mark.parametrize("m", range(2, 6))
    def test_pair_rewrites_and_swaps_always_valid(self, m):
        for x in iter_paths(m):
            w = x.symbols
            for p in range(m - 1):
                pair = w[p : p + 2]
                if pair == b"UD":
                    TwoMotzkinPath(w[:p] + b"HH" + w[p + 2 :])
                if pair == b"HH":
                    TwoMotzkinPath(w[:p] + b"UD" + w[p + 2 :])
                a, b = pair
                if (a in b"UD") != (b in b"UD"):
                    TwoMotzkinPath(w[:p] + bytes((b, a)) + w[p + 2 :])

    def test_neighbors_examples(self):
        assert transition_distribution(TwoMotzkinPath("HH"), ZERO)[b"UD"] == pytest.approx(1 / 16)
        got = transition_distribution(TwoMotzkinPath("II"), ZERO)
        assert {y for y, p in got.items() if y != b"II" and p > 0.0} == {b"HI", b"IH"}


class TestChainConfig:
    def test_rejects_m0(self):
        with pytest.raises(ConfigInvalidError):
            ChainConfig(m=0, params=ZERO, seed=1)

    def test_rejects_wrong_initial_length(self):
        with pytest.raises(ConfigInvalidError):
            ChainConfig(m=3, params=ZERO, seed=1, initial_state=TwoMotzkinPath("UD"))

    def test_default_initial_is_all_h(self):
        cfg = ChainConfig(m=5, params=ZERO, seed=1)
        assert ChainState(cfg).path.word == "HHHHH"

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed_outside_64_bits(self, seed):
        # Masked to 64 bits, 2**64 would replay seed 0's stream and -1 that
        # of 2**64 - 1.
        with pytest.raises(ConfigInvalidError, match="seed must be in"):
            ChainConfig(m=3, params=ZERO, seed=seed)


class TestSampler:
    def test_step_mutates_and_counts(self):
        state = ChainState(ChainConfig(m=4, params=ZERO, seed=3))
        state.step()
        assert state.step_count == 1
        TwoMotzkinPath(state.path.word)

    def test_every_visited_state_valid(self):
        state = ChainState(ChainConfig(m=6, params=EnergyParams(-1.0, 1.0), seed=11))
        for _ in range(20_000):
            state.step()
            # cheap invariant: balanced counts
            assert state.word.count(ord("U")) == state.word.count(ord("D"))
        TwoMotzkinPath(state.path.word)

    def test_single_step_frequencies_match_law(self):
        m = 3
        state = ChainState(ChainConfig(m=m, params=ZERO, seed=7))
        counts: dict[bytes, dict[bytes, int]] = {}
        prev = bytes(state.word)
        n_steps = 400_000
        for _ in range(n_steps):
            state.step()
            cur = bytes(state.word)
            row = counts.setdefault(prev, {})
            row[cur] = row.get(cur, 0) + 1
            prev = cur
        assert len(counts) == 14  # all states of length 3 visited as sources
        worst = 0.0
        for src, row in counts.items():
            law = transition_distribution(TwoMotzkinPath(src), ZERO)
            total = sum(row.values())
            for tgt, cnt in row.items():
                worst = max(worst, abs(cnt / total - law.get(tgt, 0.0)))
        assert worst < 0.006, f"worst single-step frequency deviation {worst:.4f}"

    def test_weighted_single_step_frequencies(self):
        m = 2
        params = EnergyParams(alpha=1.0, beta=-0.5)
        state = ChainState(ChainConfig(m=m, params=params, seed=13))
        counts: dict[bytes, dict[bytes, int]] = {}
        prev = bytes(state.word)
        for _ in range(300_000):
            state.step()
            cur = bytes(state.word)
            row = counts.setdefault(prev, {})
            row[cur] = row.get(cur, 0) + 1
            prev = cur
        worst = 0.0
        for src, row in counts.items():
            law = transition_distribution(TwoMotzkinPath(src), params)
            total = sum(row.values())
            for tgt, cnt in row.items():
                worst = max(worst, abs(cnt / total - law.get(tgt, 0.0)))
        assert worst < 0.006, f"worst deviation {worst:.4f}"


class TestRun:
    def test_deterministic_given_seed(self):
        cfg = ChainConfig(m=5, params=EnergyParams(0.5, -0.5), seed=99)
        a = run(cfg, total_steps=2000, burn_in=100, thin=7)
        b = run(cfg, total_steps=2000, burn_in=100, thin=7)
        a, b = sample_rows(a.samples), sample_rows(b.samples)
        assert [s.path.word for _, s in a] == [s.path.word for _, s in b]
        assert [t for t, _ in a] == [t for t, _ in b]

    def test_chain_id_gives_independent_stream(self):
        base = ChainConfig(m=5, params=ZERO, seed=99)
        other = ChainConfig(m=5, params=ZERO, seed=99, chain_id=1)
        a = run(base, total_steps=500)
        b = run(other, total_steps=500)
        a, b = sample_rows(a.samples), sample_rows(b.samples)
        assert [s.path.word for _, s in a] != [s.path.word for _, s in b]

    def test_emission_schedule(self):
        cfg = ChainConfig(m=2, params=ZERO, seed=5)
        res = run(cfg, total_steps=10, burn_in=4, thin=3)
        assert [t for t, _ in sample_rows(res.samples)] == [4, 7, 10]
        res = run(cfg, total_steps=10)
        assert [t for t, _ in sample_rows(res.samples)] == list(range(11))

    def test_zero_steps_emits_initial(self):
        cfg = ChainConfig(m=4, params=ZERO, seed=5)
        res = run(cfg, total_steps=0)
        expanded = sample_rows(res.samples)
        assert len(expanded) == 1
        assert expanded[0][1].path.word == "HHHH"

    def test_collector_and_degrees(self):
        seen = []
        cfg = ChainConfig(m=3, params=ZERO, seed=5)
        res = run(cfg, total_steps=20, collector=seen.append, include_degrees=True)
        assert res.samples == []
        assert res.emitted == len(sample_rows(seen)) == 21
        for _, s in sample_rows(seen):
            assert s.degrees.d0 == s.path.symbols.count(U) + s.path.symbols.count(H) + 1
            assert s.degrees.n == 4

    def test_one_sample_per_held_word(self):
        cfg = ChainConfig(m=49, params=resolve_params("turner04-cg"), seed=3)
        thin = 1
        seen = []
        res = run(cfg, total_steps=20_000, burn_in=1000, thin=thin, collector=seen.append)
        assert len(seen) < res.emitted
        assert sum(len(s.steps) for s in seen) == res.emitted
        assert all(s.steps.step == thin for s in seen)
        for prev, s in zip(seen, seen[1:]):
            assert s.steps[0] == prev.steps[-1] + thin
            assert (s.path is prev.path) == (s.path.symbols == prev.path.symbols)

    def test_occupancy_counts_every_post_burn_in_state(self):
        cfg = ChainConfig(m=3, params=ZERO, seed=5)
        res = run(cfg, total_steps=1000, burn_in=100, thin=50, track_occupancy=True)
        assert sum(res.occupancy.values()) == 900

    def test_invalid_schedules(self):
        cfg = ChainConfig(m=3, params=ZERO, seed=5)
        with pytest.raises(ConfigInvalidError):
            run(cfg, total_steps=10, burn_in=20)
        with pytest.raises(ConfigInvalidError):
            run(cfg, total_steps=10, thin=0)
        with pytest.raises(ConfigInvalidError):
            run(cfg, total_steps=-1)


def _heights_valid(word) -> bool:
    """Full scan: no prefix of the word goes below the axis."""
    height = 0
    for s in word:
        if s == U:
            height += 1
        elif s == D:
            height -= 1
            if height < 0:
                return False
    return True


class _Reference:
    """The chain as first written, with its own stream of raw draws.

    It draws each block from its own generator in the chain's order
    (classes, then u1, u2, u3), so it pins that order too and reads none
    of the chain's buffers.  ``_rng_position`` reads it like a chain.
    """

    def __init__(self, cfg: ChainConfig):
        self.cfg = cfg
        start = cfg.initial_state
        self.word = bytearray(b"H" * cfg.m if start is None else start.symbols)
        self.step_count = 0
        self._rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([cfg.seed, cfg.chain_id]))
        )
        self._cursor = 4096
        self._block = None


def _reference_step(state: _Reference) -> None:
    """One transition as first written: per-step draws, full height rescan."""
    if state._cursor >= 4096:
        rng = state._rng
        state._block = [
            rng.integers(0, 4, size=4096).tolist(),
            *(rng.random(4096).tolist() for _ in range(3)),
        ]
        state._cursor = 0
    c = state._cursor
    state._cursor = c + 1
    state.step_count += 1
    consts = move_constants(state.cfg.params)
    _reference_move(state.word, state.cfg.m, consts, *(draws[c] for draws in state._block))


def _reference_move(w: bytearray, m: int, consts, move: int, u1: float, u2: float, u3: float) -> None:
    """Apply the draws (move, u1, u2, u3) to ``w`` by the rule as first written."""
    if move == 0:
        if m >= 2:
            p = int(u1 * (m - 1))
            a, b = w[p], w[p + 1]
            if a == U and b == D and u2 < consts.ud_to_hh:
                w[p], w[p + 1] = H, H
            elif a == H and b == H and u2 < consts.hh_to_ud:
                w[p], w[p + 1] = U, D
    elif move == 1:
        i = int(u1 * m)
        if w[i] == H and u2 < consts.h_to_i:
            w[i] = I
        elif w[i] == I and u2 < consts.i_to_h:
            w[i] = H
    elif move == 2:
        i, j = int(u1 * m), int(u2 * m)
        a, b = w[i], w[j]
        if a in (U, D) and b in (U, D) and a != b and u3 < 0.5:
            w[i], w[j] = b, a
            if not _heights_valid(w):
                w[i], w[j] = a, b
    elif m >= 2:
        p = int(u1 * (m - 1))
        a, b = w[p], w[p + 1]
        if (a in (U, D)) != (b in (U, D)) and u2 < 0.5:
            w[p], w[p + 1] = b, a


def _load(state: ChainState, move: int, u1: float, u2: float, u3: float) -> None:
    """Make (move, u1, u2, u3) the raw draws of the chain's next step."""
    state._load(np.array([move]), np.array([u1]), np.array([u2]), np.array([u3]))


def _rng_position(state: ChainState):
    return state.word, state.step_count, state._cursor, state._rng.bit_generator.state


class TestMoveLoop:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_transposition_rule_matches_full_height_check(self, m):
        state = ChainState(ChainConfig(m=m, params=ZERO, seed=0))
        outcomes = {True: 0, False: 0}
        for x in iter_paths(m):
            sym = x.symbols
            vertical = [k for k, s in enumerate(sym) if s in (U, D)]
            for i in vertical:
                for j in vertical:
                    swapped = bytearray(sym)
                    swapped[i], swapped[j] = sym[j], sym[i]
                    # Inject the draws (move 2, positions i and j, accept).
                    state.word[:] = sym
                    _load(state, 2, (i + 0.5) / m, (j + 0.5) / m, 0.25)
                    state.step()
                    valid = _heights_valid(swapped)
                    assert state.word == (swapped if valid else sym), (sym, i, j)
                    if sym[i] != sym[j]:
                        outcomes[valid] += 1
        if m >= 4:
            assert outcomes[True] and outcomes[False]

    @pytest.mark.parametrize("params", [ZERO, resolve_params("turner04-cg"), EnergyParams(-1.0, 1.0)])
    @pytest.mark.parametrize("m", [1, 2, 6, 49])
    def test_advance_matches_single_steps(self, m, params):
        burned = ChainState(ChainConfig(m=m, params=params, seed=3))
        burned.advance(20_000)
        cfg = ChainConfig(m=m, params=params, seed=4, initial_state=burned.path)
        for n in (1, 7, 4095, 4097, 10_000):
            block, single, reference = ChainState(cfg), ChainState(cfg), _Reference(cfg)
            block.advance(n)
            for _ in range(n):
                single.step()
                _reference_step(reference)
            assert _rng_position(single) == _rng_position(block)
            assert _rng_position(reference) == _rng_position(block)

    def test_split_advance_matches_one_call(self):
        cfg = ChainConfig(m=49, params=ZERO, seed=8)
        whole, split = ChainState(cfg), ChainState(cfg)
        whole.advance(12_345)
        for n in (0, 4096, 1, 4095, 4152, 1):
            split.advance(n)
        assert _rng_position(split) == _rng_position(whole)


def _counter(visits: dict[bytes, int]):
    """A hold hook for ``ChainState.advance`` that counts each held segment into ``visits``."""

    def hold(word, since, now):
        assert since < now
        key = bytes(word)
        visits[key] = visits.get(key, 0) + now - since
        return now + 1

    return hold


def _reference_run(cfg: ChainConfig, total_steps: int, burn_in: int, thin: int):
    """Rows and visit counts one step at a time: the word read after every step.

    Returns the (step, word, energy, degrees) rows, the visits strictly after
    burn-in and the final state.
    """
    state = ChainState(cfg)
    state.advance(burn_in)
    fields = {}

    def row(t):
        key = bytes(state.word)
        if key not in fields:
            x = TwoMotzkinPath(key.decode())
            fields[key] = (path_energy(x, cfg.params), degree_profile(decode(x)))
        return (t, key, *fields[key])

    rows = [row(burn_in)]
    visits: dict[bytes, int] = {}
    for t in range(burn_in + 1, total_steps + 1):
        state.advance(1)
        key = bytes(state.word)
        visits[key] = visits.get(key, 0) + 1
        if (t - burn_in) % thin == 0:
            rows.append(row(t))
    return rows, visits, state


class TestOccupancy:
    @pytest.mark.parametrize("burn_in", [0, 17, 9000])
    @pytest.mark.parametrize("thin", [1, 2, 3, 100, 1000])
    @pytest.mark.parametrize("m", [1, 2, 6, 8, 49])
    def test_run_counts_match_single_steps(self, m, thin, burn_in, monkeypatch):
        # 9 000 steps cross two draw blocks.
        cfg = ChainConfig(m=m, params=resolve_params("turner04-cg"), seed=m * thin + burn_in)
        want, visits, reference = _reference_run(cfg, 9000, burn_in, thin)
        states = []

        class Recorded(ChainState):
            def __init__(self, cfg):
                super().__init__(cfg)
                states.append(self)

        monkeypatch.setattr(chain_module, "ChainState", Recorded)
        for track in (True, False):
            res = run(cfg, total_steps=9000, burn_in=burn_in, thin=thin,
                      include_degrees=True, track_occupancy=track)
            assert res.occupancy == (visits if track else None)
            expanded = sample_rows(res.samples)
            got = [(t, s.path.symbols, s.energy, s.degrees) for t, s in expanded]
            assert got == want
            assert res.emitted == len(want)
            for (_, prev), (_, s) in zip(expanded, expanded[1:]):
                assert (s.path is prev.path) == (s.path.symbols == prev.path.symbols)
            assert res.final_path == reference.path
            assert _rng_position(states.pop()) == _rng_position(reference)

    @pytest.mark.parametrize("track", [True, False])
    @pytest.mark.parametrize("thin", [1, 128, 1000])
    def test_run_takes_one_advance_after_burn_in(self, thin, track, monkeypatch):
        calls = []

        class Recorded(ChainState):
            def advance(self, steps, hold=None):
                calls.append((steps, hold is not None))
                super().advance(steps, hold)

        monkeypatch.setattr(chain_module, "ChainState", Recorded)
        cfg = ChainConfig(m=6, params=resolve_params("turner04-cg"), seed=thin)
        run(cfg, total_steps=9000, burn_in=17, thin=thin, track_occupancy=track)
        assert calls == [(17, False), (9000 - 17, True)]

    @pytest.mark.parametrize("batch", ["default", "one sample"])
    def test_fields_read_in_batches_at_m999(self, batch, monkeypatch):
        # At m = 999 and thin 1 the default batch is 65 samples, so 9 000
        # steps cross several flushes.  With one sample per batch every
        # flush falls between two samples, and so also inside each hold
        # split at a block's end: the word queued over the flush must keep
        # its path object.
        m = 999
        if batch == "one sample":
            monkeypatch.setattr(chain_module, "_FLUSH_SYMBOLS", m)
        flushes = []

        def counted(words, *args, **kwargs):
            flushes.append(len(words))
            return word_fields(words, *args, **kwargs)

        monkeypatch.setattr(chain_module, "word_fields", counted)
        seen = []
        cfg = ChainConfig(m=m, params=resolve_params("turner04-cg"), seed=21)
        res = run(cfg, total_steps=9000, burn_in=300, thin=1, include_degrees=True,
                  collector=lambda s: seen.append((len(flushes), s)))
        want, _, reference = _reference_run(cfg, 9000, 300, 1)
        samples = [s for _, s in seen]
        got = [(t, s.path.symbols, s.energy, s.degrees) for t, s in sample_rows(samples)]
        assert got == want
        assert res.emitted == len(want) and res.samples == []
        assert res.final_path == reference.path
        assert len(flushes) >= 3
        crossed = 0
        for (f0, prev), (f1, s) in zip(seen, seen[1:]):
            assert s.steps[0] == prev.steps[-1] + 1
            assert (s.path is prev.path) == (s.path.symbols == prev.path.symbols)
            crossed += f0 != f1 and s.path is prev.path
        if batch == "one sample":
            assert crossed >= 2

    @pytest.mark.parametrize("m", [1, 2, 6, 8])
    def test_split_counting_matches_one_call(self, m):
        cfg = ChainConfig(m=m, params=EnergyParams(1.0, -1.0), seed=m)
        whole, split, plain = ChainState(cfg), ChainState(cfg), ChainState(cfg)
        whole_visits: dict[bytes, int] = {}
        split_visits: dict[bytes, int] = {}
        whole.advance(12_345, _counter(whole_visits))
        for n in (0, 4096, 1, 4095, 4152, 1):
            split.advance(n, _counter(split_visits))
        plain.advance(12_345)
        assert split_visits == whole_visits
        assert sum(whole_visits.values()) == 12_345
        assert _rng_position(split) == _rng_position(whole)
        assert _rng_position(plain) == _rng_position(whole)

    @pytest.mark.parametrize("calls", [(12_345,), (0, 4096, 1, 4095, 4152, 1)],
                             ids=["one-call", "split"])
    @pytest.mark.parametrize("ask", ["every-97th", "block-starts"])
    @pytest.mark.parametrize("m", [6, 49])
    def test_sparse_hook_sees_each_time_it_asks_for(self, m, ask, calls):
        # A hook that asks for a sparse set of times: every 97th after each
        # report, or the first step of the next block of draws.  Every time
        # it asks for within the call lies in a reported segment, and each
        # segment is its word's hold since the word last changed, unless it
        # starts where the call began or where the previous report ended a
        # block.
        block = chain_module._RNG_BLOCK
        after = {"every-97th": lambda now: now + 97,
                 "block-starts": lambda now: (now // block + 1) * block + 1}[ask]
        cfg = ChainConfig(m=m, params=resolve_params("turner04-cg"), seed=m)
        rows, _, reference = _reference_run(cfg, sum(calls), 0, 1)
        words = [key for _, key, *_ in rows]  # the word at each time
        state, plain = ChainState(cfg), ChainState(cfg)
        start = 0
        for n in calls:
            reports = []

            def hold(word, since, now):
                reports.append((bytes(word), since, now))
                return after(now)

            state.advance(n, hold)
            plain.advance(n)
            end = start + n
            if n:
                assert reports[0][1] == start
            for (_, _, before), (word, since, now) in zip([(b"", start, start)] + reports, reports):
                assert before <= since < now <= end
                assert all(words[t] == word for t in range(since + 1, now + 1))
                if words[since] == word and since != start:
                    assert since == before and since % block == 0
            for (_, _, now), (_, _, later) in zip(reports, reports[1:]):
                assert later >= after(now)
            for _, _, now in reports:
                if after(now) <= end:
                    assert any(since < after(now) <= later for _, since, later in reports)
            start = end
        assert _rng_position(state) == _rng_position(plain) == _rng_position(reference)


def _inject(state: ChainState, word: bytes, move: int, u1: float, u2: float, u3: float) -> bytes:
    """The word one step leaves when its draws are (move, u1, u2, u3)."""
    state.word[:] = word
    _load(state, move, u1, u2, u3)
    state.advance(1)
    return bytes(state.word)


# (-1, 1) is the one set with beta > alpha, where I -> H is the larger
# site acceptance; (1, -1) has H -> I larger, as Turner-04-CG does.
CELL_PARAMS = [resolve_params("turner04-cg"), ZERO, EnergyParams(1.0, -1.0), EnergyParams(-1.0, 1.0)]
CELL_IDS = ["turner04-cg", "zero", "1,-1", "-1,1"]


class TestDrawCells:
    @pytest.mark.parametrize("params", CELL_PARAMS, ids=CELL_IDS)
    @pytest.mark.parametrize("m", range(1, 7))
    def test_advance_lands_on_each_cells_target(self, m, params):
        # Every state x every draw cell: u1 at the cell's midpoint, the
        # acceptance draw just below its threshold gives exactly the
        # cell's target, at the threshold the word stays; rows the cell
        # does not list stay even for a zero acceptance draw.  A
        # transposition cell is checked for both of its draws, (i, j) and
        # (j, i).
        paths = list(iter_paths(m))
        words = enumerate_paths(m)
        state = ChainState(ChainConfig(m=m, params=params, seed=0))
        pairs = m - 1
        cells = set()
        for cell, rows, targets, accept in draw_cells(words, params):
            cells.add(cell[:3])
            u1 = (cell.i + 0.5) / (m if cell.move in (1, 2) else pairs)
            u2 = (cell.j + 0.5) / m

            def steps(word, u):
                # The words each of the cell's draws leaves.
                if cell.move == 2:
                    return {_inject(state, word, 2, u1, u2, u), _inject(state, word, 2, u2, u1, u)}
                return {_inject(state, word, cell.move, u1, u, 0.9)}

            moves = {r: (t.tobytes(), q) for r, t, q in zip(rows.tolist(), targets, accept)}
            for r, x in enumerate(paths):
                if r in moves:
                    target, q = moves[r]
                    assert steps(x.symbols, np.nextafter(q, 0.0)) == {target}, (x, cell)
                    assert steps(x.symbols, q) == {x.symbols}, (x, cell)
                else:
                    assert steps(x.symbols, 0.0) == {x.symbols}, (x, cell)
        assert len(cells) == 2 * pairs + m + m * (m - 1) // 2
        # The draws the table leaves out never change a word: transpositions
        # with i == j, and the pair moves at m = 1.
        for x in paths:
            for i in range(m):
                u = (i + 0.5) / m
                assert _inject(state, x.symbols, 2, u, u, 0.0) == x.symbols
            if not pairs:
                for move in (0, 3):
                    assert _inject(state, x.symbols, move, 0.5, 0.0, 0.0) == x.symbols


class TestScreen:
    @pytest.mark.parametrize("params", CELL_PARAMS, ids=CELL_IDS)
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_edges_match_reference_rule(self, m, params):
        # Every state x every class, with the acceptance draw at and one ulp
        # below each threshold (u3 for a transposition, u2 otherwise),
        # transpositions at every (i, j) including i == j, and u1 at each
        # position's midpoint and just below 1: the screened chain leaves
        # the word the unscreened rule leaves.
        consts = move_constants(params)

        def below(u):
            return float(np.nextafter(u, 0.0))

        thresholds = {
            0: (consts.ud_to_hh, consts.hh_to_ud),
            1: (consts.h_to_i, consts.i_to_h),
            2: (0.5,),
            3: (0.5,),
        }
        state = ChainState(ChainConfig(m=m, params=params, seed=0))
        changed = set()
        for x in iter_paths(m):
            for move, qs in thresholds.items():
                n = max(m - 1, 1) if move in (0, 3) else m
                for u1 in [(k + 0.5) / n for k in range(n)] + [below(1.0)]:
                    for u in (u for q in qs for u in (q, below(q))):
                        if move == 2:
                            draws = [((k + 0.5) / m, u) for k in range(m)]
                        else:
                            draws = [(u, 0.9)]
                        for u2, u3 in draws:
                            expected = bytearray(x.symbols)
                            _reference_move(expected, m, consts, move, u1, u2, u3)
                            got = _inject(state, x.symbols, move, u1, u2, u3)
                            assert got == expected, (x, move, u1, u2, u3)
                            if got != x.symbols:
                                changed.add((move, u))
        # Nothing moves at the larger threshold; one ulp below it, some word
        # moves once m is large enough for the class to move any word.
        for move, qs in thresholds.items():
            assert (move, max(qs)) not in changed
            assert ((move, below(max(qs))) in changed) == (m >= (2, 1, 4, 3)[move])


def _random_word(rng, m: int) -> bytes:
    """A valid word of length m: each step drawn uniformly from those that
    keep the height nonnegative and still let the path return to 0."""
    word = bytearray()
    height = 0
    for k in range(m):
        left = m - k - 1  # steps after this one
        options = [s for s, dh in ((U, 1), (H, 0), (I, 0), (D, -1)) if 0 <= height + dh <= left]
        s = options[rng.integers(len(options))]
        height += 1 if s == U else -1 if s == D else 0
        word.append(s)
    return bytes(word)


class TestWordFields:
    def _check(self, words: list[bytes], params: EnergyParams) -> None:
        m = len(words[0])
        matrix = np.frombuffer(b"".join(words), np.uint8).reshape(len(words), m)
        fields = word_fields(matrix, params)
        rows = zip(fields.energy.tolist(), fields.d0.tolist(), fields.d1.tolist(), fields.r.tolist())
        for word, (energy, d0, d1, r) in zip(words, rows):
            x = TwoMotzkinPath(word.decode())
            assert DegreeProfile(d0, d1, r, m + 1) == degree_profile(decode(x)), x.word
            assert repr(energy) == repr(path_energy(x, params)), x.word
        bare = word_fields(matrix, params, root_degree=False)
        assert bare.r is None
        for got, want in zip(bare[:3], fields[:3]):
            assert np.array_equal(got, want)

    def test_exhaustive_against_tree_and_path_energy(self):
        seen = 0
        for m in range(1, 10):
            words = [x.symbols for x in iter_paths(m)]
            for params in CELL_PARAMS:
                self._check(words, params)
            seen += len(words)
        assert seen == 23_712

    def test_long_random_words_against_tree(self):
        rng = np.random.default_rng(12)
        m = 999
        words = [_random_word(rng, m) for _ in range(40)]
        words += [b"H" * m, b"I" * m, b"U" * 499 + b"H" + b"D" * 499, b"UD" * 499 + b"H"]
        for params in CELL_PARAMS:
            self._check(words, params)


class TestBatchMeans:
    def test_iid_case_close_to_classic_se(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(size=20_000)
        se = batch_means_stderr(xs, n_batches=50)
        classic = xs.std(ddof=1) / np.sqrt(len(xs))
        assert se == pytest.approx(classic, rel=0.35)

    def test_short_series(self):
        assert batch_means_stderr([1.0, 2.0, 3.0, 4.0]) > 0.0
