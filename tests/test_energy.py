"""Energy functions, parameter derivation, and the builtin Turner tables."""

import pytest

from treegibbs import (
    BUILTIN_NNTM,
    EnergyParams,
    NNTMParams,
    TwoMotzkinPath,
    decode,
    degree_profile,
    derive_params,
    iter_paths,
    path_energy,
    resolve_params,
)
from treegibbs.energy import parse_params_text
from treegibbs.errors import ConfigInvalidError, UnknownParameterSetError

# Published (alpha, beta, gamma) rows for each builtin set, used as an
# independent check on the derivation formulas; table values are rounded
# to one decimal, hence the 0.05 tolerance.
PUBLISHED_COEFFS = {
    "turner89-cg": (-0.9, -1.8, -1.7),
    "turner89-gc": (-0.9, -1.2, -1.7),
    "turner99-cg": (2.3, 1.3, -0.4),
    "turner99-gc": (2.2, 1.9, -0.4),
    "turner04-cg": (-2.8, -3.0, 0.9),
    "turner04-gc": (-2.8, -2.2, 0.9),
}


class TestDeriveParams:
    @pytest.mark.parametrize("name", sorted(BUILTIN_NNTM))
    def test_reproduces_published_coefficients(self, name):
        got = derive_params(BUILTIN_NNTM[name])
        alpha, beta, gamma = PUBLISHED_COEFFS[name]
        assert got.alpha == pytest.approx(alpha, abs=0.05)
        assert got.beta == pytest.approx(beta, abs=0.05)
        assert got.gamma == pytest.approx(gamma, abs=0.05)

    def test_all_zero(self):
        zero = derive_params(NNTMParams(0, 0, 0, 0, 0, 0, 0))
        assert zero == EnergyParams(0.0, 0.0, 0.0, 0.0)

    def test_formula_components(self):
        p = NNTMParams(a=1.0, b=2.0, c=3.0, h=4.0, f=5.0, i=6.0, g=7.0)
        got = derive_params(p)
        assert got.alpha == 5.0 - 1.0 - 8.0 - 3.0 - 7.0
        assert got.beta == 6.0 - 1.0 - 16.0 - 6.0 - 14.0
        assert got.gamma == -8.0 - 3.0
        assert got.delta == 1.0 + 16.0 + 6.0 + 4.0 + 14.0


class TestFiniteCoefficients:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["alpha", "beta", "gamma", "delta"])
    def test_non_finite_rejected(self, field, value):
        kwargs = {"alpha": 0.0, "beta": 0.0, "gamma": 0.0, "delta": 0.0, field: value}
        with pytest.raises(ConfigInvalidError):
            EnergyParams(**kwargs)

    def test_overflowing_derivation_rejected(self):
        # Finite constants whose derived alpha overflows to -inf.
        with pytest.raises(ConfigInvalidError):
            derive_params(NNTMParams(a=1e308, b=1e308, c=0, h=0, f=0, i=0, g=0))


class TestBuiltinParams:
    @pytest.mark.parametrize(
        "name,row",
        [
            ("turner99-cg", (3.4, 0.0, 0.4, -12.9, 4.5, 2.3, -1.6)),
            ("turner99-gc", (3.4, 0.0, 0.4, -16.9, 4.1, 2.3, -1.9)),
            ("turner04-cg", (9.3, 0.0, -0.9, -12.9, 4.5, 2.3, -1.1)),
        ],
    )
    def test_rows(self, name, row):
        p = BUILTIN_NNTM[name]
        assert (p.a, p.b, p.c, p.h, p.f, p.i, p.g) == row

    def test_unknown_name(self):
        with pytest.raises(UnknownParameterSetError):
            resolve_params("turner23-au")


def tree_energy(x: TwoMotzkinPath, e: EnergyParams) -> float:
    """Branching energy of the tree ``x`` encodes, read off the tree itself:
    the bijection-side witness for ``path_energy``."""
    p = degree_profile(decode(x))
    return e.branching(p.d0, p.d1)


class TestTreeEnergy:
    def test_single_edge(self):
        e = EnergyParams(alpha=2.5, beta=-1.0)
        assert tree_energy(TwoMotzkinPath(""), e) == 2.5  # d0 = 1, d1 = 0

    def test_turner89_cg_chain_with_root(self):
        p = degree_profile(decode(TwoMotzkinPath("I")))
        assert (p.d0, p.d1, p.r) == (1, 1, 1)
        e = derive_params(BUILTIN_NNTM["turner89-cg"])
        # The exterior-loop term gamma * r is not part of any energy the
        # package computes; it is added here.
        assert e.branching(p.d0, p.d1) + e.gamma * p.r == pytest.approx(-4.4, abs=1e-9)

    def test_zero_params(self):
        e = EnergyParams(0.0, 0.0)
        for x in iter_paths(4):
            assert tree_energy(x, e) == 0.0


class TestPathEnergy:
    def test_empty_path(self):
        assert path_energy(TwoMotzkinPath(""), EnergyParams(3.0, 7.0)) == 3.0

    def test_ud(self):
        assert path_energy(TwoMotzkinPath("UD"), EnergyParams(1.5, 9.0)) == 3.0

    def test_matches_tree_energy_exhaustively(self):
        e = EnergyParams(alpha=-2.8, beta=-3.0)
        for m in range(0, 8):
            for x in iter_paths(m):
                assert path_energy(x, e) == tree_energy(x, e)

    @pytest.mark.parametrize(
        "word,alpha,beta,expected",
        [("HH", 1.0, 0.0, -3.0), ("II", 0.0, 1.0, -2.0), ("UD", 0.0, 0.0, 0.0)],
    )
    def test_gibbs_log_weight(self, word, alpha, beta, expected):
        assert -path_energy(TwoMotzkinPath(word), EnergyParams(alpha, beta)) == expected


class TestParamsFiles:
    def test_direct_coefficients(self):
        e = parse_params_text("alpha = -1.5\nbeta = 0.25\n# comment\ngamma=2\n")
        assert e == EnergyParams(-1.5, 0.25, 2.0, 0.0)

    def test_nntm_constants(self):
        text = "\n".join(f"{k}={v}" for k, v in
                         [("a", 4.6), ("b", 0.4), ("c", 0.1), ("h", -10.9),
                          ("f", 3.8), ("i", 3.0), ("g", -1.6)])
        e = parse_params_text(text)
        assert e.alpha == pytest.approx(-0.9, abs=1e-12)
        assert e.beta == pytest.approx(-1.8, abs=1e-12)

    def test_mixed_styles_rejected(self):
        with pytest.raises(ConfigInvalidError):
            parse_params_text("alpha=1\na=2\n")

    def test_missing_constant_rejected(self):
        with pytest.raises(ConfigInvalidError):
            parse_params_text("a=1\nb=2\n")

    def test_garbage_rejected(self):
        with pytest.raises(ConfigInvalidError):
            parse_params_text("alpha=fast\nbeta=1\n")
        with pytest.raises(ConfigInvalidError):
            parse_params_text("zeta=1\n")

    def test_non_finite_values_rejected(self):
        with pytest.raises(ConfigInvalidError):
            parse_params_text("alpha=nan\nbeta=1\n")
        with pytest.raises(ConfigInvalidError):
            parse_params_text("alpha=1\nbeta=1\ngamma=-inf\n")
        with pytest.raises(ConfigInvalidError):
            parse_params_text("a=1\nb=0\nc=0\nh=inf\nf=0\ni=0\ng=0\n")

    def test_resolve_builtin_and_file(self, tmp_path):
        assert resolve_params("turner04-cg").alpha == pytest.approx(-2.8, abs=1e-12)
        f = tmp_path / "p.txt"
        f.write_text("alpha=0.5\nbeta=-0.5\n")
        assert resolve_params(str(f)) == EnergyParams(0.5, -0.5, 0.0, 0.0)
        with pytest.raises(UnknownParameterSetError):
            resolve_params("no-such-set")

    def test_resolve_file_with_byte_order_mark(self, tmp_path):
        # A leading mark is skipped; one past the start fails its line.
        f = tmp_path / "p.txt"
        f.write_bytes(b"\xef\xbb\xbfalpha=0.5\r\nbeta=-0.5\r\n")
        assert resolve_params(str(f)) == EnergyParams(0.5, -0.5, 0.0, 0.0)
        f.write_bytes(b"alpha=0.5\n\xef\xbb\xbfbeta=-0.5\n")
        with pytest.raises(ConfigInvalidError, match=":2: "):
            resolve_params(str(f))
