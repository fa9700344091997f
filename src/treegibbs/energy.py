"""Branching energies, Gibbs log-weights, and thermodynamic parameter sets.

A tree's branching energy is alpha * d0 + beta * d1; the exterior-loop
term gamma * r is left out.  On a 2-Motzkin path the same quantity
is alpha * (|x|_U + |x|_H + 1) + beta * |x|_I, since the encoding sends
leaves to U/H labels (plus the dropped lead) and single-child nodes to I.

The (alpha, beta, gamma, delta) coefficients are derived from the
multiloop/hairpin/interior/dangle constants of the nearest-neighbor
thermodynamic model; builtin sets cover the Turner 1989/1999/2004 rules
for the combinatorial (CG)_n and (GC)_n sequences.  Values are embedded
as literals so no data file is needed at runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigInvalidError, UnknownParameterSetError
from .paths import H, I, U, TwoMotzkinPath


@dataclass(frozen=True)
class EnergyParams:
    """Energy coefficients in kcal/mol per feature.

    Only alpha and beta enter sampling weights; gamma is reported for the
    root term and delta scales with the fixed edge count, so neither
    affects the distribution at fixed size.
    """

    alpha: float
    beta: float
    gamma: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        # Every route to a parameter set (--alpha/--beta, a key=value file,
        # NNTM constants) ends here: a nan or inf would turn every energy,
        # weight and summary it reaches into nan.
        if not all(map(math.isfinite, (self.alpha, self.beta, self.gamma, self.delta))):
            raise ConfigInvalidError(f"energy coefficients must be finite, got {self}")

    def branching(self, d0, d1):
        """``alpha * d0 + beta * d1``: every energy in the package, on numbers or arrays."""
        return self.alpha * d0 + self.beta * d1


@dataclass(frozen=True)
class NNTMParams:
    """Loop free-energy constants: multiloop (a, b, c), helix h, hairpin f,
    interior i, dangle g."""

    a: float
    b: float
    c: float
    h: float
    f: float
    i: float
    g: float


def derive_params(p: NNTMParams) -> EnergyParams:
    """Collapse loop constants into per-feature branching coefficients."""
    return EnergyParams(
        alpha=p.f - p.a - 4 * p.b - p.c - p.g,
        beta=p.i - p.a - 8 * p.b - 2 * p.c - 2 * p.g,
        gamma=-4 * p.b - p.c,
        delta=p.a + 8 * p.b + 2 * p.c + p.h + 2 * p.g,
    )


# NNDB multiloop/hairpin/interior/dangle constants (kcal/mol) for the
# maximally paired (CG)_n and (GC)_n combinatorial sequences, per the
# Turner 1989, 1999, and 2004 rule sets.
BUILTIN_NNTM: dict[str, NNTMParams] = {
    "turner89-cg": NNTMParams(a=4.6, b=0.4, c=0.1, h=-10.9, f=3.8, i=3.0, g=-1.6),
    "turner89-gc": NNTMParams(a=4.6, b=0.4, c=0.1, h=-16.5, f=3.5, i=3.0, g=-1.9),
    "turner99-cg": NNTMParams(a=3.4, b=0.0, c=0.4, h=-12.9, f=4.5, i=2.3, g=-1.6),
    "turner99-gc": NNTMParams(a=3.4, b=0.0, c=0.4, h=-16.9, f=4.1, i=2.3, g=-1.9),
    "turner04-cg": NNTMParams(a=9.3, b=0.0, c=-0.9, h=-12.9, f=4.5, i=2.3, g=-1.1),
    "turner04-gc": NNTMParams(a=9.3, b=0.0, c=-0.9, h=-16.9, f=4.1, i=2.3, g=-1.5),
}


def path_energy(x: TwoMotzkinPath, e: EnergyParams) -> float:
    """Branching energy read directly off path symbol counts."""
    s = x.symbols
    return e.branching(s.count(U) + s.count(H) + 1, s.count(I))


_NNTM_KEYS = ("a", "b", "c", "h", "f", "i", "g")
_DIRECT_KEYS = ("alpha", "beta", "gamma", "delta")


def parse_params_text(text: str, source: str = "<params>") -> EnergyParams:
    """Parse key=value parameter lines.

    Either the full seven-constant NNTM set (a, b, c, h, f, i, g) or
    direct coefficients (alpha, beta, optional gamma/delta) are accepted;
    mixing the two styles is rejected.  Blank lines and '#' comments are
    ignored.
    """
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip().lower()
        if not sep or key not in _NNTM_KEYS + _DIRECT_KEYS:
            raise ConfigInvalidError(f"{source}:{lineno}: expected <key>=<number>, got {raw!r}")
        try:
            values[key] = float(value.strip())
        except ValueError:
            raise ConfigInvalidError(f"{source}:{lineno}: {value.strip()!r} is not a number") from None

    has_nntm = any(k in values for k in _NNTM_KEYS)
    has_direct = any(k in values for k in _DIRECT_KEYS)
    if has_nntm and has_direct:
        raise ConfigInvalidError(f"{source}: mixes NNTM constants with direct coefficients")
    if has_nntm:
        missing = [k for k in _NNTM_KEYS if k not in values]
        if missing:
            raise ConfigInvalidError(f"{source}: missing NNTM constants: {', '.join(missing)}")
        return derive_params(NNTMParams(**{k: values[k] for k in _NNTM_KEYS}))
    if "alpha" not in values or "beta" not in values:
        raise ConfigInvalidError(f"{source}: alpha and beta are both required")
    return EnergyParams(
        alpha=values["alpha"],
        beta=values["beta"],
        gamma=values.get("gamma", 0.0),
        delta=values.get("delta", 0.0),
    )


def resolve_params(name_or_path: str) -> EnergyParams:
    """Resolve a ``--params`` value: a builtin set name or a file path."""
    if name_or_path in BUILTIN_NNTM:
        return derive_params(BUILTIN_NNTM[name_or_path])
    path = Path(name_or_path)
    if path.is_file():
        return parse_params_text(path.read_text(), source=str(path))
    known = ", ".join(sorted(BUILTIN_NNTM))
    raise UnknownParameterSetError(
        f"{name_or_path!r} is neither a builtin parameter set ({known}) nor a readable file"
    )
