"""Gibbs sampling of plane trees through a Markov chain on 2-Motzkin paths.

The sampler targets the distribution proportional to
exp(-(alpha * d0 + beta * d1)) over plane trees with a fixed number of
edges, by walking on the equivalent space of 2-Motzkin paths.  Exhaustive
small-instance oracles (exact stationary law, transition matrix, spectral
gap, block decompositions) back every moving part with checkable numbers.
"""

import importlib

from .chain import (
    ChainConfig,
    ChainState,
    Sample,
    batch_means_stderr,
    move_constants,
    run,
)
from .energy import (
    BUILTIN_NNTM,
    EnergyParams,
    NNTMParams,
    derive_params,
    path_energy,
    resolve_params,
)
from .paths import (
    SymbolCounts,
    TwoMotzkinPath,
    catalan,
    enumerate_paths,
    iter_paths,
)
from .trees import (
    DegreeProfile,
    PlaneTree,
    decode,
    degree_profile,
    encode,
    text_to_tree,
    tree_to_text,
)

# The oracle's names load on first use, so ``sample``, ``convert`` and
# ``--version`` do not pay the start-up cost of importing ``exact`` and
# ``decomposition``.
_LAZY = {
    **dict.fromkeys(
        (
            "check_decomposition_bound",
            "check_skeleton_projection",
            "decomposition_report",
            "projected_k_distribution",
            "projection_chain",
            "restriction_chain",
        ),
        "decomposition",
    ),
    **dict.fromkeys(
        (
            "Chain",
            "SpectralReport",
            "TransitionModel",
            "build_transition_model",
            "spectral_gap",
            "tv_decay_curve",
        ),
        "exact",
    ),
    **dict.fromkeys(("StateIndex", "gibbs_distribution", "tv_distance"), "law"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NNTM",
    "Chain",
    "ChainConfig",
    "ChainState",
    "DegreeProfile",
    "EnergyParams",
    "NNTMParams",
    "PlaneTree",
    "Sample",
    "SpectralReport",
    "StateIndex",
    "SymbolCounts",
    "TransitionModel",
    "TwoMotzkinPath",
    "batch_means_stderr",
    "build_transition_model",
    "catalan",
    "check_decomposition_bound",
    "check_skeleton_projection",
    "decode",
    "decomposition_report",
    "degree_profile",
    "derive_params",
    "encode",
    "enumerate_paths",
    "gibbs_distribution",
    "iter_paths",
    "move_constants",
    "path_energy",
    "projected_k_distribution",
    "projection_chain",
    "resolve_params",
    "restriction_chain",
    "run",
    "spectral_gap",
    "text_to_tree",
    "tree_to_text",
    "tv_decay_curve",
    "tv_distance",
]
