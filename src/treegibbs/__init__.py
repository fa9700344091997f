"""Gibbs sampling of plane trees through a Markov chain on 2-Motzkin paths.

The sampler targets the distribution proportional to
exp(-(alpha * d0 + beta * d1)) over plane trees with a fixed number of
edges, by walking on the equivalent space of 2-Motzkin paths.  Exhaustive
small-instance oracles (exact stationary law, transition matrix, spectral
gap, block decompositions) back every moving part with checkable numbers.

Each public name is declared once, in ``_MODULE_OF``, and loads its module
on first use: ``import treegibbs`` loads neither numpy nor any submodule.
The commands import what they run through :mod:`treegibbs.cli`.
"""

import importlib

_MODULE_OF = {
    "batch_means_stderr": "chain",
    "ChainConfig": "chain",
    "ChainState": "chain",
    "move_constants": "chain",
    "run": "chain",
    "Sample": "chain",
    "check_decomposition_bound": "decomposition",
    "check_skeleton_projection": "decomposition",
    "decomposition_report": "decomposition",
    "projected_k_distribution": "decomposition",
    "projection_chain": "decomposition",
    "restriction_chain": "decomposition",
    "BUILTIN_NNTM": "energy",
    "derive_params": "energy",
    "EnergyParams": "energy",
    "NNTMParams": "energy",
    "path_energy": "energy",
    "resolve_params": "energy",
    "build_transition_model": "exact",
    "Chain": "exact",
    "spectral_gap": "exact",
    "SpectralReport": "exact",
    "TransitionModel": "exact",
    "tv_decay_curve": "exact",
    "gibbs_distribution": "law",
    "StateIndex": "law",
    "tv_distance": "law",
    "catalan": "paths",
    "enumerate_paths": "paths",
    "iter_paths": "paths",
    "TwoMotzkinPath": "paths",
    "decode": "trees",
    "degree_profile": "trees",
    "DegreeProfile": "trees",
    "encode": "trees",
    "PlaneTree": "trees",
    "text_to_tree": "trees",
    "tree_to_text": "trees",
}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)
