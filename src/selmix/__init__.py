"""Repulsive Gaussian mixtures with Selberg Dirichlet weight priors.

Each exported name is imported from its home module on first access
(PEP 562): ``import selmix`` loads no numpy, nor do ``selmix --version``,
``--help`` and argument errors, and the subcommands that need only numpy
do not load the sampler.  numpy is the one runtime dependency.
"""

import importlib

__version__ = "0.1.0"

# home module -> the names the package exports from it
_EXPORTS = {
    "analysis": (
        "PosteriorTrace",
        "binder_estimate",
        "elicit_zeta",
        "posterior_similarity",
        "prior_ma_simulation",
    ),
    "ensemble": ("GeParams", "ge_log_density", "ge_log_norm_const", "sample_ge"),
    "model": (
        "Hyperparams",
        "MixtureState",
        "log_complete_joint",
        "log_likelihood",
        "shifted_poisson_log_pmf",
    ),
    "planted": ("simulate_benchmark",),
    "sampler": ("SamplerConfig", "StepDiagnostics", "run_sampler"),
    "selberg": (
        "SdirParams",
        "internal_dispersion_expectation",
        "sample_sdir",
        "sdir_log_density",
        "sdir_log_norm_const",
        "sdir_moments",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    # not cached here: the package namespace holds only what is defined above
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
