"""Durbin-Watson analysis of an AR(1) process driven by AR(1) noise.

Library surface: model simulation (:mod:`dwlab.model`), closed-form limits
(:mod:`dwlab.limits`), least squares statistics (:mod:`dwlab.estimators`),
chi-square tests (:mod:`dwlab.testing`), parameter recovery
(:mod:`dwlab.recovery`) and the Monte Carlo verification engine
(:mod:`dwlab.montecarlo`).  The ``dwlab`` command exposes all of it.

Importing the package loads no submodule and so no numpy: each name of
``__all__`` imports its module on first access (``from dwlab import
estimate_all``).  The constants here are the one home of the defaults and
the choice lists that the command line parser shares with the library: both
read them, and ``dwlab --help`` and ``dwlab limits`` start without numpy.
A choice list names its default first.
"""

import importlib

__version__ = "0.1.0"

NOISE_KINDS = ("gaussian", "uniform", "rademacher")

RNG_ALGORITHM = "philox4x64"

TRAJECTORIES = ("theta", "rho", "dw")  # the trajectory fields of estimators.RunningEstimates, in walk order

TEST_KINDS = ("zero", "rho0", "critical")

CONVENTIONS = ("theta_less", "theta_greater")  # which root of recovery's quadratic is theta

DEFAULT_SIGMA2 = 1.0  # variance of the innovations V_k

DEFAULT_START = 0.0  # x0 and eps0: a path starts at rest

DEFAULT_ALPHA = 0.05  # significance level of verify's tests

DEFAULT_BURN_IN = 10  # first trajectory index; early estimates are erratic

_EXPORTS = {
    "errors": ("DWLabError",),
    "model": ("ModelParams", "NoiseSpec", "Series", "simulate", "validate_params"),
    "limits": ("AsymptoticSet", "asymptotics"),
    "estimators": ("EstimateSet", "estimate_all", "running_estimates"),
    "testing": ("TestOutcome", "TestWeights", "critical_case_test", "rho_test", "rho_zero_test", "auto_test"),
    "recovery": ("RecoveredParams", "recover_params", "recover_sigma2"),
    "montecarlo": (
        "McConfig",
        "McReport",
        "derive_seed",
        "run_replications",
        "empirical_size_power",
        "qsl_check",
        "lil_envelope_check",
    ),
}

__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]


def __getattr__(name: str):
    for module, names in _EXPORTS.items():
        if name in names:
            value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
