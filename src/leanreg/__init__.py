"""Assumption-lean least squares: estimation, conservative inference, and a
simulation laboratory for verifying the guarantees empirically.

The chain of ideas, in library form: a least squares fit estimates a
well-defined moment target beta_n = sigma_n^-1 gamma_n with no linearity or
homoscedasticity assumptions (``ols``); its variance is estimated by the
sandwich built on a conservative meat matrix, because the exact score
covariance is not estimable under non-identical sampling (``variance``);
score bootstraps turn that into simultaneous confidence regions
(``bootstrap``) and conservative tests (``inference``); a deterministic
perturbation inequality and the linear-representation remainder make the
structure checkable without asymptotics (``diagnostics``); and ``simlab``
measures coverage, size and rates on scenarios with exact population
targets.

Each public name resolves on first use from one table of home modules, and
is then bound here, so ``import leanreg`` loads no submodule (and no numpy);
``leanreg.simlab`` and the other submodules resolve the same way.
"""

import importlib

__version__ = "0.1.0"

# each home module and the public names it exports
_EXPORTS = {
    "bootstrap": ("BootstrapDraws", "ConfidenceRegion", "region_ellipsoid", "region_rectangle", "run_bootstrap"),
    "diagnostics": ("DetCheckReport", "det_inequality_check", "influence_remainder"),
    "exceptions": (
        "BadCoordinate", "DegenerateDof", "DimensionMismatch", "EmptyData", "LeanRegError", "MissingColumn",
        "NonFiniteValue", "NonNumericCell", "NotPositiveDefinite", "NotSymmetric", "SingularDesign", "ZeroVariance",
    ),
    "inference": ("TestResult", "max_t_test", "t_test"),
    "ols": ("Dataset", "OlsFit", "fit_ols", "scores_at"),
    "simlab": (
        "CoverageReport", "Dgp", "PopulationTargets", "population_score_means", "population_targets",
        "run_consistency", "run_coverage", "sample",
    ),
    "variance": ("VarianceEstimate", "classical_avar", "hc1_avar", "k_check", "sandwich_avar"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "linalg"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
