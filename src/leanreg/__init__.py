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
"""

from .bootstrap import (
    BootstrapDraws,
    ConfidenceRegion,
    region_ellipsoid,
    region_rectangle,
    run_bootstrap,
)
from .diagnostics import DetCheckReport, det_inequality_check, influence_remainder
from .exceptions import (
    BadCoordinate,
    DegenerateDof,
    DimensionMismatch,
    EmptyData,
    LeanRegError,
    MissingColumn,
    NonFiniteValue,
    NonNumericCell,
    NotPositiveDefinite,
    NotSymmetric,
    SingularDesign,
    ZeroVariance,
)
from .inference import TestResult, max_t_test, t_test
from .ols import Dataset, OlsFit, fit_ols, scores_at
from .simlab import (
    CoverageReport,
    Dgp,
    PopulationTargets,
    population_score_means,
    population_targets,
    run_consistency,
    run_coverage,
    sample,
)
from .variance import VarianceEstimate, classical_avar, hc1_avar, k_check, sandwich_avar

__version__ = "0.1.0"

__all__ = [
    "BadCoordinate",
    "BootstrapDraws",
    "ConfidenceRegion",
    "CoverageReport",
    "Dataset",
    "DegenerateDof",
    "DetCheckReport",
    "Dgp",
    "DimensionMismatch",
    "EmptyData",
    "LeanRegError",
    "MissingColumn",
    "NonFiniteValue",
    "NonNumericCell",
    "NotPositiveDefinite",
    "NotSymmetric",
    "OlsFit",
    "PopulationTargets",
    "SingularDesign",
    "TestResult",
    "VarianceEstimate",
    "ZeroVariance",
    "classical_avar",
    "det_inequality_check",
    "fit_ols",
    "hc1_avar",
    "influence_remainder",
    "k_check",
    "max_t_test",
    "population_score_means",
    "population_targets",
    "region_ellipsoid",
    "region_rectangle",
    "run_bootstrap",
    "run_consistency",
    "run_coverage",
    "sample",
    "sandwich_avar",
    "scores_at",
    "t_test",
]
