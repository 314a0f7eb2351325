"""Conservative hypothesis tests for single coefficients and the full vector.

The single-coefficient statistic is

    t_j = sqrt(n) * (beta_hat[j] - beta0) / sqrt(avar[j, j]),

studentized by the conservative sandwich variance. Its correct reference law
is a centered normal whose variance is at most one but cannot be estimated,
so referencing the standard normal gives an (asymptotically) conservative
test; a student-t reference adds further conservativeness through heavier
tails. The full-vector test uses the max-|t| statistic; its recommended
reference is the bootstrap distribution of the same max over studentized
draws, with a Bonferroni normal bound as the no-bootstrap fallback.

Asymptotically conservative does not mean conservative at every finite n;
the normal approximation error can push finite-sample size above nominal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .bootstrap import BootstrapDraws, max_abs_t
from .exceptions import BadCoordinate, DimensionMismatch, ZeroVariance
from .ols import OlsFit
from .variance import VarianceEstimate

REFERENCES = ("std_normal", "student_t", "bootstrap")


@dataclass(frozen=True)
class TestResult:
    statistic: float
    reference: str
    p_value: float
    conservative: bool
    null_value: object
    target_coord: int | None = None
    df: int | None = None
    b: int | None = None


def _smoothed_upper_p(ref: np.ndarray, observed: float) -> float:
    # add-one smoothing keeps bootstrap p-values off exact zero
    return float((1 + np.sum(ref >= observed)) / (ref.shape[0] + 1))


def t_test(
    fit: OlsFit,
    var: VarianceEstimate,
    j: int,
    beta0: float,
    reference: str = "std_normal",
    draws: BootstrapDraws | None = None,
) -> TestResult:
    """Two-sided test of beta_n[j] = beta0.

    The default std_normal reference is the conservative choice; student_t
    uses n - p degrees of freedom for callers who want the extra tail mass.
    A classical variance estimate is accepted for comparison runs, but the
    conservativeness guarantee only holds for sandwich studentization.
    """
    if reference not in REFERENCES:
        raise ValueError(f"unknown reference {reference!r}; choose from {REFERENCES}")
    if not 0 <= j < fit.p:
        raise BadCoordinate(f"coordinate {j} out of range for p={fit.p}")
    ajj = var.avar[j, j]
    if ajj <= 0.0:
        raise ZeroVariance(f"avar[{j},{j}] = {ajj}; cannot studentize")
    stat = float(np.sqrt(fit.n) * (fit.beta_hat[j] - beta0) / np.sqrt(ajj))

    df = b = None
    if reference == "std_normal":
        p_value = 2.0 * float(special.ndtr(-abs(stat)))
    elif reference == "student_t":
        df = fit.n - fit.p
        if df < 1:
            raise ZeroVariance(f"student_t reference needs n > p, got n={fit.n}, p={fit.p}")
        p_value = 2.0 * float(special.stdtr(df, -abs(stat)))
    else:
        if draws is None:
            raise ValueError("bootstrap reference requires precomputed draws")
        ref = np.abs(draws.draws_u[:, j]) / np.sqrt(ajj)
        p_value = _smoothed_upper_p(ref, abs(stat))
        b = draws.b
    return TestResult(
        statistic=stat,
        reference=reference,
        p_value=min(p_value, 1.0),
        conservative=var.is_sandwich(),
        null_value=float(beta0),
        target_coord=j,
        df=df,
        b=b,
    )


def max_t_test(
    fit: OlsFit,
    var: VarianceEstimate,
    beta0,
    reference: str = "bootstrap",
    draws: BootstrapDraws | None = None,
) -> TestResult:
    """Simultaneous test of the full vector via the max-|t| statistic.

    The bootstrap reference compares against max_j |u_star_b[j]| / se-scale
    over replicates with add-one smoothing. Normal and student-t references
    fall back to a Bonferroni bound p = min(1, p_dim * two-sided tail), which
    is conservative but ignores cross-coordinate dependence; the bootstrap
    reference is the recommended path.
    """
    if reference not in REFERENCES:
        raise ValueError(f"unknown reference {reference!r}; choose from {REFERENCES}")
    beta0 = np.asarray(beta0, dtype=float).ravel()
    if beta0.shape[0] != fit.p:
        raise DimensionMismatch(f"beta0 has length {beta0.shape[0]}, expected {fit.p}")
    d2 = np.diag(var.avar)
    if np.any(d2 <= 0.0):
        raise ZeroVariance("a coordinate has zero estimated variance")
    t_all = np.sqrt(fit.n) * (fit.beta_hat - beta0) / np.sqrt(d2)
    stat = float(np.abs(t_all).max())

    df = b = None
    if reference == "bootstrap":
        if draws is None:
            raise ValueError("bootstrap reference requires precomputed draws")
        p_value = _smoothed_upper_p(max_abs_t(draws, np.sqrt(d2)), stat)
        b = draws.b
    elif reference == "std_normal":
        p_value = min(1.0, fit.p * 2.0 * float(special.ndtr(-stat)))
    else:
        df = fit.n - fit.p
        if df < 1:
            raise ZeroVariance(f"student_t reference needs n > p, got n={fit.n}, p={fit.p}")
        p_value = min(1.0, fit.p * 2.0 * float(special.stdtr(df, -stat)))
    return TestResult(
        statistic=stat,
        reference=reference,
        p_value=p_value,
        conservative=var.is_sandwich(),
        null_value=beta0,
        target_coord=None,
        df=df,
        b=b,
    )
