"""Conservative hypothesis tests for single coefficients and the full vector.

The single-coefficient statistic is

    t_j = sqrt(n) * (beta_hat[j] - beta0) / sqrt(avar[j, j]),

studentized by the conservative sandwich variance. Its correct reference law
is a centered normal whose variance is at most one but cannot be estimated,
so referencing the standard normal gives an (asymptotically) conservative
test; a student-t reference adds further conservativeness through heavier
tails. The full-vector test uses the max-|t| statistic; its recommended
reference is the bootstrap distribution of the same max over studentized
draws, with a Bonferroni normal bound as the no-bootstrap fallback. The
single-coefficient test is the same max-|t| test over the coordinates {j}.

Asymptotically conservative does not mean conservative at every finite n;
the normal approximation error can push finite-sample size above nominal.

Both tests take inputs with any leading stack axes, give each item the
statistic and p-value it gets alone, and raise for the first failing item.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bootstrap import BootstrapDraws, Studentized, studentizer
from .exceptions import BadCoordinate, DegenerateDof, DimensionMismatch
from .ols import OlsFit
from .variance import VarianceEstimate

REFERENCES = ("std_normal", "student_t", "bootstrap")


@dataclass(frozen=True)
class TestResult:
    statistic: float | np.ndarray
    reference: str
    p_value: float | np.ndarray
    conservative: bool
    null_value: object
    target_coord: int | None = None
    df: int | None = None
    b: int | None = None


def _max_t(fit: OlsFit, var: VarianceEstimate, coords, beta0, reference: str, draws, studentized) -> TestResult:
    """The max-|t| test over ``coords`` for one reference law.

    ``coords`` is either ``[j]``, which reports the signed t_j and
    ``target_coord=j``, or ``slice(None)``, which reports max_j |t_j|. A
    normal or student-t reference gives min(1, k * two-sided tail) over the
    k coordinates, which for k = 1 is the exact two-sided p-value.
    """
    if reference not in REFERENCES:
        raise ValueError(f"unknown reference {reference!r}; choose from {REFERENCES}")
    if not np.all(np.isfinite(beta0)):
        raise ValueError(f"null value must be finite, got {beta0!r}")
    s = studentized or studentizer(var, draws if reference == "bootstrap" else None, coords)
    diff = np.sqrt(fit.n) * (fit.beta_hat[..., coords] - beta0)
    stat = np.abs(diff / s.d).max(axis=-1)

    df = b = None
    if reference == "bootstrap":
        if draws is None:
            raise ValueError("bootstrap reference requires precomputed draws")
        # (1 + #{b : ref_b >= stat}) / (B + 1); the add-one keeps it at or above 1/(B+1)
        p_value = (1 + (s.ref >= stat[..., None]).sum(axis=-1)) / (s.ref.shape[-1] + 1)
        b = draws.b
    else:
        if reference == "std_normal":
            tail = 0.5 * np.vectorize(math.erfc, otypes=[float])(stat / math.sqrt(2.0))
        else:
            df = fit.n - fit.p
            if df < 1:
                raise DegenerateDof(f"student_t reference needs n > p, got n={fit.n}, p={fit.p}")
            # imported here so that the default path never loads scipy
            from scipy.special import stdtr

            tail = stdtr(df, -stat)
        p_value = np.fmin(1.0, diff.shape[-1] * 2.0 * tail)  # fmin, like min(1.0, .), takes 1 over a NaN
    whole = isinstance(coords, slice)
    statistic = stat if whole else diff[..., 0] / s.d[..., 0]
    return TestResult(
        statistic=float(statistic) if statistic.ndim == 0 else statistic,
        reference=reference,
        p_value=float(p_value) if p_value.ndim == 0 else p_value,
        conservative=var.is_sandwich(),
        null_value=beta0,
        target_coord=None if whole else coords[0],
        df=df,
        b=b,
    )


def t_test(
    fit: OlsFit,
    var: VarianceEstimate,
    j: int,
    beta0: float,
    reference: str = "std_normal",
    draws: BootstrapDraws | None = None,
) -> TestResult:
    """Two-sided test of beta_n[j] = beta0: the max-|t| test over {j}.

    The default std_normal reference is the conservative choice; student_t
    uses n - p degrees of freedom for callers who want the extra tail mass.
    A classical variance estimate is accepted for comparison runs, but the
    conservativeness guarantee only holds for sandwich studentization.
    """
    if not 0 <= j < fit.p:
        raise BadCoordinate(f"coordinate {j} out of range for p={fit.p}")
    return _max_t(fit, var, [j], float(beta0), reference, draws, None)


def max_t_test(
    fit: OlsFit,
    var: VarianceEstimate,
    beta0,
    reference: str = "bootstrap",
    draws: BootstrapDraws | None = None,
    studentized: Studentized | None = None,
) -> TestResult:
    """Simultaneous test of the full vector via the max-|t| statistic.

    The bootstrap reference compares against max_j |u_star_b[j]| / se-scale
    over replicates with add-one smoothing, (1 + #{ref_b >= stat}) / (B + 1),
    never below 1/(B+1); see ``region_rectangle`` for the decision the two
    share and for ``studentized``. Normal and student-t references
    fall back to a Bonferroni bound p = min(1, p_dim * two-sided tail), which
    is conservative but ignores cross-coordinate dependence; the bootstrap
    reference is the recommended path.
    """
    beta0 = np.asarray(beta0, dtype=float).ravel()
    if beta0.shape[0] != fit.p:
        raise DimensionMismatch(f"beta0 has length {beta0.shape[0]}, expected {fit.p}")
    return _max_t(fit, var, slice(None), beta0, reference, draws, studentized)
