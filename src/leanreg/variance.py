"""Estimators for the covariance of sqrt(n) * (beta_hat - beta_n).

Two families are provided. The classical homoscedastic estimator
sigma2 * sigma_hat^-1 is the conventional software default and is only valid
under a correctly specified homoscedastic linear model; it is included as the
comparator. The sandwich estimator sigma_hat^-1 @ meat @ sigma_hat^-1 uses
the conservative meat matrix, with R_s the fit's factor of the score rows,

    k_check = (1/n) sum x_i x_i' e_i^2 = R_s' R_s / n.

Under iid sampling the sandwich is consistent. Under independent but
non-identically distributed observations no consistent estimator of the true
score covariance exists at all (the per-observation score means are not
identifiable), so only this conservative version is exposed: it converges to
an upper bound of the target in the PSD order, never below it.

Each estimator takes a fit with any leading stack axes, gives each item the
bits it gets alone, and raises the error of its first failing item.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateDof, NonFiniteValue
from .ols import OlsFit

#: method tags carried by VarianceEstimate
CLASSICAL = "classical"
SANDWICH_HC0 = "sandwich_hc0"
SANDWICH_HC1 = "sandwich_hc1"


@dataclass(frozen=True)
class VarianceEstimate:
    """An estimate of the covariance of sqrt(n) * (beta_hat - beta_n).

    ``avar`` is on the sqrt(n) scale, with n the fit's sample size;
    ``se[j] = sqrt(avar[j, j] / n)`` is the plain standard error of beta_hat[j].
    ``meat`` is the inner matrix: k_check for sandwich methods, sigma2 *
    sigma_hat for the classical one.
    """

    method: str
    avar: np.ndarray
    se: np.ndarray
    meat: np.ndarray

    def is_sandwich(self) -> bool:
        return self.method in (SANDWICH_HC0, SANDWICH_HC1)


def k_check(fit: OlsFit) -> np.ndarray:
    """Conservative meat matrix (1/n) sum x_i x_i' e_i^2, for each item of the fit.

    Computed as R_s' R_s / n from the fit's factor of the score rows, so equal
    to scores_hat.T @ scores_hat / n. Raises NonFiniteValue when one overflows.
    """
    r_s = fit.r_s
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        meat = r_s.swapaxes(-1, -2) @ r_s / fit.n
    if not np.isfinite(meat).all():
        raise NonFiniteValue("k_check, the sandwich meat matrix, is outside double range")
    return meat


def _se(avar: np.ndarray, n: int) -> np.ndarray:
    """Plain standard errors sqrt(avar[j, j] / n), over leading stack axes."""
    return np.sqrt(np.diagonal(avar, axis1=-2, axis2=-1) / n)


def sandwich_avar(fit: OlsFit) -> VarianceEstimate:
    """Sandwich estimate sigma_hat^-1 @ k_check @ sigma_hat^-1 (HC0), for each item of the fit.

    It is C C' / n with C = sigma_hat^-1 R_s', so symmetric by construction.
    This is the plain 1/n average the conservative guarantee is stated for;
    ``hc1_avar`` rescales it to HC1. Leverage-based corrections (HC2/HC3)
    are deliberately not offered.
    """
    meat = k_check(fit)
    c = fit.sigma_hat_inv @ fit.r_s.swapaxes(-1, -2)
    avar = c @ c.swapaxes(-1, -2) / fit.n
    return VarianceEstimate(SANDWICH_HC0, avar, _se(avar, fit.n), meat)


def hc1_avar(fit: OlsFit, hc0: VarianceEstimate) -> VarianceEstimate:
    """The HC1 estimate from the fit's HC0 one (any other is a ValueError): avar * n / (n - p)."""
    if hc0.method != SANDWICH_HC0:
        raise ValueError(f"HC1 rescales a {SANDWICH_HC0!r} estimate, got {hc0.method!r}")
    if fit.n <= fit.p:
        raise DegenerateDof(f"HC1 needs n > p, got n={fit.n}, p={fit.p}")
    avar = hc0.avar * (fit.n / (fit.n - fit.p))
    return VarianceEstimate(SANDWICH_HC1, avar, _se(avar, fit.n), hc0.meat)


def residual_variance(fit: OlsFit) -> float | np.ndarray:
    """The classical error-variance estimator sigma2 = RSS/(n-p); needs n > p and a finite RSS.

    A float for one fit, and an array over the stack axes of a stacked one.
    """
    if fit.n <= fit.p:
        raise DegenerateDof(f"classical variance needs n > p, got n={fit.n}, p={fit.p}")
    e = fit.residuals
    with np.errstate(over="ignore"):  # an overflow raises below
        # a fixed-order numpy sum, unlike a BLAS dot, does not depend on the thread count
        rss = (e * e).sum(axis=-1)
    if not np.isfinite(rss).all():
        raise NonFiniteValue("residual sum of squares is outside double range")
    sigma2 = rss / (fit.n - fit.p)
    return float(sigma2) if sigma2.ndim == 0 else sigma2


def classical_avar(fit: OlsFit) -> VarianceEstimate:
    """Homoscedastic estimate sigma2 * sigma_hat^-1 with sigma2 = RSS/(n-p).

    This is what conventional regression output reports; it is wrong whenever
    the error variance depends on the covariates or the mean is nonlinear.
    """
    sigma2 = np.asarray(residual_variance(fit))[..., None, None]
    avar = sigma2 * fit.sigma_hat_inv
    return VarianceEstimate(method=CLASSICAL, avar=avar, se=_se(avar, fit.n), meat=sigma2 * fit.sigma_hat)
