"""Estimators for the covariance of sqrt(n) * (beta_hat - beta_n).

Two families are provided. The classical homoscedastic estimator
sigma2 * sigma_hat^-1 is the conventional software default and is only valid
under a correctly specified homoscedastic linear model; it is included as the
comparator. The sandwich estimator sigma_hat^-1 @ meat @ sigma_hat^-1 uses
the conservative meat matrix

    k_check = (1/n) sum x_i x_i' e_i^2.

Under iid sampling the sandwich is consistent. Under independent but
non-identically distributed observations no consistent estimator of the true
score covariance exists at all (the per-observation score means are not
identifiable), so only this conservative version is exposed: it converges to
an upper bound of the target in the PSD order, never below it.
"""

from __future__ import annotations

import math
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
    """Conservative meat matrix (1/n) sum x_i x_i' e_i^2.

    Computed from the definition (a weighted sum of rank-one terms); equal to
    scores_hat.T @ scores_hat / n. Raises NonFiniteValue when it overflows.
    """
    x = fit.data.x
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, by name
        meat = np.einsum("ij,ik,i->jk", x, x, fit.residuals**2) / fit.n
    if not np.all(np.isfinite(meat)):
        raise NonFiniteValue("k_check, the sandwich meat matrix, is outside double range")
    return meat


def sandwich_avar(fit: OlsFit) -> VarianceEstimate:
    """Sandwich estimate sigma_hat^-1 @ k_check @ sigma_hat^-1 (HC0).

    This is the plain 1/n average the conservative guarantee is stated for;
    ``hc1_avar`` rescales it to HC1. Leverage-based corrections (HC2/HC3)
    are deliberately not offered.
    """
    meat = k_check(fit)
    avar = fit.solve(fit.solve(meat).T).T
    avar = (avar + avar.T) / 2.0
    return VarianceEstimate(SANDWICH_HC0, avar, np.sqrt(np.diag(avar) / fit.n), meat)


def hc1_avar(fit: OlsFit, hc0: VarianceEstimate) -> VarianceEstimate:
    """The HC1 estimate from the fit's HC0 one (any other is a ValueError): avar * n / (n - p)."""
    if hc0.method != SANDWICH_HC0:
        raise ValueError(f"HC1 rescales a {SANDWICH_HC0!r} estimate, got {hc0.method!r}")
    if fit.n <= fit.p:
        raise DegenerateDof(f"HC1 needs n > p, got n={fit.n}, p={fit.p}")
    avar = hc0.avar * (fit.n / (fit.n - fit.p))
    return VarianceEstimate(SANDWICH_HC1, avar, np.sqrt(np.diag(avar) / fit.n), hc0.meat)


def residual_variance(fit: OlsFit) -> float:
    """The classical error-variance estimator sigma2 = RSS/(n-p); needs n > p and a finite RSS."""
    if fit.n <= fit.p:
        raise DegenerateDof(f"classical variance needs n > p, got n={fit.n}, p={fit.p}")
    with np.errstate(over="ignore"):  # reported below, by name
        rss = float(fit.residuals @ fit.residuals)
    if not math.isfinite(rss):
        raise NonFiniteValue("residual sum of squares is outside double range")
    return rss / (fit.n - fit.p)


def classical_avar(fit: OlsFit) -> VarianceEstimate:
    """Homoscedastic estimate sigma2 * sigma_hat^-1 with sigma2 = RSS/(n-p).

    This is what conventional regression output reports; it is wrong whenever
    the error variance depends on the covariates or the mean is nonlinear.
    """
    sigma2 = residual_variance(fit)
    inv = fit.solve(np.eye(fit.p))
    avar = sigma2 * (inv + inv.T) / 2.0
    return VarianceEstimate(
        method=CLASSICAL,
        avar=avar,
        se=np.sqrt(np.diag(avar) / fit.n),
        meat=sigma2 * fit.sigma_hat,
    )
