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


def _k_check(x: np.ndarray, residuals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """k_check over leading stack axes of x (..., n, p) and residuals (..., n).

    Returns the meat matrices and, per item, whether one is outside double range.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported by the flag
        meat = np.einsum("...ij,...ik,...i->...jk", x, x, residuals**2) / x.shape[-2]
    return meat, ~np.isfinite(meat).all(axis=(-2, -1))


def k_check(fit: OlsFit) -> np.ndarray:
    """Conservative meat matrix (1/n) sum x_i x_i' e_i^2.

    Computed from the definition (a weighted sum of rank-one terms); equal to
    scores_hat.T @ scores_hat / n. Raises NonFiniteValue when it overflows.
    """
    meat, out_of_range = _k_check(fit.data.x, fit.residuals)
    if out_of_range:
        raise NonFiniteValue("k_check, the sandwich meat matrix, is outside double range")
    return meat


def _se(avar: np.ndarray, n: int) -> np.ndarray:
    """Plain standard errors sqrt(avar[j, j] / n), over leading stack axes."""
    return np.sqrt(np.diagonal(avar, axis1=-2, axis2=-1) / n)


def _sandwich_avar(solve, meat: np.ndarray) -> np.ndarray:
    """sigma_hat^-1 @ meat @ sigma_hat^-1, symmetrized, over leading stack axes."""
    avar = solve(solve(meat).swapaxes(-1, -2)).swapaxes(-1, -2)
    return (avar + avar.swapaxes(-1, -2)) / 2.0


def sandwich_avar(fit: OlsFit) -> VarianceEstimate:
    """Sandwich estimate sigma_hat^-1 @ k_check @ sigma_hat^-1 (HC0).

    This is the plain 1/n average the conservative guarantee is stated for;
    ``hc1_avar`` rescales it to HC1. Leverage-based corrections (HC2/HC3)
    are deliberately not offered.
    """
    meat = k_check(fit)
    avar = _sandwich_avar(fit.solve, meat)
    return VarianceEstimate(SANDWICH_HC0, avar, _se(avar, fit.n), meat)


def hc1_avar(fit: OlsFit, hc0: VarianceEstimate) -> VarianceEstimate:
    """The HC1 estimate from the fit's HC0 one (any other is a ValueError): avar * n / (n - p)."""
    if hc0.method != SANDWICH_HC0:
        raise ValueError(f"HC1 rescales a {SANDWICH_HC0!r} estimate, got {hc0.method!r}")
    if fit.n <= fit.p:
        raise DegenerateDof(f"HC1 needs n > p, got n={fit.n}, p={fit.p}")
    avar = hc0.avar * (fit.n / (fit.n - fit.p))
    return VarianceEstimate(SANDWICH_HC1, avar, _se(avar, fit.n), hc0.meat)


def _residual_variance(residuals: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """RSS/(n-p) over leading stack axes of residuals (..., n).

    Returns the estimates and, per item, whether residual_variance would
    raise for it: n <= p, or an RSS outside double range. A flagged
    estimate is a placeholder.
    """
    n = residuals.shape[-1]
    with np.errstate(over="ignore"):  # reported by the flag
        rss = (residuals[..., None, :] @ residuals[..., :, None])[..., 0, 0]
    return rss / max(n - p, 1), ~np.isfinite(rss) | (n <= p)


def residual_variance(fit: OlsFit) -> float:
    """The classical error-variance estimator sigma2 = RSS/(n-p); needs n > p and a finite RSS."""
    if fit.n <= fit.p:
        raise DegenerateDof(f"classical variance needs n > p, got n={fit.n}, p={fit.p}")
    sigma2, out_of_range = _residual_variance(fit.residuals, fit.p)
    if out_of_range:
        raise NonFiniteValue("residual sum of squares is outside double range")
    return float(sigma2)


def _classical_avar(solve, sigma2, p: int) -> np.ndarray:
    """sigma2 * sigma_hat^-1, symmetrized, over the leading stack axes of sigma2."""
    inv = solve(np.broadcast_to(np.eye(p), np.shape(sigma2) + (p, p)))
    return np.asarray(sigma2)[..., None, None] * (inv + inv.swapaxes(-1, -2)) / 2.0


def classical_avar(fit: OlsFit) -> VarianceEstimate:
    """Homoscedastic estimate sigma2 * sigma_hat^-1 with sigma2 = RSS/(n-p).

    This is what conventional regression output reports; it is wrong whenever
    the error variance depends on the covariates or the mean is nonlinear.
    """
    sigma2 = residual_variance(fit)
    avar = _classical_avar(fit.solve, sigma2, fit.p)
    return VarianceEstimate(method=CLASSICAL, avar=avar, se=_se(avar, fit.n), meat=sigma2 * fit.sigma_hat)
