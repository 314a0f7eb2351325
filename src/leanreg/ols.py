"""Ordinary least squares in two-average form.

The estimator is computed literally as the solution of the empirical normal
equations sigma_hat @ beta = gamma_hat, where sigma_hat and gamma_hat are the
averages (1/n) sum x_i x_i' and (1/n) sum x_i y_i. Keeping these two moment
statistics explicit is what the rest of the library (variance estimation,
score bootstrap, diagnostics) builds on.

No intercept is ever added implicitly; callers who want one prepend a ones
column themselves (the CLI offers a flag for this).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .exceptions import DimensionMismatch, NonFiniteValue, NotPositiveDefinite, SingularDesign


@dataclass(frozen=True)
class Dataset:
    """An n x p design matrix (rows are covariate vectors) and n responses."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise DimensionMismatch(f"x has {x.shape[0]} rows but y has {y.shape[0]} entries")
        if x.shape[0] < 1 or x.shape[1] < 1:
            raise DimensionMismatch("need at least one observation and one covariate")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("dataset contains non-finite entries")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class OlsFit:
    """A fitted least squares regression plus the moment statistics behind it.

    Attributes
    ----------
    beta_hat : (p,) solution of the empirical normal equations.
    sigma_hat : (p, p) average outer product of covariate rows.
    gamma_hat : (p,) average covariate-response cross moment.
    residuals : (n,) y minus fitted values.
    scores_hat : (n, p) estimated score rows x_i * residual_i; these sum to
        zero coordinate-wise (the normal equations) and feed every bootstrap
        and variance routine.
    data : the dataset the fit was computed from.
    solve : b -> sigma_hat^-1 b through the one factorization of sigma_hat;
        the variance estimates and the bootstrap draws reuse it.
    """

    beta_hat: np.ndarray
    sigma_hat: np.ndarray
    gamma_hat: np.ndarray
    residuals: np.ndarray
    scores_hat: np.ndarray
    n: int
    p: int
    data: Dataset = field(repr=False)
    solve: Callable[[np.ndarray], np.ndarray] = field(repr=False)


def fit_ols(data: Dataset) -> OlsFit:
    """Fit OLS by solving the empirical normal equations.

    Requires sigma_hat to be positive definite (hence n >= p); otherwise
    raises SingularDesign, or NonFiniteValue when x'x overflows or a column
    that is not all zero has a mean square below the smallest normal double,
    where its bits are lost. No rank-deficient fallback is attempted.
    """
    x, y = data.x, data.y
    n = data.n
    with np.errstate(over="ignore"):  # reported below, by name
        sigma_hat = x.T @ x / n
    tiny = np.diag(sigma_hat) < np.finfo(float).tiny
    if not np.all(np.isfinite(sigma_hat)) or (tiny.any() and np.any(x[:, tiny] != 0.0)):
        raise NonFiniteValue("design second-moment matrix is outside double range")
    gamma_hat = x.T @ y / n
    try:
        solve = linalg.spd_solver(sigma_hat)
    except NotPositiveDefinite as exc:
        raise SingularDesign("design second-moment matrix is not positive definite") from exc
    beta_hat = solve(gamma_hat)
    residuals = y - x @ beta_hat
    return OlsFit(
        beta_hat=beta_hat,
        sigma_hat=sigma_hat,
        gamma_hat=gamma_hat,
        residuals=residuals,
        scores_hat=x * residuals[:, None],
        n=n,
        p=data.p,
        data=data,
        solve=solve,
    )


def scores_at(data: Dataset, beta) -> np.ndarray:
    """Per-observation score rows x_i * (y_i - x_i' beta) at an arbitrary beta.

    At the fitted coefficients this reproduces ``OlsFit.scores_hat`` and the
    column sums vanish; at other points the rows are the raw (uncentered)
    estimating-equation contributions.
    """
    beta = np.asarray(beta, dtype=float).ravel()
    if beta.shape[0] != data.p:
        raise DimensionMismatch(f"beta has length {beta.shape[0]}, expected {data.p}")
    return data.x * (data.y - data.x @ beta)[:, None]

