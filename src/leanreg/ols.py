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

import functools
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg
from .exceptions import DimensionMismatch, NonFiniteValue, SingularDesign


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


class _Fits(NamedTuple):
    """Normal-equation fits over leading stack axes, from ``_fit_stack``.

    ``out_of_range`` and ``pivot`` hold fit_ols's two gates per item: x'x
    outside double range, and ``linalg._cholesky_spd``'s pivot of sigma_hat
    (-1 where it passes). An item that fails either carries placeholder
    values in the other fields.
    """

    sigma_hat: np.ndarray
    gamma_hat: np.ndarray
    lower: np.ndarray
    beta_hat: np.ndarray
    residuals: np.ndarray
    out_of_range: np.ndarray
    pivot: np.ndarray

    @property
    def failed(self) -> np.ndarray:
        """Whether each item fails a gate, as fit_ols would raise for it."""
        return self.out_of_range | (self.pivot >= 0)

    @property
    def solve(self) -> Callable[[np.ndarray], np.ndarray]:
        """b -> sigma_hat^-1 b, with b of shape (..., p, k) over the stack."""
        return functools.partial(linalg._apply_factor, self.lower)

    def fit(self, index, data: Dataset) -> OlsFit:
        """The OlsFit of item ``index``, whose dataset is ``data``; the caller has checked its gates."""
        residuals = self.residuals[index]
        return OlsFit(
            beta_hat=self.beta_hat[index],
            sigma_hat=self.sigma_hat[index],
            gamma_hat=self.gamma_hat[index],
            residuals=residuals,
            scores_hat=data.x * residuals[:, None],
            n=data.n,
            p=data.p,
            data=data,
            solve=functools.partial(linalg._apply_factor, self.lower[index]),
        )


def _fit_stack(x: np.ndarray, y: np.ndarray) -> _Fits:
    """Solve the empirical normal equations for x (..., n, p) and y (..., n).

    Every item gets the matmul, factorization and substitution calls it gets
    alone, so its bits do not depend on the stack. The gates are reported,
    not raised.
    """
    n = x.shape[-2]
    xt = x.swapaxes(-1, -2)
    # an item that fails a gate carries placeholder values on, so its numpy warnings are dropped
    with np.errstate(over="ignore", invalid="ignore"):
        sigma_hat = xt @ x / n
        tiny = np.diagonal(sigma_hat, axis1=-2, axis2=-1) < np.finfo(float).tiny
        out_of_range = ~np.isfinite(sigma_hat).all(axis=(-2, -1))
        if tiny.any():
            out_of_range |= (tiny[..., None, :] & (x != 0.0)).any(axis=(-2, -1))
        gamma_hat = (xt @ y[..., None])[..., 0] / n
        lower, pivot = linalg._cholesky_spd(sigma_hat)
        beta_hat = linalg._apply_factor(lower, gamma_hat[..., None])[..., 0]
        residuals = y - (x @ beta_hat[..., None])[..., 0]
    return _Fits(sigma_hat, gamma_hat, lower, beta_hat, residuals, out_of_range, pivot)


def fit_ols(data: Dataset) -> OlsFit:
    """Fit OLS by solving the empirical normal equations.

    Requires sigma_hat to be positive definite (hence n >= p); otherwise
    raises SingularDesign, or NonFiniteValue when x'x overflows or a column
    that is not all zero has a mean square below the smallest normal double,
    where its bits are lost. No rank-deficient fallback is attempted.
    """
    fits = _fit_stack(data.x, data.y)
    if fits.out_of_range:
        raise NonFiniteValue("design second-moment matrix is outside double range")
    if fits.pivot >= 0:
        cause = linalg._not_positive_definite(int(fits.pivot), data.p)
        raise SingularDesign("design second-moment matrix is not positive definite") from cause
    return fits.fit((), data)


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

