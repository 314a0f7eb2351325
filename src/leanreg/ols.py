"""Ordinary least squares in two-average form.

The estimator is computed literally as the solution of the empirical normal
equations sigma_hat @ beta = gamma_hat, where sigma_hat and gamma_hat are the
averages (1/n) sum x_i x_i' and (1/n) sum x_i y_i. Keeping these two moment
statistics explicit is what the rest of the library (variance estimation,
score bootstrap, diagnostics) builds on.

``OlsFit`` holds one fit or a stack of them over leading axes, raising for
the first item that fails a gate; ``fit_ols`` is the one-dataset case. It
keeps sigma_hat^-1 = G'G, G the LAPACK inverse of its Cholesky factor.

No intercept is ever added implicitly; callers who want one prepend a ones
column themselves (the CLI offers a flag for this).
"""

from __future__ import annotations

from dataclasses import dataclass

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


class OlsFit:
    """Least squares fits over leading stack axes, plus the moment statistics behind them.

    ``OlsFit(x, y)`` solves the empirical normal equations for designs x
    (..., n, p) and responses y (..., n), giving each item the matmul,
    factorization and substitution calls, and so the bits, it gets alone.
    An ``OlsFit`` that exists holds only fits: the constructor raises the
    error of the first item, in C order, that fails a gate, for the first
    gate it fails. The gates are a non-finite entry of x or y
    (NonFiniteValue), x'x outside double range (NonFiniteValue), and
    ``linalg._cholesky_spd``'s pivot of sigma_hat (SingularDesign). The
    functions that take a fit take one with any leading axes.

    Attributes
    ----------
    beta_hat : (..., p) solution of the empirical normal equations.
    sigma_hat : (..., p, p) average outer product of covariate rows.
    gamma_hat : (..., p) average covariate-response cross moment.
    residuals : (..., n) y minus fitted values.
    scores_hat : (..., n, p) estimated score rows x_i * residual_i; these sum
        to zero coordinate-wise (the normal equations) and feed every
        bootstrap and variance routine.
    data : the dataset a one-item fit was computed from, if its caller gave
        one (``fit_ols`` does); else None.
    n, p : the sample size and the number of covariates, from the shapes.
    sigma_hat_inv : (..., p, p) sigma_hat^-1 as G'G, G = L^-1 the LAPACK inverse of
        sigma_hat's one Cholesky factor L, so symmetric to the bit; the sandwich,
        the classical estimate and the draws multiply by it.
    r_s : (..., p, p) triangular factor of scores_hat = Q r_s; k_check is
        r_s' r_s / n. It is computed on first read, once for the whole fit.
    """

    __slots__ = ("beta_hat", "sigma_hat", "gamma_hat", "residuals", "scores_hat", "n", "p", "data",
                 "sigma_hat_inv", "_r_s")

    def __init__(self, x, y, data: Dataset | None = None):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if x.ndim < 2 or x.shape[:-1] != y.shape:
            raise DimensionMismatch(f"x of shape {x.shape} needs y of shape {x.shape[:-1]}, got {y.shape}")
        self.n, self.p = x.shape[-2:]
        if self.n < 1 or self.p < 1:
            raise DimensionMismatch("need at least one observation and one covariate")
        xt = x.swapaxes(-1, -2)
        # an item that fails a gate raises below, and an overflow past the gates raises in the
        # variance estimates, so their numpy warnings are dropped
        with np.errstate(over="ignore", invalid="ignore"):
            non_finite = ~(np.isfinite(x).all(axis=(-2, -1)) & np.isfinite(y).all(axis=-1))
            self.sigma_hat = sigma_hat = xt @ x / self.n
            tiny = np.diagonal(sigma_hat, axis1=-2, axis2=-1) < np.finfo(float).tiny
            out_of_range = ~np.isfinite(sigma_hat).all(axis=(-2, -1))
            if tiny.any():
                out_of_range |= (tiny[..., None, :] & (x != 0.0)).any(axis=(-2, -1))
            lower, pivot = linalg._cholesky_spd(sigma_hat)

            def singular(k):
                error = SingularDesign("design second-moment matrix is not positive definite")
                error.__cause__ = linalg._not_positive_definite(int(np.ravel(pivot)[k]), self.p)
                return error

            linalg._raise_first(
                (non_finite, NonFiniteValue("design or response contains non-finite entries")),
                (out_of_range, NonFiniteValue("design second-moment matrix is outside double range")),
                (pivot >= 0, singular),
            )
            self.gamma_hat = (xt @ y[..., None])[..., 0] / self.n
            self.beta_hat = linalg._apply_factor(lower, self.gamma_hat[..., None])[..., 0]
            l_inv = np.linalg.inv(lower)
            self.sigma_hat_inv = l_inv.swapaxes(-1, -2) @ l_inv
            self.residuals = y - (x @ self.beta_hat[..., None])[..., 0]
            self.scores_hat = x * self.residuals[..., None]
        self.data = data
        self._r_s = None

    @property
    def r_s(self) -> np.ndarray:
        """The scores' factors R_s, by one ``linalg.tsqr_r`` call on first read: no read, no QR."""
        if self._r_s is None:
            self._r_s = linalg.tsqr_r(self.scores_hat)
        return self._r_s


def fit_ols(data: Dataset) -> OlsFit:
    """Fit OLS by solving the empirical normal equations: ``OlsFit(data.x, data.y, data)``.

    Requires sigma_hat to be positive definite (hence n >= p); otherwise
    raises SingularDesign, or NonFiniteValue when x'x overflows or a column
    that is not all zero has a mean square below the smallest normal double,
    where its bits are lost. No rank-deficient fallback is attempted. A stack
    item has the same bits, and a stack the error of its first failing item.
    """
    return OlsFit(data.x, data.y, data)


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

