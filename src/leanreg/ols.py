"""Ordinary least squares in two-average form.

The estimator is computed literally as the solution of the empirical normal
equations sigma_hat @ beta = gamma_hat, where sigma_hat and gamma_hat are the
averages (1/n) sum x_i x_i' and (1/n) sum x_i y_i. Keeping these two moment
statistics explicit is what the rest of the library (variance estimation,
score bootstrap, diagnostics) builds on.

``OlsFit`` holds one fit or a stack of them over leading axes, with each
item's gates; ``fit_ols`` is the one-dataset case.

No intercept is ever added implicitly; callers who want one prepend a ones
column themselves (the CLI offers a flag for this).
"""

from __future__ import annotations

import functools
from collections.abc import Callable
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
    The two gates, x'x outside double range and ``linalg._cholesky_spd``'s
    pivot of sigma_hat, are kept per item: a failing item holds placeholder
    values. Indexing, ``fit[i]``, ``fit[:]`` or ``fit[()]``, returns the
    selected items, or raises the error of the first selected item, in stack
    order, that fails a gate. The functions that take a fit take an indexed
    one, with any leading axes, and raise for its first failing item.

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
    solve : b -> sigma_hat^-1 b through the one factorization of sigma_hat;
        the variance estimates and the bootstrap draws reuse it.
    r_s : (..., p, p) triangular factor of scores_hat = Q r_s; k_check is
        r_s' r_s / n. It is computed on first read, once for a whole stack,
        whose indexed items read theirs from it.
    """

    __slots__ = (
        "beta_hat", "sigma_hat", "gamma_hat", "residuals", "scores_hat", "n", "p", "data",
        "_lower", "_out_of_range", "_pivot", "_r_s", "_source",
    )

    def __init__(self, x, y, data: Dataset | None = None):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if x.ndim < 2 or x.shape[:-1] != y.shape:
            raise DimensionMismatch(f"x of shape {x.shape} needs y of shape {x.shape[:-1]}, got {y.shape}")
        self.n, self.p = x.shape[-2:]
        xt = x.swapaxes(-1, -2)
        # an item that fails a gate carries placeholder values on, so its numpy warnings are dropped
        with np.errstate(over="ignore", invalid="ignore"):
            self.sigma_hat = sigma_hat = xt @ x / self.n
            tiny = np.diagonal(sigma_hat, axis1=-2, axis2=-1) < np.finfo(float).tiny
            self._out_of_range = ~np.isfinite(sigma_hat).all(axis=(-2, -1))
            if tiny.any():
                self._out_of_range |= (tiny[..., None, :] & (x != 0.0)).any(axis=(-2, -1))
            self.gamma_hat = (xt @ y[..., None])[..., 0] / self.n
            self._lower, self._pivot = linalg._cholesky_spd(sigma_hat)
            self.beta_hat = linalg._apply_factor(self._lower, self.gamma_hat[..., None])[..., 0]
            self.residuals = y - (x @ self.beta_hat[..., None])[..., 0]
            self.scores_hat = x * self.residuals[..., None]
        self.data = data
        self._r_s = self._source = None

    def __getitem__(self, index) -> OlsFit:
        """The selected items, with every array computed so far; or the first failing item's error."""
        pivot = self._pivot[index]

        def singular(k):
            error = SingularDesign("design second-moment matrix is not positive definite")
            error.__cause__ = linalg._not_positive_definite(int(np.ravel(pivot)[k]), self.p)
            return error

        linalg._raise_first(
            (self._out_of_range[index], NonFiniteValue("design second-moment matrix is outside double range")),
            (pivot >= 0, singular),
        )
        fit = object.__new__(OlsFit)
        for name in ("beta_hat", "sigma_hat", "gamma_hat", "residuals", "scores_hat", "_lower",
                     "_out_of_range", "_pivot"):
            setattr(fit, name, getattr(self, name)[index])
        fit.n, fit.p, fit.data = self.n, self.p, self.data
        if self.beta_hat.ndim > 1:
            # a stack's scores are factored by one call on the whole stack, whichever item reads first
            fit._r_s, fit._source = None, (self, index)
        else:
            fit._r_s, fit._source = self._r_s, None
        return fit

    @property
    def solve(self) -> Callable[[np.ndarray], np.ndarray]:
        """b -> sigma_hat^-1 b: b (p,) or (p, k) for one item, (..., p, k) over a stack."""
        # a partial of a module function, unlike a closure, pickles with the fit
        return functools.partial(linalg._apply_factor, self._lower)

    @property
    def r_s(self) -> np.ndarray:
        """The scores' factors R_s, by one ``linalg.tsqr_r`` call on first read: no read, no QR.

        Items indexed from a stack read theirs from the stack's, so no item is factored twice.
        """
        if self._r_s is None:
            if self._source is None:
                self._r_s = linalg.tsqr_r(self.scores_hat)
            else:
                stack, index = self._source
                self._r_s = stack.r_s[index]
        return self._r_s


def fit_ols(data: Dataset) -> OlsFit:
    """Fit OLS by solving the empirical normal equations: ``OlsFit(data.x, data.y, data)[()]``.

    Requires sigma_hat to be positive definite (hence n >= p); otherwise
    raises SingularDesign, or NonFiniteValue when x'x overflows or a column
    that is not all zero has a mean square below the smallest normal double,
    where its bits are lost. No rank-deficient fallback is attempted. A stack
    item has the same bits and errors, from the same indexing.
    """
    return OlsFit(data.x, data.y, data)[()]


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

