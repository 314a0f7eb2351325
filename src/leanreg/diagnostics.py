"""Structural checks: a deterministic solver inequality and the linear
representation of the estimation error.

Both checks need the population moment pair (sigma, gamma), so they are exact
only where populations are known; the simulation lab supplies them and the
``check`` CLI subcommand wires the two together for a named scenario.

The deterministic inequality: whenever the design perturbation
d = ||sigma_hat - sigma||_op is at most half of lambda = lambda_min(sigma),
the estimation error err = beta_hat - beta is sandwiched by the linearization
term lin = sigma^-1 (gamma_hat - sigma_hat @ beta),

    ||lin|| / 2  <=  ||err||  <=  2 ||lin||,
    ||err - lin||  <=  2 d ||lin|| / lambda,

with no stochastic assumptions whatsoever. Verifying a true inequality in
floating point needs slack; comparisons here allow 1e-9 * (1 + magnitudes)
and anything beyond that is a hard failure, not noise. The check takes one
moment pair or a stack of them over leading axes, factors each sigma through
the fit's gated Cholesky path (``linalg._cholesky_spd``) and raises the error
of the first item, in C order, that fails a gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import DimensionMismatch, NonFiniteValue, NotSymmetric
from .ols import OlsFit, scores_at

#: relative slack absorbing float error when checking true inequalities
INEQ_SLACK = 1e-9
#: relative symmetry gate: |a - a'| must not exceed SYM_RTOL * max|a|; asymmetry is rejected, not symmetrized
SYM_RTOL = 1e-10


@dataclass(frozen=True)
class DetCheckReport:
    """Outcome of the deterministic-inequality check on one moment pair, or on a stack of them.

    One pair's fields are Python floats and bools; a stack's are arrays over
    its axes. If ``precondition_holds`` then both ``sandwich_ok`` and
    ``remainder_ok`` must be true; a false value there is a bug, not bad luck.
    """

    lambda_n: float
    d2n: float
    precondition_holds: bool
    err_norm: float
    lin_term_norm: float
    remainder_norm: float
    sandwich_ok: bool
    remainder_ok: bool


def _leq_with_slack(lhs, rhs):
    return lhs <= rhs + INEQ_SLACK * (1.0 + abs(lhs) + abs(rhs))


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of columns (..., p, 1), as np.linalg.norm takes one vector's: sqrt of a BLAS dot."""
    return np.sqrt((v.swapaxes(-1, -2) @ v)[..., 0, 0])


def det_inequality_check(sigma_hat, gamma_hat, sigma_pop, gamma_pop) -> DetCheckReport:
    """Evaluate the deterministic sandwich and remainder inequalities, on one moment pair or a stack.

    The sigmas are (..., p, p) and the gammas (..., p); a single pair may give
    its gammas in any shape of p entries. Solves both normal-equation systems,
    so both sigmas must be symmetric positive definite, of one shape; raw
    pairs, not a fit and its targets, let it check pairs no fit produced.
    Each item gets the LAPACK and BLAS calls, and so the bits, it gets alone,
    and a stack raises the error of its first item, in C order, that fails a
    gate. A single pair's report holds Python floats and bools, a stack's
    arrays over the stack axes.
    """
    sigma_hat = np.asarray(sigma_hat, dtype=float)
    sigma_pop = np.asarray(sigma_pop, dtype=float)
    shape = sigma_hat.shape
    if shape != sigma_pop.shape:
        raise DimensionMismatch(f"sigma_hat has shape {shape} but sigma_pop {sigma_pop.shape}")
    if len(shape) < 2 or shape[-2] != shape[-1] or not sigma_hat.size:
        raise DimensionMismatch(f"a must be square and non-empty, got shape {shape}")
    stack, p = shape[:-2], shape[-1]
    gamma_hat, gamma_pop = (np.asarray(g, dtype=float) for g in (gamma_hat, gamma_pop))
    if not stack:
        gamma_hat, gamma_pop = gamma_hat.ravel(), gamma_pop.ravel()
    for g in (gamma_hat, gamma_pop):
        if g.shape != shape[:-1]:
            got = f"leading dimension {g.shape[-1]}" if g.shape[:-1] == stack else f"shape {g.shape}"
            raise DimensionMismatch(f"b has {got}, expected {p}")

    gates, factors = [], []
    # an item that fails a gate raises below, so its numpy warnings are dropped
    with np.errstate(over="ignore", invalid="ignore"):
        for a in (sigma_hat, sigma_pop):
            scale = np.abs(a).max(axis=(-2, -1))
            asymmetric = np.abs(a - a.swapaxes(-1, -2)).max(axis=(-2, -1)) > SYM_RTOL * scale
            lower, pivot = linalg._cholesky_spd(a)
            factors.append(lower)
            gates += [
                (~np.isfinite(a).all(axis=(-2, -1)), NonFiniteValue("a contains non-finite entries")),
                (asymmetric, NotSymmetric(f"a is not symmetric within {SYM_RTOL:g} relative")),
                (pivot >= 0, lambda k, pivot=pivot: linalg._not_positive_definite(int(np.ravel(pivot)[k]), p)),
            ]
        delta = sigma_hat - sigma_pop
        overflow = ~np.isfinite(delta).all(axis=(-2, -1))
    gates.append((overflow, NonFiniteValue("matrix contains non-finite entries")))
    linalg._raise_first(*gates)

    lower_hat, lower_pop = factors
    beta_hat = linalg._apply_factor(lower_hat, gamma_hat[..., None])
    beta_pop = linalg._apply_factor(lower_pop, gamma_pop[..., None])
    lin = linalg._apply_factor(lower_pop, gamma_hat[..., None] - sigma_hat @ beta_pop)
    lam = np.linalg.eigvalsh(sigma_pop)[..., 0]
    d2n = np.linalg.norm(delta, 2, axis=(-2, -1))
    err = beta_hat - beta_pop
    err_norm, lin_norm, rem_norm = _norm(err), _norm(lin), _norm(err - lin)
    fields = dict(
        lambda_n=lam,
        d2n=d2n,
        precondition_holds=d2n <= lam / 2.0,
        err_norm=err_norm,
        lin_term_norm=lin_norm,
        remainder_norm=rem_norm,
        sandwich_ok=_leq_with_slack(0.5 * lin_norm, err_norm) & _leq_with_slack(err_norm, 2.0 * lin_norm),
        remainder_ok=_leq_with_slack(rem_norm, 2.0 * d2n * lin_norm / lam),
    )
    return DetCheckReport(**{k: v if stack else v.item() for k, v in fields.items()})


def influence_remainder(fit: OlsFit, sigma_inv_pop, beta_pop, score_means=None) -> float:
    """Norm of the remainder in the linear representation of the error.

    Returns

        || sqrt(n)(beta_hat - beta) - n^{-1/2} sum_i sigma^-1 (s_i - mu_i) ||

    where s_i = x_i (y_i - x_i' beta) are the raw scores at ``beta_pop`` and
    mu_i are their expectations (``score_means`` rows); ``sigma_inv_pop`` is
    the matrix sigma^-1, as ``PopulationTargets.sigma_n_inv``. Pass None for the
    iid / random-covariate convention mu_i = 0; fixed-design scenarios have
    nonzero rows whose average vanishes. Any efficient regular estimator of
    the moment-defined target must make this remainder vanish in probability;
    least squares does, at the sqrt(n) rate.
    """
    beta_pop = np.asarray(beta_pop, dtype=float).ravel()
    raw = scores_at(fit.data, beta_pop)
    if score_means is not None:
        score_means = np.asarray(score_means, dtype=float)
        if score_means.shape != raw.shape:
            raise DimensionMismatch(
                f"score_means has shape {score_means.shape}, expected {raw.shape}"
            )
        raw = raw - score_means
    lin = sigma_inv_pop @ (raw.sum(axis=0) / np.sqrt(fit.n))
    left = np.sqrt(fit.n) * (fit.beta_hat - beta_pop)
    return float(np.linalg.norm(left - lin))
