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
and anything beyond that is a hard failure, not noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import DimensionMismatch
from .ols import OlsFit, scores_at

#: relative slack absorbing float error when checking true inequalities
INEQ_SLACK = 1e-9


@dataclass(frozen=True)
class DetCheckReport:
    """Outcome of the deterministic-inequality check on one moment pair.

    If ``precondition_holds`` then both ``sandwich_ok`` and ``remainder_ok``
    must be true; a false value there is a bug, not bad luck.
    """

    lambda_n: float
    d2n: float
    precondition_holds: bool
    err_norm: float
    lin_term_norm: float
    remainder_norm: float
    sandwich_ok: bool
    remainder_ok: bool


def _leq_with_slack(lhs: float, rhs: float) -> bool:
    return lhs <= rhs + INEQ_SLACK * (1.0 + abs(lhs) + abs(rhs))


def det_inequality_check(sigma_hat, gamma_hat, sigma_pop, gamma_pop) -> DetCheckReport:
    """Evaluate the deterministic sandwich and remainder inequalities.

    Solves both normal-equation systems, so both sigmas must be SPD, of one
    shape; raw pairs, not a fit and its targets, let it check pairs no fit produced.
    """
    sigma_hat = np.asarray(sigma_hat, dtype=float)
    sigma_pop = np.asarray(sigma_pop, dtype=float)
    if sigma_hat.shape != sigma_pop.shape:
        raise DimensionMismatch(f"sigma_hat has shape {sigma_hat.shape} but sigma_pop {sigma_pop.shape}")
    gamma_hat = np.asarray(gamma_hat, dtype=float).ravel()
    gamma_pop = np.asarray(gamma_pop, dtype=float).ravel()

    beta_hat = linalg.spd_solver(sigma_hat)(gamma_hat)
    solve_pop = linalg.spd_solver(sigma_pop)
    beta_pop = solve_pop(gamma_pop)
    lam, _ = linalg.eig_sym_extremes(sigma_pop)
    d2n = linalg.op_norm(sigma_hat - sigma_pop)

    lin = solve_pop(gamma_hat - sigma_hat @ beta_pop)
    err = beta_hat - beta_pop
    err_norm = float(np.linalg.norm(err))
    lin_norm = float(np.linalg.norm(lin))
    rem_norm = float(np.linalg.norm(err - lin))

    sandwich_ok = _leq_with_slack(0.5 * lin_norm, err_norm) and _leq_with_slack(
        err_norm, 2.0 * lin_norm
    )
    remainder_ok = _leq_with_slack(rem_norm, 2.0 * d2n * lin_norm / lam)
    return DetCheckReport(
        lambda_n=lam,
        d2n=d2n,
        precondition_holds=d2n <= lam / 2.0,
        err_norm=err_norm,
        lin_term_norm=lin_norm,
        remainder_norm=rem_norm,
        sandwich_ok=sandwich_ok,
        remainder_ok=remainder_ok,
    )


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
