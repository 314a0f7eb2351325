"""Convergence rates: the moving target, the meat matrix, the influence term.

Three root-n phenomena on the curved-mean scenario: the estimator approaches
its projection target at rate n^(-1/2); the conservative meat matrix
approaches its estimable limit at the same rate; and the remainder of the
efficient linear representation shrinks at that rate too, while a wrong
target (paired with its own score means) makes the remainder blow up, which
is what gives the check its power.
"""

import numpy as np

from leanreg import (
    Dgp,
    fit_ols,
    influence_remainder,
    k_check,
    population_score_means,
    population_targets,
    run_consistency,
    sample,
)

dgp = Dgp("quadratic_mean_iid")
grid = [500, 1000, 2000, 4000]

rep = run_consistency(dgp, grid, replications=150, seed=21)
print("median ||beta_hat - beta_n|| per n:")
for n, m in zip(grid, rep["median_error"]):
    print(f"  n={n:5d}: {m:.5f}")
print(f"fitted log-log slope: {rep['loglog_slope']:.3f} (root-n is -0.5)")
print()


def medians(n, reps, stat):
    return float(np.median([stat(n, r) for r in range(reps)]))


def meat_error(n, r):
    fit = fit_ols(sample(dgp, n, np.random.default_rng((77, n, r))))
    return np.linalg.norm(k_check(fit) - population_targets(dgp, n).k_n_star, 2)


m1, m4 = medians(1000, 100, meat_error), medians(4000, 100, meat_error)
print(f"median ||k_check - k*||_op: n=1000 {m1:.4f}, n=4000 {m4:.4f} (ratio {m4 / m1:.2f})")
print()

beta_true = population_targets(dgp, 1000).beta_n
beta_wrong = beta_true + 0.5


def remainder(n, r, beta, means):
    fit = fit_ols(sample(dgp, n, np.random.default_rng((78, n, r))))
    return influence_remainder(fit, population_targets(dgp, n).sigma_n_inv, beta, means)


print("influence-representation remainder (median over 100 replications):")
for n in (1000, 4000):
    good = medians(n, 100, lambda nn, r: remainder(nn, r, beta_true, None))
    bad = medians(
        n, 100, lambda nn, r: remainder(nn, r, beta_wrong, population_score_means(dgp, nn, beta_wrong))
    )
    print(f"  n={n:5d}: correct target {good:.4f}, wrong target {bad:.2f}")
