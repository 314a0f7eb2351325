"""Fit a misspecified regression and compare classical vs sandwich errors.

The data have a curved conditional mean, so the linear fit is a projection:
it still estimates a well-defined target (the population least squares
coefficients), but the classical homoscedastic standard errors are computed
under assumptions the data do not satisfy. The sandwich standard errors stay
valid for the projection target.
"""

import numpy as np

from leanreg import (
    Dgp,
    classical_avar,
    fit_ols,
    hc1_avar,
    population_targets,
    sample,
    sandwich_avar,
    t_test,
)

n = 2000
dgp = Dgp("quadratic_mean_iid")  # y = u^2 + 0.1 eps, fitted by a line
pop = population_targets(dgp, n)
data = sample(dgp, n, np.random.default_rng(1))
fit = fit_ols(data)

print("population target      :", np.round(pop.beta_n, 4), "(intercept, slope)")
print("fitted coefficients    :", np.round(fit.beta_hat, 4))
print()

classical = classical_avar(fit)
sandwich = sandwich_avar(fit)
print("per-coordinate standard errors")
print("  classical (lm-style) :", np.round(classical.se, 5))
print("  sandwich HC0         :", np.round(sandwich.se, 5))
print("  sandwich HC1         :", np.round(hc1_avar(fit, sandwich).se, 5))
print()

# the population asymptotic sd per coordinate, for reference
true_se = np.sqrt(np.diag(pop.av_n) / n)
print("  true asymptotic      :", np.round(true_se, 5))
print()

# conservative tests of the true target values: these should not reject
for j in range(fit.p):
    res = t_test(fit, sandwich, j, float(pop.beta_n[j]))
    print(f"t-test beta[{j}] = {pop.beta_n[j]:+.4f}: statistic {res.statistic:+.3f}, "
          f"p = {res.p_value:.3f} (reference {res.reference})")
