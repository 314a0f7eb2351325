"""Score bootstrap confidence regions, and why gaussian weights are special.

Multiplying the estimated scores by iid mean-zero variance-one weights gives
bootstrap replicates of the score statistic without ever refitting. With
gaussian weights the conditional law of each replicate is exactly normal
with covariance k_check, so the studentized quadratic form is exactly
chi-square: the demo verifies that, then builds both region shapes.
"""

import numpy as np
from scipy import stats

from leanreg import (
    Dgp,
    fit_ols,
    region_ellipsoid,
    region_rectangle,
    run_bootstrap,
    sample,
    sandwich_avar,
)

n, b = 400, 10_000
data = sample(Dgp("heteroscedastic_iid"), n, np.random.default_rng(2))
fit = fit_ols(data)

draws = run_bootstrap(fit, b=b, dist="gaussian", seed=7)
var = sandwich_avar(fit)
kmat = var.meat  # the sandwich's meat is k_check
quad = np.einsum("bi,ib->b", draws.draws_t, np.linalg.solve(kmat, draws.draws_t.T))
ks = stats.kstest(quad, "chi2", args=(fit.p,)).statistic
print(f"KS distance of t' k_check^-1 t to chi2({fit.p}) over {b} draws: {ks:.4f}")
print(f"(the conditional law is exact for gaussian weights; compare 0.95 quantile "
      f"{np.quantile(quad, 0.95):.3f} vs chi2 {stats.chi2.ppf(0.95, fit.p):.3f})")
print()

# both regions take the sandwich estimate: the rectangle studentizes with its
# standard errors, the ellipsoid reuses its meat k_check
rect = region_rectangle(fit, draws, var, alpha=0.05)
ellip = region_ellipsoid(fit, draws, var, alpha=0.05)
print("95% simultaneous rectangle:")
for j in range(fit.p):
    lo = rect.center[j] - rect.half_widths[j]
    hi = rect.center[j] + rect.half_widths[j]
    print(f"  beta[{j}] in [{lo:+.4f}, {hi:+.4f}]")
print(f"95% ellipsoid radius: {ellip.radius:.3f}")
print()

# the m-of-n resampling bootstrap targets the same conditional covariance
res_draws = run_bootstrap(fit, b=b, m=fit.n, seed=8)
cov_multiplier = np.cov(draws.draws_t.T, bias=True)
cov_resample = np.cov(res_draws.draws_t.T, bias=True)
rel = np.linalg.norm(cov_resample - kmat, 2) / np.linalg.norm(kmat, 2)
print("conditional covariance of the draws vs k_check (operator-norm rel. error)")
print(f"  multiplier: {np.linalg.norm(cov_multiplier - kmat, 2) / np.linalg.norm(kmat, 2):.3f}")
print(f"  resampling: {rel:.3f}")

# rademacher weights (bounded, kurtosis 1) as the lighter-tailed alternative
rad = run_bootstrap(fit, b=b, dist="rademacher", seed=9)
print(f"  rademacher: {np.linalg.norm(np.cov(rad.draws_t.T, bias=True) - kmat, 2) / np.linalg.norm(kmat, 2):.3f}")
