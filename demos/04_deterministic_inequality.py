"""The deterministic inequality behind all of the asymptotics.

Whenever the sampled second-moment matrix sits within lambda_min/2 of its
population counterpart in operator norm, the estimation error is provably
sandwiched between half and twice the linearization term, and the
linearization remainder is provably second order. No randomness or model is
involved; this demo fuzzes the inequality and probes its sharpness near the
boundary of the precondition.
"""

import numpy as np

from leanreg import Dgp, det_inequality_check, fit_ols, population_targets, sample


def random_instance(rng, p, frac):
    g = rng.standard_normal((p, p))
    sigma = g.T @ g + 0.1 * np.eye(p)
    gamma = rng.standard_normal(p)
    lam = np.linalg.eigvalsh(sigma)[0]
    e = rng.standard_normal((p, p))
    e = (e + e.T) / 2.0
    e *= frac * (lam / 2.0) / np.linalg.norm(e, 2)
    return sigma + e, gamma + 0.3 * rng.standard_normal(p), sigma, gamma


rng = np.random.default_rng(4)
cases = 5000
fracs, instances = {}, {}
for _ in range(cases):
    frac = float(rng.random())
    p = int(rng.choice([2, 5, 10]))
    fracs.setdefault(p, []).append(frac)
    instances.setdefault(p, []).append(random_instance(rng, p, frac))
failures = 0
ratios = []
for p in instances:  # one check on the stack of each p's instances
    rep = det_inequality_check(*(np.stack(arrays) for arrays in zip(*instances[p])))
    failures += int(np.count_nonzero(~(rep.sandwich_ok & rep.remainder_ok)))
    near = (np.array(fracs[p]) > 0.98) & (rep.lin_term_norm > 0)
    ratios += list(rep.err_norm[near] / rep.lin_term_norm[near])

print(f"fuzzed {cases} instances satisfying the precondition: {failures} failures")
print(f"near the boundary, err/linearization stayed in "
      f"[{min(ratios):.3f}, {max(ratios):.3f}] (provable bounds [0.5, 2])")
print()

# on sampled data the check quantifies how good the linearization is
dgp = Dgp("quadratic_mean_iid")
for n in (200, 2000, 20000):
    pop = population_targets(dgp, n)
    fit = fit_ols(sample(dgp, n, np.random.default_rng(100 + n)))
    rep = det_inequality_check(fit.sigma_hat, fit.gamma_hat, pop.sigma_n, pop.gamma_n)
    print(f"n={n:6d}: perturbation/lambda = {rep.d2n / rep.lambda_n:.3f}, "
          f"precondition {'holds' if rep.precondition_holds else 'fails'}, "
          f"error {rep.err_norm:.5f}, remainder {rep.remainder_norm:.6f}")
