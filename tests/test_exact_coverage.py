"""Exact finite-n coverage of the normal intervals at the fixed designs.

At ``fixed_x_heteroscedastic`` and ``fixed_x_nonidentical_mean`` the design
u_i = i/n is fixed and the noise is gaussian, so an interval's coverage is an
exact number, not only a Monte Carlo estimate. With X the (n, 2) design, m
and D = diag(sd) the profile's mean and sd, and eps ~ N(0, I_n):

- ``beta_hat_j - beta_n,j = a' eps``, with ``a = D X (X'X)^-1 e_j``: for a
  fixed design ``beta_n = (X'X)^-1 X' m``, so there is no constant term;
- the residuals are ``e = r0 + B eps``, with H the hat matrix,
  ``r0 = (I - H) m`` and ``B = (I - H) D``;
- the squared standard error is ``e' W e``: ``W = diag(c_i^2) / n^2`` with
  ``c_i = (n (X'X)^-1 x_i)_j`` for HC0, and ``W = [(X'X)^-1]_jj / (n - p) I``
  for the classical estimate.

The interval covers exactly when ``Q = z^2 e'We - (a'eps)^2 >= 0``, a
noncentral indefinite quadratic form ``eps'A eps + b'eps + c``, whose law
follows from its characteristic function by the Gil-Pelaez inversion
(Gil-Pelaez 1951; Imhof 1961). The oracle is checked against a brute-force
Monte Carlo of the intervals and against the chi-square law of a projection.
"""

import statistics

import numpy as np
import pytest
from scipy import integrate, stats

from leanreg import Dgp, run_coverage
from leanreg.simlab import _profile

SEED = 20260810  # the acceptance suite's
ALPHA = 0.05
KINDS = ("fixed_x_heteroscedastic", "fixed_x_nonidentical_mean")
METHODS = ("classical_normal", "sandwich_normal")
# fixed before the first run: replications of run_coverage, and the bound in binomial SEs of the exact value
REPS, BOUND_SE = 20_000, 4.0


def exceed_probability(a, b, c, tol: float = 1e-12) -> float:
    """P(eps'A eps + b'eps + c >= 0) for eps ~ N(0, I), by Gil-Pelaez inversion.

    With A = V diag(l) V' and g = V'b, the characteristic function is
    exp(ict) prod_k (1 - 2i l_k t)^-1/2 exp(-g_k^2 t^2 / (2 (1 - 2i l_k t))),
    and P(Q >= 0) = 1/2 + (1/pi) int_0^inf Im phi(t) / t dt. Its modulus is at
    most B(t) = prod_k (1 + 4 l_k^2 t^2)^-1/4, whose log falls at least s(T)
    per unit of log t beyond T, so the integral beyond T is at most
    B(T) / s(T); quad takes it up to the first doubling of T where that is
    below ``tol``, and the whole error must stay below 1e-9. That needs a
    rank of about 8 or more; a coverage form has rank n - 1 or n.
    """
    lam, v = np.linalg.eigh(np.asarray(a, dtype=float))
    scale = np.abs(lam).max()  # the probability does not depend on a positive scale
    lam, g, c = lam / scale, v.T @ np.asarray(b, dtype=float) / scale, c / scale

    def tail_bound(t):  # B(t) / s(t)
        grow = 4.0 * lam * lam * t * t
        return np.exp(-0.25 * np.log1p(grow).sum()) / (0.5 * grow / (1.0 + grow)).sum()

    end = 1.0
    while tail_bound(end) > tol:
        end *= 2.0

    def im_phi_over_t(t):
        d = 1.0 - 2j * lam * t
        return np.exp(1j * c * t - 0.5 * np.log(d).sum() - (g * g * t * t / (2.0 * d)).sum()).imag / t

    value, err = integrate.quad(im_phi_over_t, 0.0, end, limit=2000, epsabs=tol, epsrel=0.0)
    assert (err + tol) / np.pi < 1e-9, err
    return 0.5 + value / np.pi


def design(kind: str, n: int):
    """The fixed design x, and the profile's mean m and sd d at u_i = i/n."""
    u = np.arange(1, n + 1) / n
    mean, sd = _profile(Dgp(kind))
    return np.column_stack([np.ones(n), u]), mean(u), sd(u)


def coverage_form(kind: str, n: int, method: str, j: int, alpha: float = ALPHA):
    """(A, b, c) of the quadratic form that is nonnegative exactly when coordinate j is covered."""
    z = statistics.NormalDist().inv_cdf(1.0 - alpha / 2.0)
    x, m, d = design(kind, n)
    xtx_inv = np.linalg.inv(x.T @ x)
    a = d * (x @ xtx_inv[:, j])
    resid = np.eye(n) - x @ xtx_inv @ x.T
    r0, bmat = resid @ m, resid * d
    if method == "sandwich_normal":
        w = np.diag((x @ xtx_inv[:, j]) ** 2)
    else:
        w = xtx_inv[j, j] / (n - x.shape[1]) * np.eye(n)
    return z * z * bmat.T @ w @ bmat - np.outer(a, a), 2.0 * z * z * bmat.T @ w @ r0, z * z * r0 @ w @ r0


def exact_coverage(kind: str, n: int, method: str) -> np.ndarray:
    return np.array([exceed_probability(*coverage_form(kind, n, method, j)) for j in (0, 1)])


def brute_force_coverage(n: int, reps: int, seed: int, alpha: float = ALPHA) -> dict:
    """Per kind and method, the share of ``reps`` gaussian draws whose interval covers beta_n.

    Both kinds share the design and the sd profile, so they share the draws:
    y = m + noise. Each draw is fitted by the pseudo-inverse, so its error is
    ``pinv(X) noise`` and its residuals are those of m plus those of the
    noise, and its standard errors are formed from their definitions: the
    classical RSS/(n - p) (X'X)^-1, and the sandwich S^-1 K S^-1 / n with
    S = X'X / n and K = (1/n) sum x_i x_i' e_i^2.
    """
    z = statistics.NormalDist().inv_cdf(1.0 - alpha / 2.0)
    x, _, d = design(KINDS[0], n)
    pinv, s_inv = np.linalg.pinv(x), np.linalg.inv(x.T @ x / n)
    lever = (x @ s_inv) ** 2  # (S^-1 x_i)_j^2, so diag(S^-1 K S^-1) = e^2 @ lever / n
    resid = np.eye(n) - x @ pinv
    hits, size = {(kind, method): np.zeros(2) for kind in KINDS for method in METHODS}, 50_000
    rng = np.random.default_rng(seed)
    for _ in range(reps // size):
        noise = d * rng.standard_normal((size, n))
        err = np.abs(noise @ pinv.T)
        noise_resid = noise @ resid.T
        for kind in KINDS:
            e2 = (noise_resid + resid @ design(kind, n)[1]) ** 2
            se = {
                "sandwich_normal": np.sqrt(e2 @ lever / n**2),
                "classical_normal": np.sqrt(e2.sum(axis=1)[:, None] / (n - 2) * np.diag(s_inv) / n),
            }
            for method in METHODS:
                hits[kind, method] += (err <= z * se[method]).sum(axis=0)
    return {key: h / reps for key, h in hits.items()}


@pytest.mark.parametrize("kind", KINDS)
def test_run_coverage_meets_the_exact_coverage(kind):
    report = run_coverage(Dgp(kind), n=50, replications=REPS, methods=METHODS, alpha=ALPHA, seed=SEED)
    for method in METHODS:
        exact = exact_coverage(kind, 50, method)
        se = np.sqrt(exact * (1.0 - exact) / REPS)
        gap = (np.asarray(report.coverage[method]) - exact) / se
        assert np.all(np.abs(gap) <= BOUND_SE), (method, exact, report.coverage[method], gap)


def test_exact_coverage_matches_the_recorded_values():
    # exact, so not Monte Carlo noise: at n=50 the HC0 interval under-covers on both coordinates
    np.testing.assert_allclose(exact_coverage("fixed_x_heteroscedastic", 50, "sandwich_normal"),
                               [0.9429, 0.9250], atol=5e-5)
    np.testing.assert_allclose(exact_coverage("fixed_x_nonidentical_mean", 50, "sandwich_normal"),
                               [0.9466, 0.9275], atol=5e-5)


def test_oracle_matches_a_brute_force_monte_carlo():
    reps = 400_000
    brute = brute_force_coverage(50, reps, seed=1)
    for (kind, method), share in brute.items():
        exact = exact_coverage(kind, 50, method)
        se = np.sqrt(exact * (1.0 - exact) / reps)
        assert np.all(np.abs(share - exact) <= 4.0 * se), (kind, method, exact, share)


@pytest.mark.parametrize("k", [8, 12, 16])
@pytest.mark.parametrize("q", [0.3, 2.0, 7.5, 20.0])
def test_oracle_matches_the_chi_square_law_of_a_projection(k, q):
    # Q = eps'P eps - q with P a rank-k projection: P(Q >= 0) is chi-square(k)'s survival at q
    basis, _ = np.linalg.qr(np.random.default_rng(k).standard_normal((16, k)))
    assert exceed_probability(basis @ basis.T, np.zeros(16), -q) == pytest.approx(stats.chi2.sf(q, k), abs=1e-9)
