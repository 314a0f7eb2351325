import numpy as np
import pytest

from leanreg import (
    Dgp,
    DimensionMismatch,
    NotPositiveDefinite,
    det_inequality_check,
    fit_ols,
    influence_remainder,
    population_score_means,
    population_targets,
    sample,
)


def random_spd(rng, p):
    g = rng.standard_normal((p, p))
    return g.T @ g + 0.1 * np.eye(p)


def perturbed_instance(rng, p, frac):
    """A (sigma_hat, gamma_hat, sigma, gamma) tuple with d2n = frac * lambda/2."""
    sigma = random_spd(rng, p)
    gamma = rng.standard_normal(p)
    lam = np.linalg.eigvalsh(sigma)[0]
    e = rng.standard_normal((p, p))
    e = (e + e.T) / 2.0
    e *= frac * (lam / 2.0) / np.linalg.norm(e, 2)
    gamma_hat = gamma + 0.3 * rng.standard_normal(p)
    return sigma + e, gamma_hat, sigma, gamma


class TestDetInequalityCheck:
    def test_zero_perturbation(self):
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        gamma = np.array([1.0, -1.0])
        rep = det_inequality_check(sigma, gamma, sigma, gamma)
        assert rep.d2n == 0.0
        assert rep.precondition_holds
        assert rep.err_norm <= 1e-14
        assert rep.remainder_norm <= 1e-14
        assert rep.sandwich_ok and rep.remainder_ok

    def test_gamma_only_perturbation_has_zero_remainder(self):
        # with sigma_hat = sigma the linearization is exact and the sandwich
        # is tight at factor one
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        gamma = np.array([1.0, -1.0])
        gamma_hat = gamma + np.array([0.2, -0.4])
        rep = det_inequality_check(sigma, gamma_hat, sigma, gamma)
        assert rep.d2n == 0.0
        assert rep.remainder_norm <= 1e-12
        assert rep.err_norm == pytest.approx(rep.lin_term_norm, rel=1e-10)
        assert rep.sandwich_ok and rep.remainder_ok

    def test_fuzz_inequalities_never_fail(self):
        rng = np.random.default_rng(20260101)
        for i in range(1000):
            p = int(rng.choice([2, 5, 10]))
            rep = det_inequality_check(*perturbed_instance(rng, p, float(rng.random())))
            assert rep.precondition_holds
            assert rep.sandwich_ok, f"sandwich inequality failed at case {i}"
            assert rep.remainder_ok, f"remainder inequality failed at case {i}"

    def test_sharpness_near_boundary(self):
        # perturbations just inside the precondition keep the error within
        # the two-sided factor-2 window
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = int(rng.choice([2, 5]))
            frac = float(rng.uniform(0.98, 1.0))
            rep = det_inequality_check(*perturbed_instance(rng, p, frac))
            assert rep.precondition_holds
            ratio = rep.err_norm / rep.lin_term_norm
            assert 0.5 - 1e-9 <= ratio <= 2.0 + 1e-9

    def test_rejects_indefinite_population(self):
        with pytest.raises(NotPositiveDefinite):
            det_inequality_check(np.eye(2), [1.0, 1.0], np.diag([1.0, -1.0]), [1.0, 1.0])

    def test_rejects_empty_or_mismatched_moments(self):
        with pytest.raises(DimensionMismatch, match="non-empty"):
            det_inequality_check(np.zeros((0, 0)), [], np.zeros((0, 0)), [])
        with pytest.raises(DimensionMismatch, match="sigma_hat has shape"):
            det_inequality_check(np.eye(1), np.ones(1), np.eye(2), np.ones(2))


class TestInfluenceRemainder:
    def test_exact_when_design_moments_match_population(self):
        # fixed designs have sigma_hat = sigma_n identically, so the linear
        # representation is exact whatever the responses are
        dgp = Dgp("fixed_x_nonidentical_mean")
        n = 60
        pop = population_targets(dgp, n)
        fit = fit_ols(sample(dgp, n, np.random.default_rng(3)))
        rem = influence_remainder(fit, pop.sigma_n_inv, pop.beta_n, pop.score_means)
        assert rem <= 1e-9

    def test_shrinks_at_root_n_rate(self):
        dgp = Dgp("quadratic_mean_iid")

        def median_remainder(n, beta=None, coherent_means=False):
            pop = population_targets(dgp, n)
            beta = pop.beta_n if beta is None else np.asarray(beta, dtype=float)
            means = population_score_means(dgp, n, beta) if coherent_means else None
            vals = []
            for r in range(60):
                fit = fit_ols(sample(dgp, n, np.random.default_rng((42, n, r))))
                vals.append(influence_remainder(fit, pop.sigma_n_inv, beta, means))
            return float(np.median(vals))

        m1, m4 = median_remainder(1000), median_remainder(4000)
        assert m4 <= 0.6 * m1

        # negative control: a wrong target with its own (coherent) score
        # means makes the remainder grow like sqrt(n)
        wrong = population_targets(dgp, 1000).beta_n + 0.5
        w1 = median_remainder(1000, beta=wrong, coherent_means=True)
        w4 = median_remainder(4000, beta=wrong, coherent_means=True)
        assert w4 >= 1.5 * w1

    def test_centering_shift_consistency(self):
        # shifting every score-mean row by c is the same as subtracting c
        # from every raw score row inside the formula
        dgp = Dgp("quadratic_mean_iid")
        n = 200
        pop = population_targets(dgp, n)
        fit = fit_ols(sample(dgp, n, np.random.default_rng(9)))
        c = np.array([0.7, -1.3])
        shifted = pop.score_means + c
        got = influence_remainder(fit, pop.sigma_n_inv, pop.beta_n, shifted)

        from leanreg import scores_at

        raw = scores_at(fit.data, pop.beta_n) - pop.score_means - c
        lin = np.linalg.solve(pop.sigma_n, raw.sum(axis=0) / np.sqrt(n))
        expected = np.linalg.norm(np.sqrt(n) * (fit.beta_hat - pop.beta_n) - lin)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_shape_validation(self):
        dgp = Dgp("quadratic_mean_iid")
        fit = fit_ols(sample(dgp, 50, np.random.default_rng(1)))
        pop = population_targets(dgp, 50)
        with pytest.raises(DimensionMismatch):
            influence_remainder(fit, pop.sigma_n_inv, pop.beta_n, np.zeros((49, 2)))
