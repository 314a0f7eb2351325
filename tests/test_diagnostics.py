import dataclasses

import numpy as np
import pytest

from leanreg import (
    Dgp,
    DimensionMismatch,
    NotPositiveDefinite,
    NotSymmetric,
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


def reports_by_p(cases):
    """One ``det_inequality_check`` call per p over a list of instances: (case indices, report) pairs."""
    by_p = {}
    for i, case in enumerate(cases):
        by_p.setdefault(len(case[1]), []).append(i)
    return [
        (np.array(idx), det_inequality_check(*(np.stack([cases[i][k] for i in idx]) for k in range(4))))
        for idx in by_p.values()
    ]


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
        cases = [perturbed_instance(rng, int(rng.choice([2, 5, 10])), float(rng.random())) for _ in range(1000)]
        for idx, rep in reports_by_p(cases):
            assert rep.precondition_holds.all()
            assert rep.sandwich_ok.all(), f"sandwich inequality failed at cases {idx[~rep.sandwich_ok]}"
            assert rep.remainder_ok.all(), f"remainder inequality failed at cases {idx[~rep.remainder_ok]}"

    def test_sharpness_near_boundary(self):
        # perturbations just inside the precondition keep the error within
        # the two-sided factor-2 window
        rng = np.random.default_rng(7)
        cases = [
            perturbed_instance(rng, int(rng.choice([2, 5])), float(rng.uniform(0.98, 1.0))) for _ in range(200)
        ]
        for _, rep in reports_by_p(cases):
            assert rep.precondition_holds.all()
            ratio = rep.err_norm / rep.lin_term_norm
            assert np.all((0.5 - 1e-9 <= ratio) & (ratio <= 2.0 + 1e-9))

    @pytest.mark.parametrize("p", [1, 2, 5, 21])
    def test_stack_reports_each_item_as_a_single_call_does(self, p):
        rng = np.random.default_rng(p)
        # fracs above 1 break the precondition (below 2 sigma_hat stays SPD); the last pair is unrelated
        cases = [perturbed_instance(rng, p, frac) for frac in (0.0, 0.3, 0.99, 1.5, 1.9)]
        cases.append((random_spd(rng, p), rng.standard_normal(p), random_spd(rng, p), rng.standard_normal(p)))
        stack = [np.stack(arrays).reshape(2, 3, *arrays[0].shape) for arrays in zip(*cases)]
        rep = det_inequality_check(*stack)
        for k, i in enumerate(np.ndindex(2, 3)):
            alone = det_inequality_check(*cases[k])
            for field in dataclasses.fields(alone):
                got, want = getattr(rep, field.name)[i], getattr(alone, field.name)
                assert type(want) is (bool if field.type == "bool" else float)
                assert got.item() == want and got.tobytes() == np.asarray(want, dtype=got.dtype).tobytes()

    def test_stack_raises_for_its_first_failing_item(self):
        sigma, gamma = np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([1.0, -1.0])
        asymmetric = np.array([[2.0, 0.5], [0.4, 1.0]])
        indefinite = np.diag([1.0, -1.0])
        gammas = np.stack([gamma] * 3)
        # the indefinite sigma_pop of item 1 comes before the asymmetric sigma_hat of item 2
        hats, pops = np.stack([sigma, sigma, asymmetric]), np.stack([sigma, indefinite, sigma])
        with pytest.raises(NotPositiveDefinite, match="Cholesky factorization failed"):
            det_inequality_check(hats, gammas, pops, gammas)
        with pytest.raises(NotSymmetric, match="not symmetric"):
            det_inequality_check(hats[::-1], gammas, pops[::-1], gammas)
        # within one item, sigma_hat's gates come first, as in a single call
        with pytest.raises(NotSymmetric):
            det_inequality_check(hats[1:], gammas[:2], pops[:2], gammas[:2])
        with pytest.raises(DimensionMismatch, match="b has shape"):
            det_inequality_check(hats, gamma, pops, gammas)

    def test_rejects_indefinite_population(self):
        with pytest.raises(NotPositiveDefinite):
            det_inequality_check(np.eye(2), [1.0, 1.0], np.diag([1.0, -1.0]), [1.0, 1.0])

    def test_rejects_empty_or_mismatched_moments(self):
        with pytest.raises(DimensionMismatch, match="non-empty"):
            det_inequality_check(np.zeros((0, 0)), [], np.zeros((0, 0)), [])
        with pytest.raises(DimensionMismatch, match="sigma_hat has shape"):
            det_inequality_check(np.eye(1), np.ones(1), np.eye(2), np.ones(2))


class TestDetInequalitySpectra:
    """The report's lambda_n, the least eigenvalue of sigma_pop, and d2n, the operator norm of sigma_hat - sigma_pop."""

    G2 = [1.0, -1.0]

    def test_lambda_n_of_a_diagonal_population_is_its_least_entry(self):
        rep = det_inequality_check(np.eye(2), self.G2, np.diag([4.0, 1.0]), self.G2)
        assert rep.lambda_n == 1.0

    def test_identity_population(self):
        rep = det_inequality_check(np.eye(3), np.ones(3), np.eye(3), np.ones(3))
        assert (rep.lambda_n, rep.d2n) == (1.0, 0.0)

    def test_lambda_n_matches_the_2x2_characteristic_polynomial(self):
        sigma = np.array([[2.0, 1.0], [1.0, 2.0]])
        # oracle: the lesser root of (2 - lam)^2 - 1 = 0
        tr, det = 4.0, 3.0
        expected = (tr - np.sqrt(tr**2 - 4 * det)) / 2
        rep = det_inequality_check(np.eye(2), self.G2, sigma, self.G2)
        assert rep.lambda_n == pytest.approx(expected, abs=1e-12)

    def test_one_by_one_moments(self):
        rep = det_inequality_check([[3.0]], [1.0], [[5.0]], [2.0])
        assert (rep.lambda_n, rep.d2n) == (5.0, 2.0)
        assert rep.precondition_holds

    @pytest.mark.parametrize("p", [2, 5, 10])
    def test_lambda_n_bounds_every_rayleigh_quotient_of_a_stack(self, p):
        rng = np.random.default_rng(99 + p)
        pops = np.stack([random_spd(rng, p) for _ in range(20)])
        gammas = rng.standard_normal((20, p))
        rep = det_inequality_check(pops, gammas, pops, gammas)
        assert rep.lambda_n.shape == (20,)
        v = rng.standard_normal((20, 100, p))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        quotients = np.einsum("rkp,rpq,rkq->rk", v, pops, v)
        assert np.all(rep.lambda_n[:, None] <= quotients + 1e-8 * np.abs(quotients))
        # the least eigenvector attains it
        vecs = np.linalg.eigh(pops)[1][..., 0]
        least = np.einsum("rp,rpq,rq->r", vecs, pops, vecs)
        np.testing.assert_allclose(rep.lambda_n, least, rtol=1e-10)

    def test_d2n_is_the_largest_absolute_eigenvalue_of_the_difference(self):
        # sigma_hat - sigma_pop = diag(-3, 2): the negative eigenvalue sets the norm
        rep = det_inequality_check(np.diag([1.0, 6.0]), self.G2, np.diag([4.0, 4.0]), self.G2)
        assert rep.d2n == pytest.approx(3.0, abs=1e-12)
        assert not rep.precondition_holds

    def test_d2n_matches_the_largest_singular_value_over_stack_axes(self):
        rng = np.random.default_rng(5)
        hats = np.stack([random_spd(rng, 4) for _ in range(6)]).reshape(2, 3, 4, 4)
        pops = np.stack([random_spd(rng, 4) for _ in range(6)]).reshape(2, 3, 4, 4)
        gammas = rng.standard_normal((2, 3, 4))
        rep = det_inequality_check(hats, gammas, pops, gammas)
        assert rep.d2n.shape == (2, 3)
        for i in np.ndindex(2, 3):
            top = np.linalg.svd(hats[i] - pops[i], compute_uv=False)[0]
            assert rep.d2n[i] == pytest.approx(top, rel=1e-10)

    def test_precondition_is_inclusive_at_its_boundary(self):
        pop = np.diag([2.0, 4.0])
        at = det_inequality_check(np.diag([3.0, 4.0]), self.G2, pop, self.G2)
        assert (at.d2n, at.lambda_n) == (1.0, 2.0)
        assert at.precondition_holds
        past = det_inequality_check(np.diag([3.0, 5.5]), self.G2, pop, self.G2)
        assert past.d2n == pytest.approx(1.5, abs=1e-12)
        assert not past.precondition_holds

    def test_rejects_an_asymmetric_population(self):
        with pytest.raises(NotSymmetric):
            det_inequality_check(np.eye(2), self.G2, np.array([[1.0, 0.5], [0.0, 1.0]]), self.G2)


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
