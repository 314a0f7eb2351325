import numpy as np
import pytest
from scipy import stats

from leanreg import (
    Dataset,
    Dgp,
    DimensionMismatch,
    NotPositiveDefinite,
    ZeroVariance,
    fit_ols,
    gen_weights,
    k_check,
    multiplier_draw,
    region_ellipsoid,
    region_rectangle,
    resample_draw,
    run_bootstrap,
    sample,
    sandwich_avar,
    subseed,
)


@pytest.fixture(scope="module")
def het_fit():
    return fit_ols(sample(Dgp("heteroscedastic_iid"), 100, np.random.default_rng(8)))


@pytest.fixture
def tiny_fit():
    return fit_ols(Dataset(x=[[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]], y=[0.0, 1.0, 4.0]))


def perfect_fit():
    # y = 0 keeps the solve and the residuals exactly zero in floating point
    x = np.column_stack([np.ones(10), np.arange(10.0)])
    return fit_ols(Dataset(x=x, y=np.zeros(10)))


class TestGenWeights:
    def test_rademacher_support(self):
        w = gen_weights("rademacher", 500, 1)
        assert set(np.unique(w)) == {-1.0, 1.0}

    def test_gaussian_law_of_large_numbers(self):
        n = 100_000
        w = gen_weights("gaussian", n, 2)
        assert abs(w.mean()) <= 4.0 / np.sqrt(n)
        assert abs(w.var() - 1.0) <= 0.05

    def test_deterministic_given_seed(self):
        for dist in ("gaussian", "rademacher"):
            np.testing.assert_array_equal(
                gen_weights(dist, 50, 99), gen_weights(dist, 50, 99)
            )

    def test_unknown_dist(self):
        with pytest.raises(ValueError):
            gen_weights("mammen", 10, 0)


class TestMultiplierDraw:
    def test_constant_weights_vanish(self, tiny_fit):
        # scores sum to zero, so constant weights contribute nothing
        np.testing.assert_allclose(
            multiplier_draw(tiny_fit, np.full(3, 2.5)), 0.0, atol=1e-14
        )

    def test_indicator_picks_one_score(self, tiny_fit):
        got = multiplier_draw(tiny_fit, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(got, tiny_fit.scores_hat[0] / np.sqrt(3.0), atol=1e-14)

    def test_hand_sum_oracle(self, tiny_fit):
        # oracle: hand sum of the score rows with weights (1, -1, 1):
        # (1/3, 0) - (-2/3, -2/3) + (1/3, 2/3) = (4/3, 4/3)
        got = multiplier_draw(tiny_fit, [1.0, -1.0, 1.0])
        np.testing.assert_allclose(got, np.array([4.0 / 3.0, 4.0 / 3.0]) / np.sqrt(3.0), atol=1e-14)

    def test_weight_shift_invariance(self, het_fit):
        # rademacher weights vs the same weights plus 2: identical statistic
        w = gen_weights("rademacher", het_fit.n, 5)
        t1 = multiplier_draw(het_fit, w)
        t2 = multiplier_draw(het_fit, w + 2.0)
        assert np.abs(t1 - t2).max() <= 1e-10

    def test_dimension_mismatch(self, tiny_fit):
        with pytest.raises(DimensionMismatch):
            multiplier_draw(tiny_fit, [1.0, 2.0])


class TestResampleDraw:
    def test_single_zero_score(self):
        fit = fit_ols(Dataset(x=[[2.0]], y=[5.0]))
        for seed in range(5):
            np.testing.assert_allclose(
                resample_draw(fit, 7, np.random.default_rng(seed)), 0.0, atol=1e-14
            )

    def test_conditional_mean_and_covariance(self, het_fit):
        b = 10_000
        rng = np.random.default_rng(17)
        draws = np.stack([resample_draw(het_fit, het_fit.n, rng) for _ in range(b)])
        kmat = k_check(het_fit)
        scale = np.sqrt(np.diag(kmat))
        assert np.all(np.abs(draws.mean(axis=0)) <= 4.0 * scale / np.sqrt(b))
        cov = np.cov(draws.T, bias=True)
        knorm = np.linalg.norm(kmat, 2)
        assert np.linalg.norm(cov - kmat, 2) <= 0.05 * knorm


class TestRunBootstrap:
    def test_b1_reproduces_multiplier_draw_with_subseed(self, het_fit):
        draws = run_bootstrap(het_fit, "multiplier", b=1, dist="gaussian", seed=77)
        w = gen_weights("gaussian", het_fit.n, np.random.default_rng(subseed(77, 0)))
        np.testing.assert_array_equal(draws.draws_t[0], multiplier_draw(het_fit, w))

    def test_gaussian_conditional_covariance_is_k_check(self, het_fit):
        draws = run_bootstrap(het_fit, b=10_000, seed=6)
        kmat = k_check(het_fit)
        cov = np.cov(draws.draws_t.T, bias=True)
        assert np.linalg.norm(cov - kmat, 2) <= 0.05 * np.linalg.norm(kmat, 2)
        # empirical mean of gaussian draws shrinks like 1/sqrt(B)
        assert np.all(
            np.abs(draws.draws_t.mean(axis=0)) <= 4.0 * np.sqrt(np.diag(kmat)) / np.sqrt(draws.b)
        )

    def test_gaussian_quadratic_form_is_chi2(self, het_fit):
        # conditional on the data, t' k_check^-1 t is exactly chi-square(p)
        draws = run_bootstrap(het_fit, b=10_000, seed=13)
        kmat = k_check(het_fit)
        q = np.einsum("bi,ib->b", draws.draws_t, np.linalg.solve(kmat, draws.draws_t.T))
        assert stats.kstest(q, "chi2", args=(het_fit.p,)).statistic < 0.02

    def test_gaussian_per_coordinate_normality(self, het_fit):
        draws = run_bootstrap(het_fit, b=10_000, seed=14)
        kmat = k_check(het_fit)
        for j in range(het_fit.p):
            z = draws.draws_t[:, j] / np.sqrt(kmat[j, j])
            assert stats.kstest(z, "norm").statistic < 0.02

    def test_draws_u_solves_sigma(self, het_fit):
        draws = run_bootstrap(het_fit, b=50, seed=3)
        back = draws.draws_u @ het_fit.sigma_hat.T
        assert np.abs(back - draws.draws_t).max() <= 1e-10

    def test_resample_method_defaults_m_to_n(self, het_fit):
        draws = run_bootstrap(het_fit, "resample_m_of_n", b=16, seed=4)
        assert draws.m == het_fit.n
        assert run_bootstrap(het_fit, "multiplier", b=4, seed=4).m is None

    def test_resample_replicates_match_resample_draw(self, het_fit):
        draws = run_bootstrap(het_fit, "resample_m_of_n", b=3, m=40, seed=9)
        for i in range(3):
            expected = resample_draw(het_fit, 40, np.random.default_rng(subseed(9, i)))
            np.testing.assert_array_equal(draws.draws_t[i], expected)


class TestRegionRectangle:
    def test_low_alpha_clamps_to_widest_draw(self, het_fit):
        draws = run_bootstrap(het_fit, b=100, seed=1)
        var = sandwich_avar(het_fit)
        region = region_rectangle(het_fit, draws, var, alpha=1e-4)
        d = np.sqrt(np.diag(var.avar))
        widest = np.abs(draws.draws_u / d).max(axis=1).max()
        np.testing.assert_allclose(region.half_widths, widest * d / np.sqrt(het_fit.n), rtol=1e-12)

    def test_univariate_critical_value_matches_normal_quantile(self):
        x = np.column_stack([np.linspace(0.5, 2.0, 60)])
        rng = np.random.default_rng(44)
        fit = fit_ols(Dataset(x=x, y=x[:, 0] + 0.3 * rng.standard_normal(60)))
        draws = run_bootstrap(fit, b=20_000, seed=15)
        var = sandwich_avar(fit)
        region = region_rectangle(fit, draws, var, alpha=0.05)
        crit = region.half_widths[0] / var.se[0]
        assert crit == pytest.approx(stats.norm.ppf(0.975), abs=0.05)

    def test_zero_variance_on_perfect_fit(self):
        fit = perfect_fit()
        draws = run_bootstrap(fit, b=20, seed=0)
        with pytest.raises(ZeroVariance):
            region_rectangle(fit, draws, sandwich_avar(fit), alpha=0.05)

    def test_requires_sandwich_variance(self, het_fit):
        from leanreg import classical_avar

        draws = run_bootstrap(het_fit, b=20, seed=0)
        with pytest.raises(ValueError):
            region_rectangle(het_fit, draws, classical_avar(het_fit), alpha=0.05)

    def test_contains_center(self, het_fit):
        draws = run_bootstrap(het_fit, b=200, seed=2)
        region = region_rectangle(het_fit, draws, sandwich_avar(het_fit), alpha=0.1)
        assert region.contains(het_fit.beta_hat)
        assert region.level == 0.9
        assert np.all(region.half_widths >= 0)


class TestRegionEllipsoid:
    def test_radius_matches_chi2_quantile(self, het_fit):
        draws = run_bootstrap(het_fit, b=10_000, seed=21)
        region = region_ellipsoid(het_fit, draws, alpha=0.05)
        assert region.radius == pytest.approx(stats.chi2.ppf(0.95, 2), rel=0.05)

    def test_contains_center(self, het_fit):
        draws = run_bootstrap(het_fit, b=100, seed=22)
        region = region_ellipsoid(het_fit, draws, alpha=0.05)
        assert region.contains(het_fit.beta_hat)
        assert region.radius >= 0

    def test_radius_monotone_in_level(self, het_fit):
        draws = run_bootstrap(het_fit, b=500, seed=23)
        radii = [region_ellipsoid(het_fit, draws, alpha).radius for alpha in (0.2, 0.1, 0.05)]
        assert radii[0] <= radii[1] <= radii[2]

    def test_quad_form_is_sandwich_inverse(self, het_fit):
        # membership of beta must equal the score statistic falling in the
        # k_check ellipsoid: quad_form = sigma k_check^-1 sigma
        draws = run_bootstrap(het_fit, b=100, seed=24)
        region = region_ellipsoid(het_fit, draws, alpha=0.05)
        expected = het_fit.sigma_hat @ np.linalg.solve(k_check(het_fit), het_fit.sigma_hat)
        np.testing.assert_allclose(region.quad_form, expected, rtol=1e-10)

    def test_singular_k_check_raises(self):
        fit = perfect_fit()
        draws = run_bootstrap(fit, b=10, seed=0)
        with pytest.raises(NotPositiveDefinite):
            region_ellipsoid(fit, draws, alpha=0.05)
