import warnings

import numpy as np
import pytest

import leanreg
from leanreg import (
    Dataset,
    DegenerateDof,
    Dgp,
    NonFiniteValue,
    OlsFit,
    classical_avar,
    fit_ols,
    hc1_avar,
    k_check,
    region_ellipsoid,
    run_bootstrap,
    sample,
    sandwich_avar,
)
from leanreg.variance import residual_variance


@pytest.fixture
def tiny_fit():
    return fit_ols(Dataset(x=[[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]], y=[0.0, 1.0, 4.0]))


def perfect_fit():
    x = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 3.0]])
    return fit_ols(Dataset(x=x, y=x @ np.array([1.0, 2.0])))


class TestKCheck:
    def test_zero_for_perfect_fit(self):
        np.testing.assert_allclose(k_check(perfect_fit()), 0.0, atol=1e-20)

    def test_rank_one_sum_oracle(self, tiny_fit):
        # oracle: hand sum of the three rank-one terms x_i x_i' e_i^2
        e2 = np.array([1.0 / 9.0, 4.0 / 9.0, 1.0 / 9.0])
        expected = sum(
            np.outer(tiny_fit.data.x[i], tiny_fit.data.x[i]) * e2[i] for i in range(3)
        ) / 3.0
        np.testing.assert_allclose(
            expected, [[2.0 / 9.0, 2.0 / 9.0], [2.0 / 9.0, 8.0 / 27.0]], atol=1e-15
        )
        np.testing.assert_allclose(k_check(tiny_fit), expected, atol=1e-14)

    def test_single_observation(self):
        fit = fit_ols(Dataset(x=[[2.0]], y=[3.0]))
        np.testing.assert_allclose(k_check(fit), 0.0, atol=1e-25)

    def test_matches_score_crossproduct(self):
        # dual route: k_check must equal scores_hat' scores_hat / n to 1e-12 relative
        dgp = Dgp("heteroscedastic_iid")
        for seed in range(5):
            fit = fit_ols(sample(dgp, 150, np.random.default_rng(seed)))
            via_scores = fit.scores_hat.T @ fit.scores_hat / fit.n
            np.testing.assert_allclose(k_check(fit), via_scores, rtol=1e-12)


class TestSandwichAvar:
    def test_zero_for_perfect_fit(self):
        est = sandwich_avar(perfect_fit())
        np.testing.assert_allclose(est.avar, 0.0, atol=1e-18)
        np.testing.assert_allclose(est.se, 0.0, atol=1e-12)

    def test_hc0_matrix_algebra_oracle(self, tiny_fit):
        # oracle: plain numpy inverse, independent of the cholesky solve path
        inv = np.linalg.inv(tiny_fit.sigma_hat)
        expected = inv @ k_check(tiny_fit) @ inv
        est = sandwich_avar(tiny_fit)
        np.testing.assert_allclose(est.avar, expected, atol=1e-12)
        np.testing.assert_allclose(est.se, np.sqrt(np.diag(expected) / 3.0), atol=1e-12)
        assert est.method == "sandwich_hc0"
        assert est.is_sandwich()

    def test_hc1_is_hc0_times_dof_ratio(self, tiny_fit):
        hc0 = sandwich_avar(tiny_fit)
        hc1 = hc1_avar(tiny_fit, hc0)
        np.testing.assert_allclose(hc1.avar, hc0.avar * 3.0, rtol=1e-14)
        assert hc1.method == "sandwich_hc1"

    def test_hc1_rescales_only_hc0(self, tiny_fit):
        assert "hc1_avar" in leanreg.__all__
        hc1 = hc1_avar(tiny_fit, sandwich_avar(tiny_fit))
        with pytest.raises(ValueError, match="'sandwich_hc0' estimate, got 'classical'"):
            hc1_avar(tiny_fit, classical_avar(tiny_fit))
        with pytest.raises(ValueError, match="'sandwich_hc0' estimate, got 'sandwich_hc1'"):
            hc1_avar(tiny_fit, hc1)

    def test_hc1_degenerate_dof(self):
        fit = fit_ols(Dataset(x=[[1.0, 0.0], [0.0, 1.0]], y=[1.0, 2.0]))
        with pytest.raises(DegenerateDof):
            hc1_avar(fit, sandwich_avar(fit))

    def test_avar_symmetric_psd(self, tiny_fit):
        avar = sandwich_avar(tiny_fit).avar
        np.testing.assert_array_equal(avar, avar.T)
        assert np.linalg.eigvalsh(avar)[0] >= -1e-12

    def test_invariant_under_reordering(self):
        dgp = Dgp("quadratic_mean_iid")
        data = sample(dgp, 80, np.random.default_rng(10))
        perm = np.random.default_rng(11).permutation(80)
        est = sandwich_avar(fit_ols(data))
        est_perm = sandwich_avar(fit_ols(Dataset(x=data.x[perm], y=data.y[perm])))
        np.testing.assert_allclose(est.avar, est_perm.avar, rtol=1e-10)


class TestClassicalAvar:
    def test_zero_for_perfect_fit(self):
        np.testing.assert_allclose(classical_avar(perfect_fit()).avar, 0.0, atol=1e-18)

    def test_hand_arithmetic_oracle(self, tiny_fit):
        # sigma2 = (1/9 + 4/9 + 1/9) / (3 - 2) = 2/3
        sigma2 = 2.0 / 3.0
        expected = sigma2 * np.linalg.inv(tiny_fit.sigma_hat)
        est = classical_avar(tiny_fit)
        np.testing.assert_allclose(est.avar, expected, atol=1e-12)
        assert est.method == "classical"
        assert not est.is_sandwich()

    def test_degenerate_dof(self):
        fit = fit_ols(Dataset(x=[[1.0, 0.0], [0.0, 1.0]], y=[1.0, 2.0]))
        with pytest.raises(DegenerateDof):
            classical_avar(fit)

    def test_residual_sum_of_squares_overflow_is_named(self):
        # y near the top of double range: the squared residuals overflow
        x = np.column_stack([np.ones(4), [1.0, 2.0, 3.0, 4.0]])
        fit = fit_ols(Dataset(x=x, y=[1e200, -3e200, 2e200, 5e199]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match="residual sum of squares is outside double range"):
                residual_variance(fit)

    def test_agrees_with_sandwich_under_homoscedasticity(self):
        # Monte Carlo oracle: correctly specified homoscedastic model at n=5000
        dgp = Dgp("linear_homoscedastic")
        fit = fit_ols(sample(dgp, 5000, np.random.default_rng(123)))
        classical = classical_avar(fit).avar
        sandwich = sandwich_avar(fit).avar
        np.testing.assert_allclose(sandwich, classical, rtol=0.10)


def het_stack(shape, n, p, seed):
    """Heteroscedastic designs (..., n, p) with a ones column, and their responses (..., n)."""
    rng = np.random.default_rng(seed)
    x = np.concatenate([np.ones(shape + (n, 1)), rng.random(shape + (n, p - 1))], axis=-1)
    y = x.sum(axis=-1) + (0.2 + x[..., -1]) * rng.standard_normal(shape + (n,))
    return x, y


class TestSymmetricByConstruction:
    """The sandwich C C' / n and the ellipsoid's D'D equal their transposes bit for bit."""

    @pytest.mark.parametrize("p", [1, 2, 11, 41])
    def test_one_fit(self, p):
        x, y = het_stack((), 5 * p + 20, p, seed=p)
        fit = fit_ols(Dataset(x=x, y=y))
        var = sandwich_avar(fit)
        quad_form = region_ellipsoid(fit, run_bootstrap(fit, b=50, seed=p), var, 0.1).quad_form
        for a in (var.avar, hc1_avar(fit, var).avar, quad_form):
            assert a.tobytes() == a.T.tobytes()

    @pytest.mark.parametrize("p", [1, 2, 11, 41])
    def test_stack(self, p):
        n = 5 * p + 20
        x, y = het_stack((2, 3), n, p, seed=p)
        fits = OlsFit(x, y)  # raises if an item fails a gate
        avar = sandwich_avar(fits).avar
        assert avar.tobytes() == avar.swapaxes(-1, -2).tobytes()
        draws = run_bootstrap(fits, b=50, seed=[p] * 6)
        quad_forms = region_ellipsoid(fits, draws, sandwich_avar(fits), 0.1).quad_form
        assert quad_forms.tobytes() == quad_forms.swapaxes(-1, -2).tobytes()
        for i in np.ndindex(2, 3):
            fit = fit_ols(Dataset(x=x[i], y=y[i]))
            var = sandwich_avar(fit)
            assert var.avar.tobytes() == avar[i].tobytes()
            quad_form = region_ellipsoid(fit, run_bootstrap(fit, b=50, seed=p), var, 0.1).quad_form
            assert quad_form.tobytes() == quad_form.T.tobytes() == quad_forms[i].tobytes()
