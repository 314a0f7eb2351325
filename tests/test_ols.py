import pickle

import numpy as np
import pytest

from leanreg import (
    Dataset,
    DimensionMismatch,
    SingularDesign,
    fit_ols,
    scores_at,
)


@pytest.fixture
def tiny():
    return Dataset(x=[[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]], y=[0.0, 1.0, 4.0])


class TestDataset:
    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Dataset(x=[[1.0], [2.0]], y=[1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Dataset(x=[[1.0], [np.nan]], y=[1.0, 2.0])


class TestFitOls:
    def test_hand_solved_normal_equations(self, tiny):
        # oracle: X'X beta = X'y solved by Cramer's rule
        xtx = tiny.x.T @ tiny.x
        xty = tiny.x.T @ tiny.y
        det = xtx[0, 0] * xtx[1, 1] - xtx[0, 1] ** 2
        expected = np.array(
            [
                (xty[0] * xtx[1, 1] - xtx[0, 1] * xty[1]) / det,
                (xtx[0, 0] * xty[1] - xty[0] * xtx[1, 0]) / det,
            ]
        )
        np.testing.assert_allclose(expected, [-1.0 / 3.0, 2.0])
        fit = fit_ols(tiny)
        np.testing.assert_allclose(fit.beta_hat, expected, atol=1e-12)
        np.testing.assert_allclose(fit.residuals, [1.0 / 3.0, -2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_fit_invariants(self, tiny):
        fit = fit_ols(tiny)
        # normal equations hold
        np.testing.assert_allclose(fit.sigma_hat @ fit.beta_hat, fit.gamma_hat, rtol=1e-8)
        # estimated scores sum to zero
        assert np.abs(fit.scores_hat.sum(axis=0)).max() <= 1e-8 * (
            fit.n * np.abs(fit.scores_hat).max()
        )
        # sigma_hat is symmetric PSD
        np.testing.assert_array_equal(fit.sigma_hat, fit.sigma_hat.T)
        assert np.linalg.eigvalsh(fit.sigma_hat)[0] > 0

    def test_beta_is_a_loss_minimizer(self, tiny):
        fit = fit_ols(tiny)

        def loss(beta):
            r = tiny.y - tiny.x @ beta
            return r @ r / tiny.n

        base = loss(fit.beta_hat)
        for j in range(tiny.p):
            for sign in (-1.0, 1.0):
                bumped = fit.beta_hat.copy()
                bumped[j] += sign * 1e-4
                assert loss(bumped) >= base - 1e-15

    def test_perfect_linear_fit(self):
        rng = np.random.default_rng(0)
        x = np.column_stack([np.ones(20), rng.random(20)])
        beta = np.array([2.0, -1.0])
        fit = fit_ols(Dataset(x=x, y=x @ beta))
        np.testing.assert_allclose(fit.beta_hat, beta, atol=1e-12)
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-12)

    def test_square_interpolation(self):
        x = np.array([[1.0, 2.0], [3.0, -1.0]])
        y = np.array([1.0, 5.0])
        fit = fit_ols(Dataset(x=x, y=y))
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-10)
        np.testing.assert_allclose(fit.beta_hat, np.linalg.solve(x, y), atol=1e-10)

    def test_singular_design(self):
        with pytest.raises(SingularDesign):
            fit_ols(Dataset(x=[[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]], y=[1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("rhs_shape", [(3,), (3, 4)])
    def test_solver_matches_dense_solve_oracle(self, rhs_shape):
        # oracle: LAPACK's general LU solve on the same sigma_hat
        rng = np.random.default_rng(6)
        x = np.column_stack([np.ones(40), rng.random((40, 2))])
        fit = fit_ols(Dataset(x=x, y=rng.standard_normal(40)))
        b = rng.standard_normal(rhs_shape)
        np.testing.assert_allclose(
            fit.solve(b), np.linalg.solve(fit.sigma_hat, b), rtol=1e-12, atol=1e-12
        )
        with pytest.raises(DimensionMismatch):
            fit.solve(np.ones(4))

    def test_fit_pickles_with_its_solver(self, tiny):
        fit = fit_ols(tiny)
        copy = pickle.loads(pickle.dumps(fit))
        np.testing.assert_array_equal(copy.solve(np.eye(2)), fit.solve(np.eye(2)))

    def test_affine_equivariance(self, tiny):
        rng = np.random.default_rng(4)
        fit = fit_ols(tiny)
        for _ in range(20):
            c = rng.standard_normal(2)
            shifted = fit_ols(Dataset(x=tiny.x, y=tiny.y + tiny.x @ c))
            np.testing.assert_allclose(
                shifted.beta_hat, fit.beta_hat + c, rtol=1e-10, atol=1e-12
            )

    def test_scale_equivariance(self, tiny):
        fit = fit_ols(tiny)
        scaled = fit_ols(Dataset(x=tiny.x, y=3.5 * tiny.y))
        np.testing.assert_allclose(scaled.beta_hat, 3.5 * fit.beta_hat, rtol=1e-12)
        np.testing.assert_allclose(scaled.residuals, 3.5 * fit.residuals, rtol=1e-12)


class TestScoresAt:
    def test_at_fit_matches_scores_hat_and_sums_to_zero(self, tiny):
        fit = fit_ols(tiny)
        s = scores_at(tiny, fit.beta_hat)
        np.testing.assert_array_equal(s, fit.scores_hat)
        np.testing.assert_allclose(s.sum(axis=0), 0.0, atol=1e-12)

    def test_at_zero_is_xy(self, tiny):
        np.testing.assert_array_equal(scores_at(tiny, [0.0, 0.0]), tiny.x * tiny.y[:, None])

    def test_rowwise_arithmetic_oracle(self, tiny):
        beta = np.array([0.0, 1.0])
        # oracle: direct per-row arithmetic x_i (y_i - x_i . beta)
        expected = np.array([tiny.x[i] * (tiny.y[i] - tiny.x[i] @ beta) for i in range(3)])
        np.testing.assert_array_equal(expected, [[0.0, 0.0], [0.0, 0.0], [2.0, 4.0]])
        np.testing.assert_array_equal(scores_at(tiny, beta), expected)

    def test_dimension_mismatch(self, tiny):
        with pytest.raises(DimensionMismatch):
            scores_at(tiny, [1.0, 2.0, 3.0])

