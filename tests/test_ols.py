import pickle
from fractions import Fraction

import numpy as np
import pytest

from leanreg import (
    Dataset,
    DimensionMismatch,
    NonFiniteValue,
    OlsFit,
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


def exact_normal_equations(x, y):
    """beta solving x'x beta = x'y for two columns, in exact rational arithmetic on the float data."""
    xf = [[Fraction(v) for v in row] for row in x.tolist()]
    yf = [Fraction(v) for v in y.tolist()]
    s = [[sum(r[i] * r[j] for r in xf) for j in range(2)] for i in range(2)]
    g = [sum(r[i] * v for r, v in zip(xf, yf)) for i in range(2)]
    det = s[0][0] * s[1][1] - s[0][1] * s[1][0]
    return [(g[0] * s[1][1] - s[0][1] * g[1]) / det, (s[0][0] * g[1] - g[0] * s[1][0]) / det]


class TestSingularityGates:
    def test_nearly_collinear_design_raises_at_the_pivot_gate(self):
        # x'x / n is exact here, and numpy factors it with a last pivot of eps on a diagonal of 1
        x = np.array([[1.0, 1.0]] * 3 + [[1.0, 1.0 + 2.0**-25]])
        assert np.linalg.cholesky(x.T @ x / 4)[1, 1] ** 2 == np.finfo(float).eps
        with pytest.raises(SingularDesign) as exc:
            fit_ols(Dataset(x=x, y=[1.0, 2.0, 3.0, 4.0]))
        assert str(exc.value.__cause__) == "Cholesky pivot 1 at or below p * eps times its diagonal entry"

    @pytest.mark.parametrize("k", [20, 30, 60, -20, -30, -60])
    def test_rescaling_a_column_by_a_power_of_two_rescales_only_its_coefficient(self, k):
        rng = np.random.default_rng(9)
        x = np.column_stack([np.ones(50), rng.random((50, 2))])
        y = rng.standard_normal(50)
        base = fit_ols(Dataset(x=x, y=y)).beta_hat
        for j in range(3):
            scaled = x.copy()
            scaled[:, j] *= 2.0**k
            expected = base.copy()
            expected[j] *= 2.0**-k
            assert fit_ols(Dataset(x=scaled, y=y)).beta_hat.tobytes() == expected.tobytes()

    def test_unix_time_covariate_fits_the_exact_normal_equations(self):
        # the time column's mean square is about 3e18 times the intercept's
        rng = np.random.default_rng(8)
        t = 1.7e9 + rng.uniform(0.0, 3.2e7, 200).round()
        x = np.column_stack([np.ones(200), t])
        y = 3.0 + 2e-7 * (t - 1.7e9) + rng.standard_normal(200)
        beta = fit_ols(Dataset(x=x, y=y)).beta_hat
        for got, want in zip(beta.tolist(), exact_normal_equations(x, y)):
            assert abs(Fraction(got) - want) <= 1e-9 * abs(want)

    def test_offset_design_still_raises(self):
        # 1 - R^2 of the offset column on the intercept is about 1e-17, below 2 eps
        u = np.random.default_rng(3).uniform(size=1000)
        x = np.column_stack([np.ones(1000), 1e8 + u])
        with pytest.raises(SingularDesign):
            fit_ols(Dataset(x=x, y=2.0 * u))

    @pytest.mark.parametrize("scale", [1e-158, 1e-160, 1e-161, 1e-200])
    def test_subnormal_second_moment_raises(self, scale):
        # the slope came back up to 1.3e-3 relative off, silently, before this gate
        x = np.array([[1.0], [2.0], [3.0], [4.0]]) * scale
        with pytest.raises(NonFiniteValue, match="design second-moment matrix is outside double range"):
            fit_ols(Dataset(x=x, y=[1.0, 3.0, 2.0, 7.0]))

    def test_normal_second_moment_near_the_floor_fits(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]]) * 1e-150
        beta = fit_ols(Dataset(x=x, y=[1.0, 3.0, 2.0, 7.0])).beta_hat[0]
        assert beta == pytest.approx(41.0 / 30.0 * 1e150, rel=1e-14)

    def test_all_zero_column_stays_singular(self):
        x = np.column_stack([np.ones(4), np.zeros(4)])
        with pytest.raises(SingularDesign):
            fit_ols(Dataset(x=x, y=[1.0, 3.0, 2.0, 7.0]))


class TestStackedFit:
    @pytest.fixture
    def stack(self):
        # a clean item, one whose x'x overflows and one with a constant covariate
        rng = np.random.default_rng(4)
        x = np.column_stack([np.ones(20), rng.random(20)])
        xs = np.stack([x, x * 1e200, np.column_stack([np.ones(20), np.full(20, 0.5)])])
        ys = rng.standard_normal((3, 20))
        return OlsFit(xs, ys), [Dataset(x=x, y=y) for x, y in zip(xs, ys)]

    @pytest.mark.parametrize("index, i, error", [
        (1, 1, NonFiniteValue), (2, 2, SingularDesign), (slice(None), 1, NonFiniteValue),
        (slice(2, None), 2, SingularDesign), (slice(None, None, -1), 2, SingularDesign),
    ])
    def test_indexing_raises_what_fit_ols_raises_for_the_first_failing_item(self, stack, index, i, error):
        fits, datasets = stack
        with pytest.raises(error) as alone:
            fit_ols(datasets[i])
        with pytest.raises(error) as stacked:
            fits[index]
        assert type(stacked.value) is type(alone.value)
        assert str(stacked.value) == str(alone.value)
        assert repr(stacked.value.__cause__) == repr(alone.value.__cause__)

    @pytest.mark.parametrize("index", [0, slice(0, 1)])
    def test_a_clean_item_has_the_bits_of_fit_ols(self, stack, index):
        fits, datasets = stack
        stacked, alone = fits[index], fit_ols(datasets[0])
        for name in ("beta_hat", "sigma_hat", "gamma_hat", "residuals", "scores_hat", "r_s"):
            assert getattr(stacked, name).tobytes() == getattr(alone, name).tobytes(), name
        assert (stacked.n, stacked.p) == (alone.n, alone.p)
        assert stacked.data is None and alone.data is datasets[0]
        b = np.array([1.0, -2.0])[:, None]
        assert stacked.solve(b if index == 0 else b[None]).tobytes() == alone.solve(b).tobytes()

    def test_items_read_the_stacks_one_factor_of_the_scores(self, stack):
        fits, _ = stack
        item = fits[0]
        assert np.shares_memory(item.r_s, fits.r_s)
        assert fits[0:1][0].r_s.tobytes() == item.r_s.tobytes()

    def test_shapes_must_agree(self):
        with pytest.raises(DimensionMismatch):
            OlsFit(np.ones((2, 5, 2)), np.ones((2, 4)))


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

