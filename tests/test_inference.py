import dataclasses
import math
from statistics import NormalDist

import numpy as np
import pytest
from scipy import stats

from leanreg import (
    BadCoordinate,
    Dataset,
    DegenerateDof,
    DimensionMismatch,
    Dgp,
    OlsFit,
    ZeroVariance,
    classical_avar,
    fit_ols,
    hc1_avar,
    max_t_test,
    region_ellipsoid,
    region_rectangle,
    run_bootstrap,
    sample,
    sandwich_avar,
    t_test,
)


@pytest.fixture(scope="module")
def het():
    fit = fit_ols(sample(Dgp("heteroscedastic_iid"), 120, np.random.default_rng(31)))
    return fit, sandwich_avar(fit)


class TestTTest:
    def test_statistic_zero_gives_p_one(self, het):
        fit, var = het
        res = t_test(fit, var, 0, float(fit.beta_hat[0]))
        assert res.statistic == 0.0
        assert res.p_value == pytest.approx(1.0)
        assert res.conservative

    def test_normal_cdf_oracle(self, het):
        fit, var = het
        # pick the null value so the statistic is exactly 1.959964
        target_stat = 1.959964
        j = 1
        beta0 = fit.beta_hat[j] - target_stat * np.sqrt(var.avar[j, j] / fit.n)
        res = t_test(fit, var, j, float(beta0))
        assert res.statistic == pytest.approx(target_stat, rel=1e-9)
        # oracle: scipy's normal tail, within the stdlib tail's stated accuracy
        assert res.p_value == pytest.approx(2.0 * stats.norm.sf(abs(res.statistic)), rel=1e-13)
        assert res.p_value == pytest.approx(0.05, abs=1e-4)

    def test_student_t_cdf_oracle(self, het):
        fit, var = het
        res = t_test(fit, var, 1, 0.9, "student_t")
        assert res.df == fit.n - fit.p
        assert res.p_value == 2.0 * stats.t.sf(abs(res.statistic), res.df)

    def test_student_t_never_less_conservative(self, het):
        fit, var = het
        for beta0 in (0.0, 0.5, 2.0):
            p_norm = t_test(fit, var, 1, beta0, "std_normal").p_value
            p_t = t_test(fit, var, 1, beta0, "student_t").p_value
            assert p_t >= p_norm

    def test_p_value_monotone_in_statistic(self, het):
        fit, var = het
        stats_grid = np.linspace(0.0, 4.0, 15)
        p_vals = []
        for s in stats_grid:
            beta0 = fit.beta_hat[1] - s * np.sqrt(var.avar[1, 1] / fit.n)
            p_vals.append(t_test(fit, var, 1, float(beta0)).p_value)
        assert all(a >= b - 1e-15 for a, b in zip(p_vals, p_vals[1:]))

    def test_studentization_cancels_column_scale(self):
        data = sample(Dgp("heteroscedastic_iid"), 90, np.random.default_rng(12))
        fit = fit_ols(data)
        res = t_test(fit, sandwich_avar(fit), 1, 0.4)
        s = 37.0
        x_scaled = data.x.copy()
        x_scaled[:, 1] *= s
        fit_s = fit_ols(Dataset(x=x_scaled, y=data.y))
        res_s = t_test(fit_s, sandwich_avar(fit_s), 1, 0.4 / s)
        assert res_s.statistic == pytest.approx(res.statistic, rel=1e-10)

    def test_bootstrap_reference_bounds(self, het):
        fit, var = het
        draws = run_bootstrap(fit, b=199, seed=7)
        res = t_test(fit, var, 0, 0.0, "bootstrap", draws=draws)
        assert 1.0 / 200.0 <= res.p_value <= 1.0
        assert res.b == 199

    def test_bootstrap_explicit_sum_oracle(self, het):
        fit, var = het
        draws = run_bootstrap(fit, b=199, seed=7)
        j, beta0 = 1, 0.9
        res = t_test(fit, var, j, beta0, "bootstrap", draws=draws)
        d = np.sqrt(np.diag(var.avar))
        ref = [abs(u[j]) / d[j] for u in draws.draws_u]
        t_abs = abs(np.sqrt(fit.n) * (fit.beta_hat[j] - beta0) / d[j])
        assert res.p_value == (1 + sum(r >= t_abs for r in ref)) / (draws.b + 1)
        assert 1.0 / 200.0 < res.p_value < 1.0

    def test_bad_coordinate(self, het):
        fit, var = het
        with pytest.raises(BadCoordinate):
            t_test(fit, var, 5, 0.0)

    def test_zero_variance(self):
        x = np.column_stack([np.ones(8), np.arange(8.0)])
        fit = fit_ols(Dataset(x=x, y=x @ np.array([1.0, 2.0])))
        with pytest.raises(ZeroVariance):
            t_test(fit, sandwich_avar(fit), 0, 0.0)

    def test_classical_variance_not_flagged_conservative(self, het):
        fit, _ = het
        res = t_test(fit, classical_avar(fit), 0, 0.0)
        assert not res.conservative

    def test_normal_tail_grid(self, het):
        # the stdlib tail 0.5 * erfc(t / sqrt(2)) against scipy's ndtr over t in [0, 10];
        # against a 200-bit mpmath reference each errs by up to about 110 ulps on this range
        fit, var = het
        j = 1
        scale = np.sqrt(var.avar[j, j] / fit.n)
        for target in np.linspace(0.0, 10.0, 101):
            res = t_test(fit, var, j, float(fit.beta_hat[j] - target * scale))
            expected = 2.0 * stats.norm.sf(abs(res.statistic))
            assert res.p_value == pytest.approx(expected, rel=1e-13), target


class TestMaxTTest:
    def test_exact_null_vector(self, het):
        fit, var = het
        draws = run_bootstrap(fit, b=99, seed=5)
        res = max_t_test(fit, var, fit.beta_hat, "bootstrap", draws=draws)
        assert res.statistic == 0.0
        assert res.p_value == pytest.approx(1.0)

    @pytest.mark.parametrize("reference", ["std_normal", "student_t", "bootstrap"])
    def test_p_equals_one_coordinate_t(self, reference):
        x = np.column_stack([np.linspace(1.0, 2.0, 50)])
        rng = np.random.default_rng(3)
        fit = fit_ols(Dataset(x=x, y=2.0 * x[:, 0] + 0.2 * rng.standard_normal(50)))
        var = sandwich_avar(fit)
        draws = run_bootstrap(fit, b=199, seed=9)
        single = t_test(fit, var, 0, 1.97, reference, draws=draws)
        joint = max_t_test(fit, var, [1.97], reference, draws=draws)
        assert joint.statistic == abs(single.statistic)
        assert joint.p_value == single.p_value
        assert 0.0 < joint.p_value < 1.0

    def test_bootstrap_explicit_sum_oracle(self, het):
        fit, var = het
        draws = run_bootstrap(fit, b=199, seed=7)
        beta0 = fit.beta_hat - 2.0 * var.se * np.array([1.0, -0.5])
        res = max_t_test(fit, var, beta0, "bootstrap", draws=draws)
        d = np.sqrt(np.diag(var.avar))
        ref = [max(abs(u[j]) / d[j] for j in range(fit.p)) for u in draws.draws_u]
        stat = max(abs(np.sqrt(fit.n) * (fit.beta_hat[j] - beta0[j]) / d[j]) for j in range(fit.p))
        assert res.statistic == stat
        assert res.p_value == (1 + sum(r >= stat for r in ref)) / (draws.b + 1)
        assert 1.0 / 200.0 < res.p_value < 1.0

    def test_bootstrap_tie_counts_as_extreme(self, het):
        fit, var = het
        # unit scales make ref_b == |u_b[j]| exactly, so a replicate can tie |t|
        var = dataclasses.replace(var, avar=np.eye(fit.p))
        t = t_test(fit, var, 1, 0.9).statistic
        u = np.zeros((9, fit.p))
        u[0, 1] = t
        draws = dataclasses.replace(run_bootstrap(fit, b=9, seed=7), draws_u=u)
        assert t_test(fit, var, 1, 0.9, "bootstrap", draws=draws).p_value == 2 / 10
        joint = max_t_test(fit, var, [fit.beta_hat[0], 0.9], "bootstrap", draws=draws)
        assert joint.p_value == 2 / 10

    @pytest.mark.parametrize("reference", ["std_normal", "student_t", "bootstrap"])
    def test_non_finite_null_rejected(self, het, reference):
        fit, var = het
        draws = run_bootstrap(fit, b=9, seed=1)
        with pytest.raises(ValueError, match="finite"):
            t_test(fit, var, 0, float("nan"), reference, draws=draws)
        with pytest.raises(ValueError, match="finite"):
            max_t_test(fit, var, [0.0, float("inf")], reference, draws=draws)

    def test_null_of_the_wrong_length_rejected(self, het):
        fit, var = het
        with pytest.raises(DimensionMismatch, match="beta0 has length 3, expected 2"):
            max_t_test(fit, var, [0.0, 0.0, 0.0], "std_normal")

    def test_student_t_needs_n_above_p(self):
        fit = fit_ols(Dataset(x=[[1.0, 0.1], [1.0, 0.7]], y=[0.3, 0.2]))
        # a unit avar keeps the zero-variance gate out of the way; an exact
        # interpolation leaves only rounding residuals
        var = dataclasses.replace(sandwich_avar(fit), avar=np.eye(2))
        with pytest.raises(DegenerateDof, match="n > p"):
            t_test(fit, var, 1, 0.0, "student_t")
        with pytest.raises(DegenerateDof, match="n > p"):
            max_t_test(fit, var, [0.0, 0.0], "student_t")

    def test_bonferroni_normal_reference(self, het):
        fit, var = het
        res = max_t_test(fit, var, [0.0, 0.0], reference="std_normal")
        expected = min(1.0, fit.p * 2.0 * stats.norm.sf(res.statistic))
        assert res.p_value == pytest.approx(expected, rel=1e-13)

    def test_bonferroni_student_t_reference(self, het):
        fit, var = het
        res = max_t_test(fit, var, [0.0, 0.9], reference="student_t")
        assert res.p_value == min(1.0, fit.p * 2.0 * stats.t.sf(res.statistic, fit.n - fit.p))

    def test_bootstrap_p_value_range(self, het):
        fit, var = het
        draws = run_bootstrap(fit, b=499, seed=11)
        res = max_t_test(fit, var, [0.0, 0.0], "bootstrap", draws=draws)
        assert 1.0 / 500.0 <= res.p_value <= 1.0

    def test_requires_draws_for_bootstrap(self, het):
        fit, var = het
        with pytest.raises(ValueError):
            max_t_test(fit, var, [0.0, 0.0], "bootstrap")


class TestRectangleTestDuality:
    """For ceil((1-alpha)(B+1)) <= B, the bootstrap max-|t| test rejects beta0 exactly when
    the studentized bootstrap rectangle on the same draws excludes it."""

    @staticmethod
    def stacked(p, seed, items=6, n=60):
        rng = np.random.default_rng(seed)
        x = np.concatenate([np.ones((items, n, 1)), rng.standard_normal((items, n, p - 1))], axis=-1)
        y = x.sum(axis=-1) + (1.0 + np.abs(x[..., -1])) * rng.standard_normal((items, n))
        fit = OlsFit(x, y)
        return fit, sandwich_avar(fit)

    @pytest.mark.parametrize("dist", ["gaussian", "rademacher"])
    def test_one_decision_on_both_sides_of_the_edge(self, dist):
        for alpha, b, p in [(a, b, p) for a in (0.05, 0.1, 0.2) for b in (19, 99, 500) for p in (1, 3, 11)]:
            assert math.ceil((1.0 - alpha) * (b + 1)) <= b
            fit, var = self.stacked(p, (b, p))
            draws = run_bootstrap(fit, b=b, dist=dist, seed=[(b, p, i) for i in range(6)])
            region = region_rectangle(fit, draws, var, alpha)
            signs = np.where(np.random.default_rng((b, p, 1)).random(p) < 0.5, -1.0, 1.0)
            seen = set()
            # item i's edge, along every coordinate and along its first one alone, read by every item
            for i in range(6):
                for f in (0.5, 1.0 - 1e-6, 1.0 + 1e-6, 2.0):
                    for step in (signs, np.eye(p)[0]):
                        beta0 = region.center[i] - f * step * region.half_widths[i]
                        rejects = max_t_test(fit, var, beta0, "bootstrap", draws=draws).p_value <= alpha
                        excluded = ~region.contains(beta0)
                        assert (rejects == excluded).all(), (dist, alpha, b, p, i, f)
                        seen.update(excluded.tolist())
            assert seen == {False, True}

    @pytest.mark.parametrize("dist", ["gaussian", "rademacher"])
    def test_too_few_draws_clamp_the_rectangle_and_the_test_never_rejects(self, dist):
        # B=9 at alpha=0.05: rank 10 > B, so the rectangle takes the largest draw, and every
        # p-value is at least 1/(B+1) = 0.1 > alpha
        fit, var = self.stacked(3, 9)
        draws = run_bootstrap(fit, b=9, dist=dist, seed=[(9, i) for i in range(6)])
        region = region_rectangle(fit, draws, var, 0.05)
        d = np.sqrt(np.diagonal(var.avar, axis1=-2, axis2=-1))
        largest = (np.abs(draws.draws_u) / d[:, None, :]).max(axis=(-2, -1))
        assert (region.half_widths == largest[:, None] * d / math.sqrt(fit.n)).all()
        for i in range(6):
            for f in (0.5, 2.0, 100.0):
                beta0 = region.center[i] - f * region.half_widths[i]
                p_value = max_t_test(fit, var, beta0, "bootstrap", draws=draws).p_value
                assert (p_value >= 1 / 10).all() and not (p_value <= 0.05).any()
                assert region.contains(beta0)[i] == (f < 1.0)


class TestHc1Rescale:
    def test_hc1_moves_only_normal_references(self, het):
        # HC1 is HC0 times the scalar n / (n - p): the studentized bootstrap
        # statistics and references scale together, the normal tail does not
        fit, hc0 = het
        hc1 = hc1_avar(fit, hc0)
        draws = run_bootstrap(fit, b=499, seed=12)
        rect0, rect1 = (region_rectangle(fit, draws, v, 0.05) for v in (hc0, hc1))
        np.testing.assert_allclose(rect1.half_widths, rect0.half_widths, rtol=1e-14, atol=0.0)
        ell0, ell1 = (region_ellipsoid(fit, draws, v, 0.05) for v in (hc0, hc1))
        assert ell1.radius == ell0.radius
        np.testing.assert_array_equal(ell1.quad_form, ell0.quad_form)
        null = fit.beta_hat - 1.5 * hc0.se
        boot = [
            (t_test(fit, v, 1, float(null[1]), "bootstrap", draws).p_value,
             max_t_test(fit, v, null, "bootstrap", draws).p_value)
            for v in (hc0, hc1)
        ]
        assert boot[0] == boot[1]
        assert all(0.01 < p < 0.9 for p in boot[0])
        normal = [
            (t_test(fit, v, 1, float(null[1])).p_value, max_t_test(fit, v, null, "std_normal").p_value)
            for v in (hc0, hc1)
        ]
        assert normal[0][0] != normal[1][0] and normal[0][1] != normal[1][1]


class TestNullSize:
    @pytest.mark.parametrize(
        "kind", ["quadratic_mean_iid", "heteroscedastic_iid", "fixed_x_nonidentical_mean"]
    )
    def test_type_i_error_bounded_across_scenarios(self, kind):
        # conservative contract: rejection under the true null never exceeds
        # alpha + 2 sqrt(alpha (1 - alpha) / R)
        from leanreg import Dgp, population_targets, sample

        alpha, n, reps = 0.05, 500, 400
        dgp = Dgp(kind)
        beta_n = population_targets(dgp, n).beta_n
        rejections = 0
        for r in range(reps):
            fit = fit_ols(sample(dgp, n, np.random.default_rng((600, r))))
            var = sandwich_avar(fit)
            p_vals = [t_test(fit, var, j, float(beta_n[j])).p_value for j in range(fit.p)]
            rejections += sum(p <= alpha for p in p_vals)
        rate = rejections / (reps * 2)
        assert rate <= alpha + 2.0 * np.sqrt(alpha * (1 - alpha) / reps)


def test_normal_quantile_grid():
    # run_coverage takes z from the stdlib's AS241 quantile; scipy's ndtri is the oracle
    q = np.concatenate([np.linspace(0.5, 0.999, 500), 1.0 - np.logspace(-3.0, -15.0, 200)])
    z = np.array([NormalDist().inv_cdf(v) for v in q])
    ref = stats.norm.ppf(q)
    assert np.all(np.abs(z - ref) <= 8.0 * np.spacing(np.abs(ref)))
