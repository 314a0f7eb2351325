import math
import pickle
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from leanreg import (
    Dataset,
    Dgp,
    DimensionMismatch,
    NonFiniteValue,
    NotPositiveDefinite,
    OlsFit,
    ZeroVariance,
    fit_ols,
    k_check,
    linalg,
    region_ellipsoid,
    region_rectangle,
    run_bootstrap,
    sample,
    sandwich_avar,
    spd_solver,
)
from leanreg.bootstrap import studentizer


@pytest.fixture(scope="module")
def het_fit():
    return fit_ols(sample(Dgp("heteroscedastic_iid"), 100, np.random.default_rng(8)))


@pytest.fixture(scope="module")
def tall_fit():
    return fit_ols(sample(Dgp("heteroscedastic_iid"), 40_000, np.random.default_rng(9)))


@pytest.fixture
def tiny_fit():
    return fit_ols(Dataset(x=[[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]], y=[0.0, 1.0, 4.0]))


def perfect_fit():
    # y = 0 keeps the solve and the residuals exactly zero in floating point
    x = np.column_stack([np.ones(10), np.arange(10.0)])
    return fit_ols(Dataset(x=x, y=np.zeros(10)))


def rank_one_scores():
    """(x, y) at n=30: x = (1, u) with row 1 equal to row 0, and y = (1, -1, 0, ...).

    The residuals are y, so the scores are x_0, -x_0 and zeros: a rademacher
    draw is zero exactly when its first two signs agree.
    """
    x = np.column_stack([np.ones(30), np.random.default_rng(0).random(30)])
    x[1] = x[0]
    return x, np.concatenate([[1.0, -1.0], np.zeros(28)])


def packed_signs(rng, k, n):
    """k x n rademacher signs from ceil(k*n/8) bytes, most significant bit first."""
    bits = np.unpackbits(np.frombuffer(rng.bytes(-(-k * n // 8)), np.uint8), count=k * n)
    return bits.reshape(k, n) * 2.0 - 1.0


def normals(b, p, seed):
    """Z, the B x p standard normals of the generator keyed by the seed."""
    return np.random.default_rng(seed).standard_normal((b, p))


class TestMultiplierDraw:
    @pytest.mark.parametrize("dist", ["rademacher"])
    def test_explicit_sum_oracle(self, het_fit, dist):
        draws = run_bootstrap(het_fit, b=300, dist=dist, seed=77)
        w = packed_signs(np.random.default_rng(77), 300, het_fit.n)
        np.testing.assert_allclose(
            draws.draws_t, w @ het_fit.scores_hat / np.sqrt(het_fit.n), rtol=1e-12, atol=1e-14
        )

    @pytest.mark.parametrize("b", [1, 300])
    def test_gaussian_draws_are_normals_times_the_score_qr(self, het_fit, b):
        # n <= 4096 rows are one TSQR block, so R_s is LAPACK's R of the scores themselves
        draws = run_bootstrap(het_fit, b=b, seed=77)
        r_s = np.linalg.qr(het_fit.scores_hat, mode="r")
        np.testing.assert_allclose(draws.draws_t * np.sqrt(het_fit.n), normals(b, 2, 77) @ r_s, rtol=1e-12)

    @pytest.mark.parametrize("dist", ["gaussian", "rademacher"])
    def test_draws_are_c_ordered(self, het_fit, dist):
        # a reduction over the draws, such as the CLI's draws_mean and draws_cov, sums in memory order
        assert run_bootstrap(het_fit, b=300, dist=dist, seed=77).draws_t.flags.c_contiguous

    def test_gaussian_prefix_is_exact(self, het_fit, tall_fit):
        # replicate b is row b of Z times R_s, whatever B is
        for fit in (het_fit, tall_fit):
            short = run_bootstrap(fit, b=10, seed=31)
            long = run_bootstrap(fit, b=1000, seed=31)
            np.testing.assert_array_equal(short.draws_t, long.draws_t[:10])

    def test_rademacher_draws_are_signed_score_sums(self, het_fit):
        draws = run_bootstrap(het_fit, b=50, dist="rademacher", seed=5)
        plus = packed_signs(np.random.default_rng(5), 50, het_fit.n) == 1
        s = het_fit.scores_hat
        expected = np.stack([s[row].sum(axis=0) - s[~row].sum(axis=0) for row in plus])
        np.testing.assert_allclose(draws.draws_t, expected / np.sqrt(het_fit.n), rtol=1e-12, atol=1e-14)

    def test_hand_sum_oracle(self, tiny_fit):
        # oracle: the score rows are (1/3, 0), (-2/3, -2/3), (1/3, 2/3), so each
        # rademacher draw is one of the 8 signed hand sums over sqrt(3)
        rows = np.array([[1.0, 0.0], [-2.0, -2.0], [1.0, 2.0]]) / 3.0
        signs = np.array([[a, b, c] for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)])
        sums = signs @ rows / np.sqrt(3.0)
        draws = run_bootstrap(tiny_fit, b=200, dist="rademacher", seed=12)
        gaps = np.abs(draws.draws_t[:, None, :] - sums[None, :, :]).max(axis=2)
        assert gaps.min(axis=1).max() <= 1e-14
        # the scores sum to zero, so all-plus and all-minus both give 0 and
        # 200 draws hit the 7 distinct sums
        assert len(np.unique(draws.draws_t.round(12), axis=0)) == 7

    @pytest.mark.parametrize(
        "method, dist",
        [("multiplier", "gaussian"), ("multiplier", "rademacher"), ("resample_m_of_n", "gaussian")],
    )
    def test_fewer_replicates_are_a_prefix(self, het_fit, tall_fit, method, dist):
        # the tall fit spans five GEMM calls of observations, and B=70 crosses the
        # 32-row rademacher blocks and the 26-row gaussian and m-of-n blocks;
        # its 40000-term sums get an absolute bound for the draws near zero
        for fit, b, atol in ((het_fit, 1000, 1e-15), (tall_fit, 70, 1e-13)):
            m = fit.n if method == "resample_m_of_n" else None
            short = run_bootstrap(fit, b=10, m=m, dist=dist, seed=31)
            long = run_bootstrap(fit, b=b, m=m, dist=dist, seed=31)
            # same weights; only the product's rounding may depend on the shape
            np.testing.assert_allclose(short.draws_t, long.draws_t[:10], rtol=1e-13, atol=atol)

    @staticmethod
    def tall_fits():
        n = 300_000
        rng = np.random.default_rng(50)
        x = np.column_stack([np.ones(n), rng.uniform(size=n)])
        y = x[:, 1] ** 2 + 0.1 * rng.standard_normal(n)
        return fit_ols(Dataset(x=x, y=y)), fit_ols(Dataset(x=x[:, 1:], y=y))

    @pytest.mark.parametrize("dist", ["rademacher"])
    def test_blocks_match_single_matrix_oracle(self, dist):
        # 3e5 rows put 32 rademacher replicates in a block; the one-covariate
        # fit takes the zero-column path that keeps p = 1 on GEMM
        for fit in self.tall_fits():
            draws = run_bootstrap(fit, b=7, dist=dist, seed=8)
            w = packed_signs(np.random.default_rng(8), 7, fit.n)
            assert draws.draws_t.shape == (7, fit.p)
            np.testing.assert_allclose(
                draws.draws_t, w @ fit.scores_hat / np.sqrt(fit.n), rtol=1e-10, atol=1e-12
            )

    def test_tall_gaussian_draws_match_whole_matrix_qr(self):
        # 3e5 rows take two TSQR passes; R'R = S'S pins R_s up to the signs of its
        # rows, so a whole-matrix QR with its rows' signs matched is an oracle
        for fit in self.tall_fits():
            draws = run_bootstrap(fit, b=7, seed=8)
            r_s = linalg.tsqr_r(fit.scores_hat)
            r = np.linalg.qr(fit.scores_hat, mode="r")
            r *= np.sign(np.diag(r_s) / np.diag(r))[:, None]
            assert draws.draws_t.shape == (7, fit.p)
            np.testing.assert_allclose(
                draws.draws_t, normals(7, fit.p, 8) @ r / np.sqrt(fit.n), rtol=1e-10, atol=1e-12
            )

    def test_rademacher_blocks_are_one_sign_matrix(self):
        # n is odd, so only whole 32-row blocks keep each block's bits on the
        # generator's 32-bit words; B = 25, 33 and 70 end inside the first, just
        # past the first and inside the third block, and each is still the one
        # B x n sign matrix
        n = 100_001
        rng = np.random.default_rng(51)
        x = np.column_stack([np.ones(n), rng.uniform(size=n)])
        fit = fit_ols(Dataset(x=x, y=x[:, 1] ** 2 + 0.1 * rng.standard_normal(n)))
        for b in (25, 33, 70):
            draws = run_bootstrap(fit, b=b, dist="rademacher", seed=8)
            w = packed_signs(np.random.default_rng(8), b, n)
            np.testing.assert_allclose(
                draws.draws_t, w @ fit.scores_hat / np.sqrt(n), rtol=1e-10, atol=1e-12
            )

    def test_rademacher_signs_are_unpacked_one_call_group_at_a_time(self):
        # at n = 2**17 a block is 32 rows: its 4 n packed bytes are drawn at once, but only one
        # 16-row call group's 16 n signs is unpacked at a time, so the peak stays below 32 n
        # bytes, the signs of one whole block, with 1 MiB for the products' own buffers
        n = 131_072
        rng = np.random.default_rng(52)
        x = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        fit = fit_ols(Dataset(x=x, y=x[:, 1] + (1.0 + np.abs(x[:, 2])) * rng.standard_normal(n)))
        tracemalloc.start()
        try:
            run_bootstrap(fit, b=64, dist="rademacher", seed=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * n + 2**20


def test_tall_draws_do_not_depend_on_blas_threads(tmp_path, blas_thread_stdouts):
    # every weighted product is 16-row GEMM calls of at most 2**18 multiply-adds, which
    # OpenBLAS runs on one thread: so at n=2e5, at moderate shapes that one GEMM per block
    # would thread, and at p=1, which would go to GEMV or DOT without its zero column.
    # Gaussian draws are 4096-row QR blocks (two passes at 2e5 rows) and one matmul Z @ R_s;
    # it, draws_u, both variance estimates and the ellipsoid are matmuls with inner
    # dimension p, at any B, sigma2 is a fixed-order numpy sum, and each of them is hashed too
    runs = []
    shapes = ((200_000, 11), (1000, 5), (3000, 13), (2000, 40), (20_000, 1), (20_000, 40), (205, 41))
    for n, p in shapes:
        rng = np.random.default_rng(52 + p)
        x = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
        y = x @ np.linspace(-1.0, 1.0, p) + (1.0 + np.abs(x[:, -1])) * rng.standard_normal(n)
        fit = fit_ols(Dataset(x=x, y=y))
        runs += [(fit, dict(b=b)) for b in (1, 12, 17, 40, 300, 5000)]
        if (n, p) == (20_000, 40):
            continue
        for b in (40, 12) if n == 200_000 else (1, 17, 300):
            runs += [(fit, dict(b=b, dist="rademacher")), (fit, dict(b=b, m=n))]
    path = tmp_path / "runs.pkl"
    path.write_bytes(pickle.dumps(runs))
    code = (
        "import hashlib, pickle, sys\n"
        "import numpy as np\n"
        "from leanreg import classical_avar, region_ellipsoid, region_rectangle, run_bootstrap, sandwich_avar\n"
        "for fit, kw in pickle.loads(open(sys.argv[1], 'rb').read()):\n"
        "    draws, var = run_bootstrap(fit, seed=4, **kw), sandwich_avar(fit)\n"
        "    ellipsoid = region_ellipsoid(fit, draws, var, 0.1)\n"
        "    parts = (draws.draws_t, draws.draws_u, var.avar, classical_avar(fit).avar, ellipsoid.quad_form,\n"
        "             ellipsoid.radius, region_rectangle(fit, draws, var, 0.1).half_widths)\n"
        "    print(*(hashlib.sha256(np.asarray(part).tobytes()).hexdigest() for part in parts))\n"
    )
    stdouts = blas_thread_stdouts([sys.executable, "-c", code, str(path)], text=True)
    ones, twos = ([line.split() for line in out.splitlines()] for out in stdouts)
    assert len(ones) == len(runs)
    for (fit, kw), one, two in zip(runs, ones, twos):
        assert one == two, (fit.n, fit.p, kw)


class TestResampleDraw:
    def test_single_zero_score(self):
        fit = fit_ols(Dataset(x=[[2.0]], y=[5.0]))
        for seed in range(5):
            draws = run_bootstrap(fit, b=3, m=7, seed=seed)
            np.testing.assert_allclose(draws.draws_t, 0.0, atol=1e-14)

    def test_conditional_mean_and_covariance(self, het_fit):
        draws = run_bootstrap(het_fit, b=10_000, m=het_fit.n, seed=17).draws_t
        b = draws.shape[0]
        kmat = k_check(het_fit)
        scale = np.sqrt(np.diag(kmat))
        assert np.all(np.abs(draws.mean(axis=0)) <= 4.0 * scale / np.sqrt(b))
        cov = np.cov(draws.T, bias=True)
        knorm = np.linalg.norm(kmat, 2)
        assert np.linalg.norm(cov - kmat, 2) <= 0.05 * knorm


class TestRunBootstrap:
    def test_exact_fit_gives_zero_gaussian_draws(self):
        # all-zero scores factor to R_s = 0; the regions, not the draws, refuse them
        draws = run_bootstrap(perfect_fit(), b=20, seed=0)
        assert np.all(draws.draws_t == 0.0)
        assert np.all(draws.draws_u == 0.0)

    def test_gaussian_second_moment_is_k_check_within_mc_se(self, het_fit):
        # given the data the draws are N(0, k_check): entry (j, k) of t t' has mean
        # k_jk and variance k_jj k_kk + k_jk^2
        b = 20_000
        t = run_bootstrap(het_fit, b=b, seed=61).draws_t
        kmat = k_check(het_fit)
        se = np.sqrt((np.outer(np.diag(kmat), np.diag(kmat)) + kmat**2) / b)
        assert np.all(np.abs(t.T @ t / b - kmat) <= 4.0 * se)

    @pytest.mark.parametrize(
        "kwargs",
        [{"dist": "mammen"}, {"b": 0}, {"m": 0}],
        ids=["dist", "b", "m"],
    )
    def test_rejects_bad_arguments(self, tiny_fit, kwargs):
        with pytest.raises(ValueError):
            run_bootstrap(tiny_fit, seed=0, **kwargs)

    def test_seed_is_required(self, tiny_fit):
        with pytest.raises(TypeError):
            run_bootstrap(tiny_fit, b=5)

    def test_float_seed_is_rejected(self, tiny_fit):
        # numpy refuses a float seed rather than truncating 3.7 to seed 3's stream
        with pytest.raises(TypeError):
            run_bootstrap(tiny_fit, b=5, seed=3.7)

    def test_gaussian_conditional_covariance_is_k_check(self, het_fit):
        draws = run_bootstrap(het_fit, b=10_000, seed=6)
        kmat = k_check(het_fit)
        cov = np.cov(draws.draws_t.T, bias=True)
        assert np.linalg.norm(cov - kmat, 2) <= 0.05 * np.linalg.norm(kmat, 2)
        # empirical mean of gaussian draws shrinks like 1/sqrt(B)
        assert np.all(
            np.abs(draws.draws_t.mean(axis=0)) <= 4.0 * np.sqrt(np.diag(kmat)) / np.sqrt(draws.b)
        )

    def test_rademacher_conditional_covariance_is_k_check(self, het_fit):
        # E[w^2] = 1 and independent signs give covariance k_check exactly
        draws = run_bootstrap(het_fit, b=10_000, dist="rademacher", seed=6)
        kmat = k_check(het_fit)
        cov = np.cov(draws.draws_t.T, bias=True)
        assert np.linalg.norm(cov - kmat, 2) <= 0.05 * np.linalg.norm(kmat, 2)
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

    def test_m_selects_the_scheme(self, het_fit):
        draws = run_bootstrap(het_fit, b=16, m=het_fit.n, seed=4)
        assert (draws.method, draws.m) == ("resample_m_of_n", het_fit.n)
        draws = run_bootstrap(het_fit, b=4, seed=4)
        assert (draws.method, draws.m, draws.dist) == ("multiplier", None, "gaussian")

    def test_resampling_ignores_the_weight_law(self, het_fit):
        # m-of-n counts follow no weight law, so dist neither changes nor labels the draws
        rad = run_bootstrap(het_fit, b=30, m=40, dist="rademacher", seed=9)
        gauss = run_bootstrap(het_fit, b=30, m=40, dist="gaussian", seed=9)
        assert rad.dist is None and gauss.dist is None
        np.testing.assert_array_equal(rad.draws_t, gauss.draws_t)

    def test_resample_replicates_match_resample_draw(self, het_fit):
        # m draws with replacement, summed row by row: the law the counts encode
        draws = run_bootstrap(het_fit, b=30, m=40, seed=9)
        idx = np.random.default_rng(9).integers(0, het_fit.n, (30, 40))
        expected = het_fit.scores_hat[idx].sum(axis=1) / np.sqrt(40.0)
        np.testing.assert_allclose(draws.draws_t, expected, rtol=1e-12, atol=1e-14)


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

    # at B=1 and alpha=0.5 the critical value is the one draw's max-|t|, zero for a zero draw
    @pytest.mark.parametrize("seed, degenerate", [(0, False), (1, True), (2, True), (3, True), (4, False),
                                                  (5, False)])
    def test_all_zero_draws_make_the_region_degenerate(self, seed, degenerate):
        fit = OlsFit(*rank_one_scores())
        var, draws = sandwich_avar(fit), run_bootstrap(fit, b=1, dist="rademacher", seed=seed)
        assert draws.draws_t.any() != degenerate
        for studentized in (None, studentizer(var, draws)):
            try:
                region_rectangle(fit, draws, var, 0.5, studentized)
            except ZeroVariance as exc:
                assert degenerate and str(exc) == "all bootstrap draws are zero; the region is degenerate"
            else:
                assert not degenerate

    def test_a_stack_gates_the_critical_value_with_the_variances(self):
        # item 0 (key 1) has all-zero draws and item 1 zero residuals: the stack raises item 0's
        # error, as a loop over its items does, not item 1's zero variance
        x, y = rank_one_scores()
        fit = OlsFit(np.stack([x, x]), np.stack([y, np.zeros(30)]))
        var, draws = sandwich_avar(fit), run_bootstrap(fit, b=1, dist="rademacher", seed=[1, 0])
        with pytest.raises(ZeroVariance, match="all bootstrap draws are zero; the region is degenerate"):
            region_rectangle(fit, draws, var, 0.5)
        alone = OlsFit(x, np.zeros(30))
        draws = run_bootstrap(alone, b=1, dist="rademacher", seed=0)
        with pytest.raises(ZeroVariance, match="a coordinate has zero estimated variance"):
            region_rectangle(alone, draws, sandwich_avar(alone), 0.5)

    def test_a_given_reference_gives_the_critical_value_of_the_regions_alpha(self):
        # a reference formed at another alpha, or at none, as a max-|t| test forms it
        fit = fit_ols(sample(Dgp("heteroscedastic_iid"), 200, np.random.default_rng(3)))
        var, draws = sandwich_avar(fit), run_bootstrap(fit, b=999, seed=4)
        expected = region_rectangle(fit, draws, var, 0.05)
        for alpha in (0.2, None):
            region = region_rectangle(fit, draws, var, 0.05, studentizer(var, draws, alpha=alpha))
            assert region.level == 0.95
            assert region.half_widths.tobytes() == expected.half_widths.tobytes()
        assert (region_rectangle(fit, draws, var, 0.2).half_widths < expected.half_widths).all()

    def test_non_finite_variance_is_named(self):
        # x near 1e-150 and y near 1e6: the sandwich overflows to an infinite variance
        x = np.array([[1.0], [2.0], [3.0], [4.0]]) * 1e-150
        fit = fit_ols(Dataset(x=x, y=[1e6, 1e6 + 3.0, 1e6 - 1.0, 1e6 + 5.0]))
        with np.errstate(over="ignore"):
            var = sandwich_avar(fit)
            draws = run_bootstrap(fit, b=20, seed=0)
        with pytest.raises(NonFiniteValue, match="estimated variance is infinite or NaN"):
            region_rectangle(fit, draws, var, alpha=0.05)

    def test_requires_sandwich_variance(self, het_fit):
        from leanreg import classical_avar

        draws = run_bootstrap(het_fit, b=20, seed=0)
        for region in (region_rectangle, region_ellipsoid):
            with pytest.raises(ValueError):
                region(het_fit, draws, classical_avar(het_fit), alpha=0.05)

    def test_contains_center(self, het_fit):
        draws = run_bootstrap(het_fit, b=200, seed=2)
        region = region_rectangle(het_fit, draws, sandwich_avar(het_fit), alpha=0.1)
        assert region.contains(het_fit.beta_hat)
        assert region.level == 0.9
        assert np.all(region.half_widths >= 0)

    def test_contains_rejects_a_point_of_the_wrong_shape(self, het_fit):
        draws = run_bootstrap(het_fit, b=20, seed=2)
        for region in (region_rectangle, region_ellipsoid):
            reg = region(het_fit, draws, sandwich_avar(het_fit), alpha=0.1)
            with pytest.raises(DimensionMismatch, match=r"beta has shape \(3,\), expected \(2,\)"):
                reg.contains([0.0, 0.0, 0.0])


class TestRegionEllipsoid:
    def test_gaussian_statistic_is_data_free(self, het_fit, tall_fit):
        # t_b = z_b' R_s / sqrt(n) and k_check = R_s' R_s / n make t_b' k_check^-1 t_b
        # equal ||z_b||^2, so two datasets drawn with one seed share every statistic
        z2 = (normals(500, 2, 25) ** 2).sum(axis=1)
        for fit in (het_fit, tall_fit):
            draws = run_bootstrap(fit, b=500, seed=25)
            var = sandwich_avar(fit)
            q = np.einsum("bi,ib->b", draws.draws_t, spd_solver(var.meat)(draws.draws_t.T))
            np.testing.assert_allclose(q, z2, rtol=1e-9)
            radius = region_ellipsoid(fit, draws, var, alpha=0.05).radius
            assert radius == pytest.approx(np.sort(z2)[math.ceil(0.95 * 501) - 1], rel=1e-9)

    def test_radius_matches_chi2_quantile(self, het_fit):
        draws = run_bootstrap(het_fit, b=10_000, seed=21)
        region = region_ellipsoid(het_fit, draws, sandwich_avar(het_fit), alpha=0.05)
        assert region.radius == pytest.approx(stats.chi2.ppf(0.95, 2), rel=0.05)

    def test_contains_center(self, het_fit):
        draws = run_bootstrap(het_fit, b=100, seed=22)
        region = region_ellipsoid(het_fit, draws, sandwich_avar(het_fit), alpha=0.05)
        assert region.contains(het_fit.beta_hat)
        assert region.radius >= 0

    def test_radius_monotone_in_level(self, het_fit):
        draws = run_bootstrap(het_fit, b=500, seed=23)
        var = sandwich_avar(het_fit)
        radii = [region_ellipsoid(het_fit, draws, var, alpha).radius for alpha in (0.2, 0.1, 0.05)]
        assert radii[0] <= radii[1] <= radii[2]

    def test_quad_form_is_sandwich_inverse(self, het_fit):
        # membership of beta must equal the score statistic falling in the
        # k_check ellipsoid: quad_form = sigma k_check^-1 sigma
        draws = run_bootstrap(het_fit, b=100, seed=24)
        region = region_ellipsoid(het_fit, draws, sandwich_avar(het_fit), alpha=0.05)
        expected = het_fit.sigma_hat @ np.linalg.solve(k_check(het_fit), het_fit.sigma_hat)
        np.testing.assert_allclose(region.quad_form, expected, rtol=1e-10)

    def test_singular_k_check_raises(self):
        # all-zero scores: every pivot of R_s is zero
        fit = perfect_fit()
        draws = run_bootstrap(fit, b=10, seed=0)
        with pytest.raises(NotPositiveDefinite, match="Cholesky pivot 0 at or below"):
            region_ellipsoid(fit, draws, sandwich_avar(fit), alpha=0.05)

    @staticmethod
    def near_collinear_scores_fit(delta):
        """A fit whose score column u e has 1 - R^2 = delta^2 / (2 + 2 (1 + delta)^2) on e.

        The residuals are e = (1, -1, 1, -1) on rows where u is 1, 1, 1 + delta
        and 1 + delta, and zero on four more rows, which keep the design well
        conditioned; e is orthogonal to (1, u), so y = 1 + u + e fits with it.
        """
        u = np.array([1.0, 1.0, 1.0 + delta, 1.0 + delta, 0.0, 2.0, 3.0, 4.0])
        e = np.array([1.0, -1.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
        return fit_ols(Dataset(x=np.column_stack([np.ones(8), u]), y=1.0 + u + e))

    @pytest.mark.parametrize("delta, one_minus_r2, raises", [(2e-10, 1e-20, True), (2e-5, 1e-10, False)])
    def test_meat_gate_is_the_column_scaled_pivot_gate(self, delta, one_minus_r2, raises):
        # the gate spd_solver puts on a Cholesky factor of k_check: a score column whose
        # 1 - R^2 on the earlier columns is at or below p * eps (4.4e-16) raises
        fit = self.near_collinear_scores_fit(delta)
        s = fit.scores_hat
        resid = s[:, 1] - s[:, 0] * (s[:, 0] @ s[:, 1]) / (s[:, 0] @ s[:, 0])
        assert (resid @ resid) / (s[:, 1] @ s[:, 1]) == pytest.approx(one_minus_r2, rel=1e-3)
        draws = run_bootstrap(fit, b=20, seed=1)
        var = sandwich_avar(fit)
        if raises:
            with pytest.raises(NotPositiveDefinite, match="Cholesky pivot 1 at or below"):
                region_ellipsoid(fit, draws, var, alpha=0.1)
        else:
            assert np.isfinite(region_ellipsoid(fit, draws, var, alpha=0.1).quad_form).all()
