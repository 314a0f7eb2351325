import ast
import collections
import dataclasses
import pathlib
import statistics
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, stats

import leanreg.bootstrap
import leanreg.inference
import leanreg.simlab as simlab
import leanreg.variance
from leanreg import (
    BootstrapDraws,
    ConfidenceRegion,
    Dataset,
    DegenerateDof,
    DimensionMismatch,
    Dgp,
    LeanRegError,
    NonFiniteValue,
    NotPositiveDefinite,
    OlsFit,
    SingularDesign,
    ZeroVariance,
    classical_avar,
    fit_ols,
    k_check,
    max_t_test,
    population_score_means,
    population_targets,
    region_ellipsoid,
    region_rectangle,
    run_bootstrap,
    run_consistency,
    run_coverage,
    sample,
    sandwich_avar,
)
from leanreg.bootstrap import Studentized, studentizer
from leanreg.cli import main
from leanreg.inference import REFERENCES
from leanreg.variance import VarianceEstimate, residual_variance

ALL_KINDS = simlab.DGP_KINDS
P2_KINDS = tuple(k for k in ALL_KINDS if k != "linear_homoscedastic")
TARGET_FIELDS = ("beta_n", "sigma_n", "gamma_n", "k_n", "k_n_star", "av_n", "av_n_star", "sigma_n_inv")


def edit_draws(monkeypatch, edit):
    """Pass every drawn replication, in stacks and in ``sample``, through ``edit(key, x, y)``.

    A stack's replication r has the key ``prefix + (r,)``, and ``sample``'s
    draw its ``rng_state``. ``edit`` gets copies of a replication's design and
    responses and returns them, edited or not, or None for a replication that
    cannot be drawn: its stack stops there, with the replications before it,
    and raises.
    """
    real_stacks = simlab._sample_stacks

    def stacks(dgp, n, count, prefix, *most, key=None):
        for reps, x, y in real_stacks(dgp, n, count, prefix, *most):
            x, y = x.copy(), y.copy()
            for i, r in enumerate(reps):
                edited = edit(key or prefix + (r,), x[i], y[i])
                if edited is None:
                    if i:
                        yield reps[:i], x[:i], y[:i]
                    raise ValueError(f"no sample for replication {(key or prefix + (r,))[-1]}")
                x[i], y[i] = edited
            yield reps, x, y

    def sample(dgp, n, rng_state):
        # simlab.sample's one-replication stack, drawn by its own generator and keyed by its state
        _, x, y = next(stacks(dgp, n, 1, np.random.default_rng(rng_state), key=rng_state))
        return Dataset(x=x[0], y=y[0])

    monkeypatch.setattr(simlab, "_sample_stacks", stacks)
    monkeypatch.setattr(simlab, "sample", sample)


def sample_one_singular(monkeypatch, singular: int, step: float):
    """Make replication ``singular`` of every run draw the covariate 1 + step * (i mod 2).

    A constant covariate (step 0) fails LAPACK's factorization; one that
    alternates between 1 and 1 + 2**-24 passes it and fails the pivot gate.
    """

    def edit(key, x, y):
        if key[1] == singular:
            x[:, 1] = 1.0 + step * (np.arange(len(y)) % 2)
        return x, y

    edit_draws(monkeypatch, edit)


class _Poly:
    """A polynomial in u with Fraction coefficients, lowest power first."""

    def __init__(self, coeffs):
        self.c = [Fraction(v) for v in coeffs]

    def __add__(self, other):
        other = other if isinstance(other, _Poly) else _Poly([other])
        short, long = sorted((self.c, other.c), key=len)
        return _Poly([a + b for a, b in zip(short + [0] * len(long), long)])

    def __mul__(self, other):
        other = other if isinstance(other, _Poly) else _Poly([other])
        out = [Fraction(0)] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            for j, b in enumerate(other.c):
                out[i + j] += a * b
        return _Poly(out)

    __radd__, __rmul__ = __add__, __mul__

    def __sub__(self, other):
        return self + other * -1

    def __pow__(self, k):
        out = _Poly([1])
        for _ in range(k):
            out = out * self
        return out

    def integral(self, lo, hi):
        return sum(c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1) for k, c in enumerate(self.c))


def _inverse(a):
    """Gauss-Jordan inverse of a symmetric positive definite Fraction matrix."""
    p = len(a)
    rows = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(p)] for i, row in enumerate(a)]
    for j in range(p):
        rows[j] = [v / rows[j][j] for v in rows[j]]
        for i in range(p):
            if i != j:
                rows[i] = [v - rows[i][j] * w for v, w in zip(rows[i], rows[j])]
    return np.array([row[p:] for row in rows], dtype=object)


def _rounded(m):
    """Each entry of a Fraction vector or matrix as the float nearest to it."""
    return [_rounded(v) for v in m] if isinstance(m, (list, np.ndarray)) else float(m)


def _exact_oracle(dgp, n):
    """The eight exact targets by brute force: moments from their definitions,
    normal equations and sandwiches solved in Fractions in the test."""
    s = Fraction(dgp.noise_scale)
    if dgp.kind == "linear_homoscedastic":
        # E[1] = 1, E[u_j] = 1/2, E[u_j^2] = 1/3, E[u_j u_k] = 1/4 for j != k
        def moment(j, k):
            if 0 in (j, k):
                return Fraction(1, 2) if j + k else Fraction(1)
            return Fraction(1, 3) if j == k else Fraction(1, 4)

        sigma = np.array([[moment(j, k) for k in range(dgp.p)] for j in range(dgp.p)], dtype=object)
        gamma = sigma @ np.array([Fraction(b) for b in dgp.beta], dtype=object)
        k_n = k_star = s**2 * sigma
    else:
        curved = dgp.kind in ("quadratic_mean_iid", "fixed_x_nonidentical_mean")

        def mean(u):
            return u * u if curved else 1 + u

        def sd(u, side):
            if dgp.is_fixed_design:
                return s * (Fraction(0.1) + u)
            if dgp.kind == "quadratic_mean_iid":
                return s
            return s * (Fraction(0.2) + (u - Fraction(1, 2)) * side)  # |u - 1/2| on each half of [0, 1]

        if dgp.is_fixed_design:
            def avg(f):
                return sum(f(Fraction(i, n), 1) for i in range(1, n + 1)) / n
        else:
            def avg(f):
                half, u = Fraction(1, 2), _Poly([0, 1])
                return f(u, -1).integral(0, half) + f(u, 1).integral(half, 1)

        def cov(f):
            return np.array(
                [[avg(lambda u, side: u ** (j + k) * f(u, side)) for k in range(2)] for j in range(2)]
            )

        sigma = cov(lambda u, side: 1)
        gamma = np.array([avg(lambda u, side: u**j * mean(u)) for j in range(2)])
        b0, b1 = _inverse(sigma) @ gamma
        k_n = cov(lambda u, side: sd(u, side) ** 2)
        k_star = cov(lambda u, side: sd(u, side) ** 2 + (mean(u) - b0 - b1 * u) ** 2)
        if not dgp.is_fixed_design:
            k_n = k_star
    inv = _inverse(sigma)
    return {
        "beta_n": inv @ gamma, "sigma_n": sigma, "gamma_n": gamma, "k_n": k_n, "k_n_star": k_star,
        "av_n": inv @ k_n @ inv, "av_n_star": inv @ k_star @ inv, "sigma_n_inv": inv,
    }


class TestDgp:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Dgp("cauchy_tails")

    def test_canonical_kinds_are_p2(self):
        with pytest.raises(ValueError):
            Dgp("quadratic_mean_iid", p=3)

    def test_linear_supports_wider_designs(self):
        dgp = Dgp("linear_homoscedastic", p=4, beta=(1.0, 2.0, 0.0, -1.0))
        assert dgp.p == 4

    def test_noise_scale_must_be_positive(self):
        for bad in (0.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                Dgp("quadratic_mean_iid", noise_scale=bad)

    def test_numpy_noise_scale_is_its_float_value(self):
        # the exact moments convert noise_scale with Fraction, which takes no np.float32
        narrow = Dgp("heteroscedastic_iid", noise_scale=np.float32(0.3))
        assert narrow == Dgp("heteroscedastic_iid", noise_scale=float(np.float32(0.3)))
        assert population_targets(narrow, 10).k_n.dtype == np.float64

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_beta_must_be_finite(self, bad):
        with pytest.raises(ValueError):
            Dgp("linear_homoscedastic", beta=(bad, 1.0))

    def test_empty_beta_is_rejected(self):
        with pytest.raises(ValueError, match=r"beta must have p=2 finite entries, got \(\)"):
            Dgp("linear_homoscedastic", beta=())

    def test_array_beta_is_its_tuple(self):
        # Dgp keys the target cache, so an array beta must equal and hash like its tuple
        dgp = Dgp("linear_homoscedastic", beta=np.array([1.0, 2.0]))
        twin = Dgp("linear_homoscedastic", beta=(1.0, 2.0))
        assert dgp == twin and hash(dgp) == hash(twin)
        assert dgp.beta == (1.0, 2.0)


class TestPopulationTargets:
    @pytest.mark.parametrize("noise_scale", [None, 0.3, 7.7], ids=["default", "0.3", "7.7"])
    def test_quadratic_closed_form_oracle(self, noise_scale):
        # oracle: exact uniform moments E[U^k] = 1/(k+1). The projection
        # residual g(u) = u^2 - u + 1/6 has E[g^2] = 1/180, E[U g^2] = 1/360,
        # E[U^2 g^2] = 2/945 (expanded polynomial, integrated term by term).
        # Fraction(float) is the exact value of the float the DGP samples with.
        dgp = Dgp("quadratic_mean_iid", noise_scale=noise_scale)
        pop = population_targets(dgp, 10)
        s2 = Fraction(dgp.noise_scale) ** 2
        assert pop.sigma_n.tolist() == [[1.0, 0.5], [0.5, float(Fraction(1, 3))]]
        assert pop.gamma_n.tolist() == [float(Fraction(1, 3)), 0.25]
        assert pop.beta_n.tolist() == [float(Fraction(-1, 6)), 1.0]
        k01 = float(Fraction(1, 360) + s2 / 2)
        assert pop.k_n.tolist() == [
            [float(Fraction(1, 180) + s2), k01],
            [k01, float(Fraction(2, 945) + s2 / 3)],
        ]

    def test_quadratic_against_quadrature_oracle(self):
        # independent numeric oracle for the same K entries
        pop = population_targets(Dgp("quadratic_mean_iid"), 10)
        b0, b1 = pop.beta_n

        def integrand(u, power):
            return u**power * ((u**2 - b0 - b1 * u) ** 2 + 0.01)

        for (j, k) in [(0, 0), (0, 1), (1, 1)]:
            val = integrate.quad(integrand, 0, 1, args=(j + k,))[0]
            assert pop.k_n[j, k] == pytest.approx(val, abs=1e-10)

    @pytest.mark.parametrize("noise_scale", [None, 0.3, 7.7], ids=["default", "0.3", "7.7"])
    def test_heteroscedastic_piecewise_oracle(self, noise_scale):
        # oracle: piecewise closed forms for g(u) = (a + |u - h|)^2 with a = 0.2,
        # h = 0.5 as the DGP's floats: E[g] = (2/3)((a + h)^3 - a^3), E[U g] =
        # E[g]/2 by symmetry, E[U^2 g] = E[g]/4 + 2 int_0^h t^2 (a + t)^2 dt
        dgp = Dgp("heteroscedastic_iid", noise_scale=noise_scale)
        pop = population_targets(dgp, 10)
        assert pop.beta_n.tolist() == [1.0, 1.0]
        s2, a, h = Fraction(dgp.noise_scale) ** 2, Fraction(0.2), Fraction(0.5)
        e_g = Fraction(2, 3) * ((a + h) ** 3 - a**3)
        tail = 2 * (a**2 * h**3 / 3 + 2 * a * h**4 / 4 + h**5 / 5)
        assert pop.k_n.tolist() == [
            [float(s2 * e_g), float(s2 * e_g / 2)],
            [float(s2 * e_g / 2), float(s2 * (e_g / 4 + tail))],
        ]

    def test_linear_target_is_the_slope_for_every_n(self):
        dgp = Dgp("linear_homoscedastic", p=3, beta=(0.5, -1.0, 2.0))
        for n in (10, 1000):
            pop = population_targets(dgp, n)
            np.testing.assert_allclose(pop.beta_n, [0.5, -1.0, 2.0], atol=1e-12)
            np.testing.assert_allclose(pop.sigma_n @ pop.beta_n, pop.gamma_n, atol=1e-12)

    def test_fixed_nonidentical_mean_is_strictly_conservative(self):
        pop = population_targets(Dgp("fixed_x_nonidentical_mean"), 300)
        gap_min = np.linalg.eigvalsh(pop.k_n_star - pop.k_n)[0]
        assert gap_min > 0.0
        assert np.abs(pop.score_means).max() > 0.0
        np.testing.assert_allclose(pop.score_means.mean(axis=0), 0.0, atol=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 7, 40, 500])
    @pytest.mark.parametrize(
        "kind, mean",
        [("fixed_x_nonidentical_mean", lambda u: u**2), ("fixed_x_heteroscedastic", lambda u: 1 + u)],
        ids=["fixed_x_nonidentical_mean", "fixed_x_heteroscedastic"],
    )
    def test_fixed_design_oracle_finite_sums(self, kind, mean, n):
        # oracle: brute-force rational sums over the design u_i = i/n, with the
        # DGP's float constants 0.1 and noise_scale taken exactly, rounded once
        pop = population_targets(Dgp(kind), n)
        us = [Fraction(i, n) for i in range(1, n + 1)]

        def avg(f):
            return sum(f(u) for u in us) / n

        def matrix(f):
            return [[float(avg(lambda u: u ** (j + k) * f(u))) for k in range(2)] for j in range(2)]

        sigma = [[avg(lambda u: u ** (j + k)) for k in range(2)] for j in range(2)]
        gamma = [avg(lambda u: u**j * mean(u)) for j in range(2)]
        det = sigma[0][0] * sigma[1][1] - sigma[0][1] ** 2
        b0 = (sigma[1][1] * gamma[0] - sigma[0][1] * gamma[1]) / det
        b1 = (sigma[0][0] * gamma[1] - sigma[0][1] * gamma[0]) / det
        noise = Fraction(Dgp(kind).noise_scale) ** 2

        def sd2(u):
            return noise * (Fraction(0.1) + u) ** 2

        assert pop.sigma_n.tolist() == [[float(v) for v in row] for row in sigma]
        assert pop.gamma_n.tolist() == [float(v) for v in gamma]
        assert pop.beta_n.tolist() == [float(b0), float(b1)]
        assert pop.k_n.tolist() == matrix(sd2)
        assert pop.k_n_star.tolist() == matrix(lambda u: sd2(u) + (mean(u) - b0 - b1 * u) ** 2)

    @pytest.mark.parametrize("n", [2, 3, 500, 10**6])
    def test_fixed_linear_mean_target_is_its_coefficients(self, n):
        assert population_targets(Dgp("fixed_x_heteroscedastic"), n).beta_n.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_structure_invariants(self, kind):
        pop = population_targets(Dgp(kind), 200)
        # population normal equations
        np.testing.assert_allclose(pop.sigma_n @ pop.beta_n, pop.gamma_n, atol=1e-9)
        # conservative ordering always; equality in iid kinds
        assert np.linalg.eigvalsh(pop.k_n_star - pop.k_n)[0] >= -1e-9
        assert np.linalg.eigvalsh(pop.av_n_star - pop.av_n)[0] >= -1e-9
        if not kind.startswith("fixed_x"):
            np.testing.assert_allclose(pop.k_n, pop.k_n_star, atol=1e-12)
            np.testing.assert_allclose(pop.score_means, 0.0, atol=1e-15)
        # av_n is the sandwich of k_n, formed exactly and rounded once
        exact = _exact_oracle(Dgp(kind), 200)
        inv = _inverse(exact["sigma_n"])
        assert pop.av_n.tolist() == _rounded(inv @ exact["k_n"] @ inv)

    @pytest.mark.parametrize("beta", ["default", "other"])
    @pytest.mark.parametrize("p", range(2, 12))
    def test_linear_targets_are_exact_rationals_rounded_once(self, p, beta):
        dgp = Dgp("linear_homoscedastic", p=p)
        if beta == "other":
            dgp = Dgp("linear_homoscedastic", p=p, noise_scale=0.3, beta=np.linspace(-1.3, 2.7, p))
        pop = population_targets(dgp, 50)
        for name, value in _exact_oracle(dgp, 50).items():
            assert getattr(pop, name).tolist() == _rounded(value), name

    @pytest.mark.parametrize("noise_scale", [None, 0.3, 7.7], ids=["default", "0.3", "7.7"])
    @pytest.mark.parametrize("n", [2, 3, 7, 40, 500])
    @pytest.mark.parametrize("kind", P2_KINDS)
    def test_p2_targets_are_exact_rationals_rounded_once(self, kind, n, noise_scale):
        dgp = Dgp(kind, noise_scale=noise_scale)
        pop = population_targets(dgp, n)
        for name, value in _exact_oracle(dgp, n).items():
            assert getattr(pop, name).tolist() == _rounded(value), name

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_noise_scale_past_double_range_is_a_value_error(self, kind):
        with pytest.raises(ValueError, match=r"noise_scale=1e\+200 puts a target outside double range"):
            population_targets(Dgp(kind, noise_scale=1e200), 50)
        # the score means use only the noise-free moments, so they still exist, bit for bit
        means = population_score_means(Dgp(kind, noise_scale=1e200), 3, [0.3, -0.2])
        assert means.tobytes() == population_score_means(Dgp(kind), 3, [0.3, -0.2]).tobytes()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_sigma_n_inv_is_the_sigma_n_solve(self, kind):
        pop = population_targets(Dgp(kind), 200)
        rhs = np.random.default_rng(8).standard_normal((2, 3))
        # oracle: numpy's general solver on sigma_n; the exact inverse is symmetric, and so is its rounding
        np.testing.assert_allclose(pop.sigma_n_inv @ rhs, np.linalg.solve(pop.sigma_n, rhs))
        assert np.array_equal(pop.sigma_n_inv, pop.sigma_n_inv.T)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_editing_a_returned_target_does_not_reach_the_next_call(self, kind):
        dgp, beta = Dgp(kind), np.array([0.3, -0.2])
        before = population_targets(dgp, 50)
        means = population_score_means(dgp, 50, beta)
        edited = population_targets(dgp, 50)
        for name in TARGET_FIELDS:
            getattr(edited, name)[...] = np.nan
        after = population_targets(dgp, 50)
        for name in TARGET_FIELDS:
            assert getattr(after, name).tobytes() == getattr(before, name).tobytes(), name
        assert population_score_means(dgp, 50, beta).tobytes() == means.tobytes()

    @pytest.mark.parametrize("kind", ["linear_homoscedastic", "quadratic_mean_iid", "heteroscedastic_iid"])
    def test_iid_targets_do_not_depend_on_n(self, kind):
        first = population_targets(Dgp(kind), 7)
        for n in (1, 500):
            pop = population_targets(Dgp(kind), n)
            for name in TARGET_FIELDS:
                assert getattr(pop, name).tobytes() == getattr(first, name).tobytes(), name

    @pytest.mark.parametrize("kind", ["quadratic_mean_iid", "fixed_x_nonidentical_mean"])
    def test_score_means_at_arbitrary_beta(self, kind):
        dgp = Dgp(kind)
        pop = population_targets(dgp, 5)
        np.testing.assert_allclose(
            population_score_means(dgp, 5, pop.beta_n), pop.score_means, atol=1e-10
        )
        beta = np.array([0.3, -0.2])
        rows = population_score_means(dgp, 5, beta)
        if dgp.is_fixed_design:
            # oracle: x_i (mu_i - x_i' beta), looping over u_i = i/5 with mean u_i^2
            expected = np.empty((5, 2))
            for i in range(5):
                u_i = (i + 1) / 5
                x_i = np.array([1.0, u_i])
                expected[i] = x_i * (u_i**2 - x_i @ beta)
        else:
            expected = np.tile(pop.gamma_n - pop.sigma_n @ beta, (5, 1))
        np.testing.assert_allclose(rows, expected, atol=1e-12)

    @pytest.mark.parametrize("n", [0, -3])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_rejects_empty_sample_size(self, kind, n):
        with pytest.raises(ValueError, match="need n >= 1"):
            population_targets(Dgp(kind), n)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_score_means_validate_n_and_beta_for_every_kind(self, kind):
        dgp = Dgp(kind)
        for n in (0, -2):
            with pytest.raises(ValueError, match="need n >= 1"):
                population_score_means(dgp, n, [0.0, 0.0])
        with pytest.raises(DimensionMismatch, match="beta has length 3, expected 2"):
            population_score_means(dgp, 5, [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("kind", ["fixed_x_heteroscedastic", "fixed_x_nonidentical_mean"])
    def test_one_point_fixed_design_is_singular(self, kind):
        # one design point leaves sigma_n singular, so beta_n = sigma_n^-1 gamma_n is undefined
        with pytest.raises(SingularDesign, match="design second-moment matrix is not positive definite"):
            population_targets(Dgp(kind), 1)


class TestSample:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_deterministic_given_seed(self, kind):
        dgp = Dgp(kind)
        d1 = sample(dgp, 50, np.random.default_rng(5))
        d2 = sample(dgp, 50, np.random.default_rng(5))
        np.testing.assert_array_equal(d1.x, d2.x)
        np.testing.assert_array_equal(d1.y, d2.y)

    def test_fixed_design_constant_across_seeds(self):
        dgp = Dgp("fixed_x_heteroscedastic")
        d1 = sample(dgp, 30, np.random.default_rng(1))
        d2 = sample(dgp, 30, np.random.default_rng(2))
        np.testing.assert_array_equal(d1.x, d2.x)
        assert not np.array_equal(d1.y, d2.y)

    def test_law_of_large_numbers_for_sigma(self):
        dgp = Dgp("quadratic_mean_iid")
        pop = population_targets(dgp, 10)
        data = sample(dgp, 100_000, np.random.default_rng(77))
        sigma_hat = data.x.T @ data.x / data.n
        assert np.linalg.norm(sigma_hat - pop.sigma_n, 2) <= 0.02 * np.linalg.norm(pop.sigma_n, 2)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_noise_raises_only_the_named_error(self):
        with pytest.raises(ValueError, match="dataset contains non-finite entries"):
            sample(Dgp("heteroscedastic_iid", noise_scale=1e308), 5000, 1)


def explicit_draw(dgp, n, rng):
    """One dataset drawn as written: covariates (random-x kinds), then noise, then the kind's formula."""
    u = np.arange(1, n + 1) / n if dgp.is_fixed_design else rng.random((n, dgp.p - 1))
    x = np.column_stack([np.ones(n), u])
    eps = rng.standard_normal(n)
    if dgp.kind == "linear_homoscedastic":
        return x, x @ np.asarray(dgp.beta) + dgp.noise_scale * eps
    mean, sd = simlab._profile(dgp)
    return x, mean(x[:, 1]) + sd(x[:, 1]) * eps


DRAW_DGPS = [Dgp(k) for k in P2_KINDS] + [Dgp("linear_homoscedastic", p=p) for p in (2, 5, 21)]


@pytest.mark.parametrize("dgp", DRAW_DGPS, ids=lambda d: f"{d.kind}-p{d.p}")
class TestDrawOracle:
    """``sample`` and every row of a stack equal the explicit draws of their key's generator."""

    @pytest.mark.parametrize("state", [7, (7, 3)], ids=["int", "tuple"])
    def test_sample(self, dgp, state):
        data = sample(dgp, 60, state)
        x, y = explicit_draw(dgp, 60, np.random.default_rng(state))
        np.testing.assert_array_equal(data.x, x)
        np.testing.assert_array_equal(data.y, y)

    def test_sample_continues_a_generator(self, dgp):
        rng, reference = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(2):
            data = sample(dgp, 60, rng)
            x, y = explicit_draw(dgp, 60, reference)
            np.testing.assert_array_equal(data.x, x)
            np.testing.assert_array_equal(data.y, y)

    @pytest.mark.parametrize("size", [1, 3, None], ids=["stacks-of-1", "stacks-of-3", "default"])
    def test_every_stack_row(self, monkeypatch, dgp, size):
        # a two-word seed, and 300 replications: one full seeding batch and a partial one, both
        # seeded at once, whose keys the stacks take across their bounds
        seed, count = 2**32 + 5, 300
        assert simlab._SEED_BATCH + simlab._SEED_BREAK_EVEN <= count < 2 * simlab._SEED_BATCH
        if size is not None:
            monkeypatch.setattr(simlab, "STACK_ENTRIES", size * 60 * dgp.p)
        drawn = 0
        for reps, xs, ys in simlab._sample_stacks(dgp, 60, count, (seed,)):
            assert reps == range(drawn, drawn + len(ys)) and len(xs) == len(ys) <= (size or count)
            for i, r in enumerate(reps):
                x, y = explicit_draw(dgp, 60, np.random.default_rng((seed, r)))
                np.testing.assert_array_equal(xs[i], x)
                np.testing.assert_array_equal(ys[i], y)
            drawn += len(ys)
        assert drawn == count


EVEN, BATCH = simlab._SEED_BREAK_EVEN, simlab._SEED_BATCH


class TestKeyedGenerators:
    """Each generator ``_keyed_generators`` yields is ``np.random.default_rng(prefix + (r,))``."""

    # prefixes of 0 to 6 uint32 words, so keys of 1 to 7: past 4 words the pool takes extra
    # rounds; and a prefix numpy reads from a string and a list, which keeps default_rng
    @pytest.mark.parametrize("prefix", [
        (), (0,), (1,), (2**32 - 1,), (2**32,), (2**64 + 5,), (2**96 + 7,), (2**128 + 3, 12),
        ("0x10", [3, 2**33]),
    ], ids=repr)
    @pytest.mark.parametrize("reps", [
        range(EVEN - 1), range(EVEN), range(BATCH), range(BATCH + 1),
        range(2**31 - 100, 2**31 + 100), range(2**32 - 300, 2**32), range(2**32 - 20, 2**32 + 20),
    ], ids=lambda reps: f"{reps.start}-{reps.stop}")
    def test_state_and_first_draws(self, prefix, reps):
        # strict: the helper yields one generator per r, no more
        for r, rng in zip(reps, simlab._keyed_generators(prefix, reps), strict=True):
            reference = np.random.default_rng(prefix + (r,))
            assert rng.bit_generator.state == reference.bit_generator.state, r
            assert rng.random() == reference.random()
            assert rng.standard_normal() == reference.standard_normal()

    # a batch below the break-even, or one whose r would take a second word, builds a
    # generator per key; a batch seeded at once builds the one it reuses
    @pytest.mark.parametrize("reps, built", [
        (range(1), 1), (range(EVEN - 1), EVEN - 1), (range(EVEN), 1), (range(100), 1),
        (range(BATCH + 1), 2), (range(BATCH + EVEN), 1), (range(2**32 - EVEN, 2**32 + 1), EVEN + 1),
    ], ids=lambda v: f"{v.start}-{v.stop}" if isinstance(v, range) else str(v))
    def test_generators_built(self, monkeypatch, reps, built):
        calls, real = [], np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda key: calls.append(key) or real(key))
        assert len(list(simlab._keyed_generators((7,), reps))) == len(reps)
        assert len(calls) == built

    @pytest.mark.parametrize("seed", [-1, 1.5], ids=["negative", "float"])
    def test_invalid_seed_raises_as_numpy_does(self, seed):
        with pytest.raises((TypeError, ValueError)) as numpy_error:
            np.random.default_rng((seed, 0))
        for replications in (1, 100):
            with pytest.raises(numpy_error.type) as run_error:
                run_coverage(Dgp("heteroscedastic_iid"), n=20, replications=replications,
                             methods=("classical_normal",), alpha=0.05, seed=seed)
            assert type(run_error.value) is numpy_error.type
            with pytest.raises(numpy_error.type) as run_error:
                run_consistency(Dgp("heteroscedastic_iid"), [20], replications, seed=seed)
            assert type(run_error.value) is numpy_error.type


class TestRunCoverage:
    def test_near_zero_alpha_covers_everything(self):
        rep = run_coverage(
            Dgp("quadratic_mean_iid"), n=80, replications=30,
            methods=("sandwich_normal",), alpha=1e-9, seed=1,
        )
        assert rep.coverage["sandwich_normal"] == [1.0, 1.0]

    def test_single_replication_coverage_is_binary(self):
        rep = run_coverage(
            Dgp("heteroscedastic_iid"), n=60, replications=1,
            methods=("classical_normal", "sandwich_normal"), alpha=0.05, seed=3,
        )
        for values in rep.coverage.values():
            assert all(v in (0.0, 1.0) for v in values)

    def test_report_leaves_the_seed_to_the_caller(self):
        assert "seed" not in {f.name for f in dataclasses.fields(simlab.CoverageReport)}

    def test_mc_se_formula(self):
        rep = run_coverage(
            Dgp("heteroscedastic_iid"), n=60, replications=40,
            methods=("sandwich_normal",), alpha=0.05, seed=4,
        )
        for c, s in zip(rep.coverage["sandwich_normal"], rep.coverage_se["sandwich_normal"]):
            assert s == pytest.approx(np.sqrt(c * (1 - c) / 40))

    # stacks of 3 replications: the singular design is the middle of the first, or starts the second
    @pytest.mark.parametrize("singular", [1, 3])
    @pytest.mark.parametrize("step", [0.0, 2.0**-24], ids=["factorization", "pivot-gate"])
    def test_singular_replications_are_excluded_and_counted(self, monkeypatch, singular, step):
        sample_one_singular(monkeypatch, singular, step)
        monkeypatch.setattr(simlab, "STACK_ENTRIES", 3 * 50 * 2)
        # each method keeps its own tally, so each must drop the singular replication
        for method in simlab.COVERAGE_METHODS:
            rep = run_coverage(
                Dgp("quadratic_mean_iid"), n=50, replications=6,
                methods=(method,), alpha=0.05, seed=8, b=50,
            )
            assert rep.excluded == 1, method
            assert rep.replications == 6, method
            props = rep.coverage.get(method) or [rep.rejection_rate[method]]
            ses = rep.coverage_se.get(method) or [rep.rejection_se[method]]
            for c, se in zip(props, ses):
                assert (c * 5).is_integer(), method
                assert se == np.sqrt(c * (1.0 - c) / 5), method

    def test_duplicated_methods_are_computed_once(self):
        def report(methods):
            return run_coverage(
                Dgp("fixed_x_nonidentical_mean"), n=40, replications=5,
                methods=methods, alpha=0.1, seed=3, b=50,
            )

        once = report(simlab.COVERAGE_METHODS)
        twice = report(simlab.COVERAGE_METHODS + simlab.COVERAGE_METHODS[::-1])
        assert twice.methods == simlab.COVERAGE_METHODS + simlab.COVERAGE_METHODS[::-1]
        for f in dataclasses.fields(once):
            if f.name != "methods":
                assert getattr(twice, f.name) == getattr(once, f.name), f.name

    def test_derived_fields_keep_their_bits(self):
        # literal values of a report that kept one entry per replication and averaged
        # by np.mean (the widths: np.mean over the 47 replications' 2 z se, from
        # sandwich_avar and classical_avar, and 2 half_widths, from region_rectangle,
        # each fitted alone as OlsFit(x[i], y[i]) on sample(dgp, 60, (5, r)), its draws
        # keyed (5, r, 1)); the tallies' sum / count must give the same doubles (at
        # R=47, multiplying by 1/R in place of dividing would change three of them)
        rep = run_coverage(
            Dgp("heteroscedastic_iid"), n=60, replications=47, methods=simlab.COVERAGE_METHODS,
            alpha=0.1, seed=5, b=100, weight_dist="rademacher",
        )
        # c_k is k / 47 hits and se_k its Monte Carlo standard error
        c_40, c_41, c_42 = 0.851063829787234, 0.8723404255319149, 0.8936170212765957
        se_40, se_41, se_42 = 0.05193166283277496, 0.04867665951114657, 0.044974139273951275
        assert rep.coverage == {
            "classical_normal": [c_40, c_41], "sandwich_normal": [c_42, c_41],
            "bootstrap_rectangle": [c_41], "bootstrap_ellipsoid": [c_40],
        }
        assert rep.coverage_se == {
            "classical_normal": [se_40, se_41], "sandwich_normal": [se_42, se_41],
            "bootstrap_rectangle": [se_41], "bootstrap_ellipsoid": [se_40],
        }
        assert rep.mean_width == {
            "classical_normal": [0.4015849096088345, 0.6882833449501133],
            "sandwich_normal": [0.4579910402477269, 0.816553888271121],
            "bootstrap_rectangle": [0.4918960597056947, 0.8768973721586535],
        }
        assert rep.rejection_rate == {"max_t_bootstrap": 0.1276595744680851}
        assert rep.rejection_se == {"max_t_bootstrap": 0.04867665951114658}

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            run_coverage(Dgp("quadratic_mean_iid"), 50, 2, ("pairs_bootstrap",), 0.05, 0)

    @pytest.mark.parametrize("b", [0, -1])
    def test_a_bootstrap_method_needs_a_replicate(self, b):
        # the draw budget divides by b, so the check comes first; an interval method takes no draws
        with pytest.raises(ValueError, match="need at least one replicate"):
            run_coverage(Dgp("quadratic_mean_iid"), 50, 2, ("bootstrap_ellipsoid",), 0.05, 0, b=b)
        run_coverage(Dgp("quadratic_mean_iid"), 50, 2, ("classical_normal",), 0.05, 0, b=b)

    def test_only_an_interval_method_needs_a_normal_quantile_of_alpha(self):
        # 1 - 1e-17 / 2 rounds to 1, where the normal quantile is infinite
        with pytest.raises(ValueError, match=r"alpha=1e-17 is too small for a normal interval"):
            run_coverage(Dgp("quadratic_mean_iid"), 50, 2, ("sandwich_normal",), 1e-17, 0)
        rep = run_coverage(Dgp("quadratic_mean_iid"), 50, 2, ("bootstrap_rectangle",), 1e-17, 0, b=20)
        assert rep.coverage["bootstrap_rectangle"] == [1.0]

    def test_every_replication_singular_raises(self):
        # one observation never gives the two-covariate design full rank
        with pytest.raises(SingularDesign, match="every replication produced a singular design"):
            run_coverage(Dgp("quadratic_mean_iid"), 1, 3, ("sandwich_normal",), 0.05, seed=2)


def coverage_one_at_a_time(dgp, n, replications, methods, alpha, seed, b=1000, weight_dist="gaussian"):
    """run_coverage's tallies and exclusions, one replication at a time through the one-fit functions."""
    beta_n = population_targets(dgp, n).beta_n
    z = statistics.NormalDist().inv_cdf(1.0 - alpha / 2.0)
    needs_boot = any(m.startswith("bootstrap") or m == "max_t_bootstrap" for m in methods)
    layout = simlab._tally_layout(methods, dgp.p)
    tallies = np.zeros(max((width.stop for _, width in layout.values()), default=0))
    excluded = 0
    for r in range(replications):
        try:
            fit = fit_ols(simlab.sample(dgp, n, (seed, r)))
        except SingularDesign:
            excluded += 1
            continue
        var_s = sandwich_avar(fit) if needs_boot or "sandwich_normal" in methods else None
        draws = run_bootstrap(fit, b=b, dist=weight_dist, seed=(seed, r, 1)) if needs_boot else None
        for m, (hit, width) in layout.items():
            hits, widths = tallies[hit], tallies[width]
            if m.endswith("_normal"):
                var = classical_avar(fit) if m == "classical_normal" else var_s
                hits += np.abs(fit.beta_hat - beta_n) <= z * var.se
                widths += 2.0 * z * var.se
            elif m == "bootstrap_rectangle":
                reg = region_rectangle(fit, draws, var_s, alpha)
                hits += reg.contains(beta_n)
                widths += 2.0 * reg.half_widths
            elif m == "bootstrap_ellipsoid":
                hits += region_ellipsoid(fit, draws, var_s, alpha).contains(beta_n)
            else:
                hits += max_t_test(fit, var_s, beta_n, reference="bootstrap", draws=draws).p_value <= alpha
    if excluded == replications:
        raise SingularDesign("every replication produced a singular design")
    return tallies.tobytes(), excluded


def coverage_stacked(*args, **kwargs):
    rep = run_coverage(*args, **kwargs)
    return rep.tallies.tobytes(), rep.excluded


def outcome(run, *args, **kwargs):
    """The run's result, or the type and message of what it raised."""
    try:
        return run(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


INTERVALS = ("classical_normal", "sandwich_normal")
# edits to a drawn replication: a singular design, an overflowing x'x, overflowing residuals
SINGULAR = {"x": lambda d: np.column_stack([np.ones(d.n), np.full(d.n, 0.5)])}
BIG_X = {"x": lambda d: d.x * 1e200}
BIG_Y = {"y": lambda d: d.y * 1e300}
# all-zero residuals (y = 0 fits beta_hat = 0 exactly): R_s = 0, so every studentizer is zero
ZERO_RESIDUALS = {"y": lambda d: np.zeros(d.n)}
# residuals +1 and -1 on two equal design rows and exactly zero elsewhere, the fewest that the
# normal equations x'e = 0 allow: the scores have rank one, so R_s fails the ellipsoid's pivot
# gate while every studentizer and critical value passes
RANK_ONE_SCORES = {
    "x": lambda d: np.vstack([d.x[:1], d.x[:1], d.x[2:]]),
    "y": lambda d: np.concatenate([[1.0, -1.0], np.zeros(d.n - 2)]),
}
TWICE = simlab.COVERAGE_METHODS + simlab.COVERAGE_METHODS[::-1]
BOOTSTRAP_METHODS = ("bootstrap_rectangle", "max_t_bootstrap", "bootstrap_ellipsoid")
TEST_FIRST = ("max_t_bootstrap", "bootstrap_ellipsoid", "bootstrap_rectangle")
NON_FINITE = "dataset contains non-finite entries"


class TestStackedReplications:
    """run_coverage and run_consistency fit stacks of replications with each one's bits."""

    # R = 37 is no multiple of the stack sizes, which are 16, 16, 16, 14 and 13 replications
    @pytest.mark.parametrize("kind, p, n", [(k, 2, 500) for k in ALL_KINDS] + [
        ("linear_homoscedastic", 5, 200), ("linear_homoscedastic", 11, 100),
        ("linear_homoscedastic", 21, 60),
    ])
    @pytest.mark.parametrize("methods", [INTERVALS + INTERVALS[::-1], TWICE, TEST_FIRST],
                             ids=["intervals", "all", "test-first"])
    def test_report_equals_one_replication_at_a_time(self, kind, p, n, methods):
        size = simlab.STACK_ENTRIES // (n * p)
        assert 2 * size < 37 and 37 % size
        args = (Dgp(kind, p=p), n, 37, methods, 0.1, 6)
        expected = coverage_one_at_a_time(*args, b=60)
        assert coverage_stacked(*args, b=60) == expected

    @pytest.mark.parametrize("kind", ["heteroscedastic_iid", "fixed_x_nonidentical_mean"])
    @pytest.mark.parametrize("weight_dist", leanreg.bootstrap.WEIGHT_DISTS)
    def test_reports_do_not_depend_on_the_stack_size(self, monkeypatch, kind, weight_dist):
        # R = 37 fills two bootstrap stacks of 16 replications and part of a third
        args = (Dgp(kind), 40, 37, TWICE, 0.1, 4)
        default = simlab.STACK_ENTRIES
        coverage, consistency = set(), []
        for size in (1, 3, None):
            monkeypatch.setattr(simlab, "STACK_ENTRIES", default if size is None else size * 40 * 2)
            # draw budgets of 1, 2 and 16 replications of B = 50 draws at p = 2
            for draws in (1, 2, 16):
                monkeypatch.setattr(simlab, "DRAW_ENTRIES", draws * 50 * 2)
                coverage.add(coverage_stacked(*args, b=50, weight_dist=weight_dist))
            consistency.append(run_consistency(Dgp(kind), [40, 80], 11, seed=4))
        assert coverage == {coverage_one_at_a_time(*args, b=50, weight_dist=weight_dist)}
        assert consistency[0] == consistency[1] == consistency[2]

    def test_memory_does_not_grow_with_the_replications(self):
        # n=500 keeps the stack at 16 replications, so its buffers do not grow with R either
        def peak(replications):
            tracemalloc.start()
            try:
                run_coverage(Dgp("heteroscedastic_iid"), n=500, replications=replications,
                             methods=("sandwich_normal",), alpha=0.05, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # first-call caches
        assert peak(2000) - peak(500) < 0.03e6

    def test_bootstrap_memory_does_not_grow_with_the_draws(self):
        # at B=2000 and B=4000, p=2, the draw budget holds 8 and 4 of the 16 replications a
        # bootstrap-free stack holds at n=500, so a stack's draw buffers are the same size, and
        # their peak may move by less than one buffer of the budget's doubles
        def peak(b):
            tracemalloc.start()
            try:
                run_coverage(Dgp("fixed_x_nonidentical_mean"), n=500, replications=16,
                             methods=BOOTSTRAP_METHODS, alpha=0.05, seed=1, b=b)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert simlab.DRAW_ENTRIES // (4000 * 2) >= 1
        peak(10)  # first-call caches
        assert peak(4000) - peak(2000) < 8 * simlab.DRAW_ENTRIES

    @pytest.mark.parametrize("edits, methods", [
        ({5: BIG_X}, TWICE),
        ({5: BIG_Y}, TWICE),
        ({5: BIG_Y}, ("classical_normal",)),
        ({4: BIG_Y, 5: BIG_X}, ("bootstrap_rectangle", "classical_normal")),
        ({1: SINGULAR, 4: None}, INTERVALS),
        ({1: BIG_X, 4: None}, INTERVALS),
        ({0: None}, INTERVALS),
        (dict.fromkeys(range(7), SINGULAR), TWICE),
        ({4: ZERO_RESIDUALS, 5: BIG_Y}, TWICE),
        ({4: BIG_Y, 5: ZERO_RESIDUALS}, TWICE),
        ({4: ZERO_RESIDUALS, 5: BIG_Y}, BOOTSTRAP_METHODS[1:]),
        ({4: ZERO_RESIDUALS, 5: BIG_Y}, TEST_FIRST),
        ({4: RANK_ONE_SCORES, 5: BIG_Y}, TWICE),
        ({4: BIG_Y, 5: RANK_ONE_SCORES}, TWICE),
    ], ids=[
        "design-overflow", "meat-overflow", "rss-overflow", "earlier-overflow-first",
        "sample-error-after-singular", "overflow-before-sample-error", "sample-error-first",
        "all-singular", "zero-studentizer-first", "meat-overflow-before-zero-studentizer",
        "zero-studentizer-in-the-test", "zero-studentizer-test-first", "score-pivot-first",
        "meat-overflow-before-score-pivot",
    ])
    @pytest.mark.parametrize("size", [3, None], ids=["stacks-of-3", "one-stack"])
    @pytest.mark.filterwarnings("error")
    def test_errors_match_one_replication_at_a_time(self, monkeypatch, edits, methods, size):
        # a replication mapped to None cannot be drawn; a stack's failing rows do not warn
        def edit(key, x, y):
            if key[1] not in edits:
                return x, y
            if edits[key[1]] is None:
                return None
            fields = {"x": x, "y": y}
            fields.update({name: change(Dataset(x=x, y=y)) for name, change in edits[key[1]].items()})
            return fields["x"], fields["y"]

        edit_draws(monkeypatch, edit)
        if size is not None:
            monkeypatch.setattr(simlab, "STACK_ENTRIES", size * 30 * 2)
        args = (Dgp("heteroscedastic_iid"), 30, 7, methods, 0.1, 2)
        expected = outcome(coverage_one_at_a_time, *args, b=40)
        # every case raises, so edits that never reach the draws show up as a report
        gate_errors = (ValueError, NonFiniteValue, SingularDesign, ZeroVariance, NotPositiveDefinite)
        assert expected[0] in gate_errors
        assert outcome(coverage_stacked, *args, b=40) == expected

    # y = 1e308 (1 + u) + eps overflows where u > 0.8: at n=1, whose designs are all singular, seed 3
    # first does so at replication 4; at n=3, seed 0 does at replication 1, after one whose meat overflows
    @pytest.mark.parametrize("n, seed, expected", [
        (1, 3, (ValueError, NON_FINITE)),
        (3, 0, (NonFiniteValue, "k_check, the sandwich meat matrix, is outside double range")),
    ], ids=["excluded-then-draw-error", "meat-error-first"])
    @pytest.mark.filterwarnings("error")
    def test_draw_failing_mid_stack_comes_after_the_replications_before_it(self, n, seed, expected):
        dgp = Dgp("linear_homoscedastic", beta=(1e308, 1e308))
        failing = [r for r in range(6) if outcome(sample, dgp, n, (seed, r)) == (ValueError, NON_FINITE)]
        assert 0 < failing[0] < simlab.STACK_ENTRIES // (n * 2)
        args = (dgp, n, 6, INTERVALS, 0.1, seed)
        assert outcome(coverage_one_at_a_time, *args) == expected
        assert outcome(coverage_stacked, *args) == expected

    def test_objects_once_per_stack_and_a_flagged_stack_replays_by_refitting(self, monkeypatch):
        counts = collections.Counter()
        for cls in (Dataset, VarianceEstimate, BootstrapDraws, Studentized, ConfidenceRegion,
                    leanreg.inference.TestResult):
            def init(self, *args, _init=cls.__init__, **kwargs):
                counts[type(self).__name__] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", init)

        def fit(self, *args, _init=OlsFit.__init__):
            counts["OlsFit"] += 1
            _init(self, *args)

        monkeypatch.setattr(OlsFit, "__init__", fit)
        real_cholesky, real_qr = np.linalg.cholesky, np.linalg.qr

        def cholesky(a, *args, **kwargs):
            counts["cholesky"] += np.asarray(a)[..., 0, 0].size
            return real_cholesky(a, *args, **kwargs)

        def qr(a, *args, **kwargs):
            counts["qr"] += np.asarray(a)[..., 0, 0].size
            return real_qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        monkeypatch.setattr(np.linalg, "qr", qr)
        # the 7 replications are one stack, fitted and factored once, with one of each object
        # for the sandwich, the draws, the max-|t| reference the rectangle and the test share
        # in either order, the test and each of the two regions; no Dataset
        args = (Dgp("heteroscedastic_iid"), 30, 7, BOOTSTRAP_METHODS, 0.1, 2)
        once = {"OlsFit": 1, "cholesky": 7, "qr": 7, "VarianceEstimate": 1, "BootstrapDraws": 1,
                "Studentized": 1, "ConfidenceRegion": 2, "TestResult": 1}
        for methods in (BOOTSTRAP_METHODS, TEST_FIRST):
            counts.clear()
            run_coverage(*args[:3], methods, *args[4:], b=40)
            assert counts == once, methods
        # replication 3, edited as RANK_ONE_SCORES edits, passes the rectangle and the test and
        # fails the ellipsoid's gate. The stack gets that far; then replications 0 to 3 are
        # refitted alone, each with its own sigma_hat and score factorization, and run alone
        # until replication 3 raises: 3 full replications and one that stops at the ellipsoid
        counts.clear()

        def edit(key, x, y):
            if key[1] == 3:
                x[1], y[:] = x[0], 0.0
                y[:2] = 1.0, -1.0
            return x, y

        edit_draws(monkeypatch, edit)
        with pytest.raises(NotPositiveDefinite, match="Cholesky pivot 1 at or below"):
            run_coverage(*args, b=40)
        assert counts == {"OlsFit": 1 + 4, "cholesky": 7 + 4, "qr": 7 + 4,
                          "VarianceEstimate": 1 + 4, "BootstrapDraws": 1 + 4, "Studentized": 1 + 4,
                          "ConfidenceRegion": 1 + 3 * 2 + 1, "TestResult": 1 + 4}

    def test_degenerate_dof_matches_one_replication_at_a_time(self):
        # n = p = 2 on a fixed design: the fit is exact and the classical variance has no dof
        args = (Dgp("fixed_x_heteroscedastic"), 2, 5, TWICE, 0.1, 1)
        expected = outcome(coverage_one_at_a_time, *args, b=40)
        assert expected[0] is DegenerateDof
        assert outcome(coverage_stacked, *args, b=40) == expected

    def test_consistency_raises_for_the_first_failing_replication(self, monkeypatch):
        def edit(key, x, y):
            if key[2] == 6:
                return None
            if key[2] == 2:
                x[:, 1] = 0.5
            return x, y

        edit_draws(monkeypatch, edit)
        with pytest.raises(SingularDesign, match="not positive definite"):
            run_consistency(Dgp("quadratic_mean_iid"), [30], 8, seed=1)


def public_results(make_fit, keys, beta0) -> dict:
    """Each public function of a fit, by name: its result, the LeanRegError it raised, or None
    where one of its inputs raised. ``keys`` seed the draws, one per item of a stacked fit."""
    out = {}

    def run(name, call, *needs):
        if all(isinstance(out[need], (OlsFit, VarianceEstimate, BootstrapDraws, ConfidenceRegion))
               for need in needs):
            try:
                out[name] = call(*(out[need] for need in needs))
            except LeanRegError as exc:
                out[name] = exc
        else:
            out[name] = None

    run("fit", make_fit)
    run("k_check", k_check, "fit")
    run("sandwich_avar", sandwich_avar, "fit")
    run("residual_variance", residual_variance, "fit")
    run("classical_avar", classical_avar, "fit")
    run("run_bootstrap", lambda fit: run_bootstrap(fit, b=40, seed=keys), "fit")
    run("run_bootstrap/rademacher", lambda fit: run_bootstrap(fit, b=40, dist="rademacher", seed=keys), "fit")
    run("run_bootstrap/m-of-n", lambda fit: run_bootstrap(fit, b=40, m=20, seed=keys), "fit")
    run("studentizer", studentizer, "sandwich_avar")
    run("region_rectangle", lambda *a: region_rectangle(*a, 0.1), "fit", "run_bootstrap", "sandwich_avar")
    run("region_ellipsoid", lambda *a: region_ellipsoid(*a, 0.1), "fit", "run_bootstrap", "sandwich_avar")
    for region in ("region_rectangle", "region_ellipsoid"):
        run(f"{region}.contains", lambda r: r.contains(beta0), region)
    for reference in REFERENCES:
        run(f"max_t_test/{reference}",
            lambda fit, var, draws, ref=reference: max_t_test(fit, var, beta0, ref, draws=draws),
            "fit", "sandwich_avar", "run_bootstrap")
    return out


def result_fields(result) -> dict:
    """A result's values by field: an OlsFit's arrays, a dataclass's fields, or the value itself."""
    if isinstance(result, OlsFit):
        names = ("beta_hat", "sigma_hat", "gamma_hat", "residuals", "scores_hat", "r_s", "n", "p")
        return {name: getattr(result, name) for name in names}
    if dataclasses.is_dataclass(result):
        return {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    return {"": result}


class TestStackedPublicApi:
    """Each public function of a fit, on a 3-item stack: each item's bits, or the error of its
    first failing item, with that item's message and cause."""

    @pytest.mark.parametrize("edits", [
        {}, *({i: edit} for edit in (SINGULAR, BIG_X, BIG_Y, ZERO_RESIDUALS, RANK_ONE_SCORES)
                 for i in range(3)),
        {1: ZERO_RESIDUALS, 2: RANK_ONE_SCORES}, {1: RANK_ONE_SCORES, 2: ZERO_RESIDUALS},
        {0: BIG_Y, 2: SINGULAR}, {1: BIG_X, 2: SINGULAR}, {1: SINGULAR, 2: BIG_X},
    ])
    @pytest.mark.filterwarnings("error")
    def test_each_item_as_alone(self, edits):
        xs, ys = [], []
        for i in range(3):
            data = sample(Dgp("heteroscedastic_iid"), 30, (9, i))
            fields = {"x": data.x, "y": data.y}
            fields.update({name: change(data) for name, change in edits.get(i, {}).items()})
            xs.append(fields["x"])
            ys.append(fields["y"])
        x, y, keys, beta0 = np.stack(xs), np.stack(ys), [(9, i, 1) for i in range(3)], np.ones(2)
        stacked = public_results(lambda: OlsFit(x, y), keys, beta0)
        alone = [public_results(lambda i=i: fit_ols(Dataset(x=x[i], y=y[i])), keys[i], beta0)
                 for i in range(3)]
        assert stacked["fit"] is not None
        for name, result in stacked.items():
            if result is None:
                continue
            if isinstance(result, LeanRegError):
                first = next(a[name] for a in alone if isinstance(a[name], LeanRegError))
                assert type(result) is type(first), name
                assert str(result) == str(first), name
                assert repr(result.__cause__) == repr(first.__cause__), name
                continue
            assert not any(isinstance(a[name], LeanRegError) for a in alone), name
            for i, one in enumerate(alone):
                for field, value in result_fields(one[name]).items():
                    s, a = np.asarray(result_fields(result)[field]), np.asarray(value)
                    s = s[i] if s.shape == (3,) + a.shape else s
                    assert (s.shape, s.tobytes()) == (a.shape, a.tobytes()), (name, field, i)
        assert bool(edits) == any(isinstance(r, LeanRegError) for r in stacked.values())


    @pytest.mark.parametrize("seed", [3, [(9, 0, 1), (9, 1, 1)], [(9, i, 1) for i in range(4)]])
    def test_a_stacked_bootstrap_takes_one_key_per_item(self, seed):
        data = sample(Dgp("heteroscedastic_iid"), 30, (9, 0))
        fits = OlsFit(np.stack([data.x] * 3), np.stack([data.y] * 3))
        with pytest.raises(DimensionMismatch, match="a fit of 3 items needs as many seeds"):
            run_bootstrap(fits, b=10, seed=seed)


def test_simlab_reads_no_private_name_of_the_inference_modules():
    # simlab runs the same public functions as a caller; a private name would be a second path
    path = pathlib.Path(simlab.__file__)
    guarded = {"ols", "variance", "bootstrap", "inference"}
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = set()  # the names simlab binds to the guarded modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").rpartition(".")[2]
            for alias in node.names:
                if source in guarded and alias.name.startswith("_"):
                    found.append(f"from {node.module} import {alias.name}")
                if node.module in (None, "leanreg") and alias.name in guarded:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.rpartition(".")[2] in guarded:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            if ast.unparse(node.value) in modules or ast.unparse(node.value).rpartition(".")[2] in guarded:
                found.append(ast.unparse(node))
    assert found == []


class TestFactorizationCounts:
    """Each SPD matrix is factored once, by the code that builds it; a fit's scores are too."""

    @pytest.fixture
    def counts(self, monkeypatch):
        # a call on a stack of matrices counts each of them
        counts = collections.Counter()
        real_cholesky, real_qr = np.linalg.cholesky, np.linalg.qr
        real_k_check = leanreg.variance.k_check

        def cholesky(a, *args, **kwargs):
            counts["cholesky"] += np.asarray(a)[..., 0, 0].size
            return real_cholesky(a, *args, **kwargs)

        def qr(a, *args, **kwargs):
            counts["qr"] += np.asarray(a)[..., 0, 0].size
            return real_qr(a, *args, **kwargs)

        def k_check(fit):
            counts["k_check"] += fit.beta_hat[..., 0].size
            return real_k_check(fit)

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        monkeypatch.setattr(np.linalg, "qr", qr)
        # sandwich_avar, the one caller of k_check, looks it up in its module
        monkeypatch.setattr(leanreg.variance, "k_check", k_check)
        return counts

    def test_all_methods_replication_factors_sigma_hat_and_scores_once(self, counts):
        def run(replications):
            counts.clear()
            run_coverage(
                Dgp("fixed_x_nonidentical_mean"), n=60, replications=replications,
                methods=simlab.COVERAGE_METHODS, alpha=0.05, seed=5, b=50,
            )
            return dict(counts)

        one, three = run(1), run(3)
        # two more replications: sigma_hat and the scores factored, k_check built, once each;
        # the bootstrap draws and the ellipsoid read the scores' factor, so k_check is never
        # factored
        assert three["cholesky"] - one["cholesky"] == 2 * 1
        assert three["qr"] - one["qr"] == 2 * 1
        assert three["k_check"] - one["k_check"] == 2 * 1
        # run_coverage takes beta_n from the exact targets and factors no sigma_n
        assert one == {"cholesky": 1, "qr": 1, "k_check": 1}

    # one stack of 6, whose fit raises for the singular replication before any score exists:
    # a failed LAPACK call on the stack and then each item alone, or one call. The replay
    # refits the 6 replications alone: the singular one again fails one LAPACK call and then
    # its own matrix (2), or fails the pivot gate (1), and the 5 others factor sigma_hat once
    # each and, for the sandwich, their scores once each
    @pytest.mark.parametrize("step, factors", [(0.0, 6 + 6 + 2 + 5), (2.0**-24, 6 + 1 + 5)],
                             ids=["factorization", "pivot-gate"])
    def test_a_singular_replication_replays_its_stack_one_fit_at_a_time(self, counts, monkeypatch, step,
                                                                        factors):
        sample_one_singular(monkeypatch, 2, step)
        rep = run_coverage(
            Dgp("quadratic_mean_iid"), n=50, replications=6,
            methods=("sandwich_normal",), alpha=0.05, seed=8,
        )
        assert rep.excluded == 1
        assert counts["cholesky"] == factors
        assert counts["qr"] == 5

    @pytest.mark.parametrize("kind", ["quadratic_mean_iid", "fixed_x_nonidentical_mean"])
    def test_consistency_run_factors_only_its_fits(self, counts, kind):
        # beta_n comes from the exact targets, with no sigma_n factor per grid point; nothing
        # reads the scores' factor, so they are not factored
        run_consistency(Dgp(kind), [20, 40, 80], replications=5, seed=3)
        assert counts["cholesky"] == 3 * 5
        assert counts["qr"] == 0

    def test_classical_run_factors_no_scores(self, counts):
        # nothing reads the scores' factor, or k_check
        run_coverage(Dgp("heteroscedastic_iid"), n=60, replications=5, methods=("classical_normal",),
                     alpha=0.05, seed=5)
        assert counts == {"cholesky": 5}

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_population_targets_factors_sigma_n_at_most_once(self, counts, kind):
        # not even once: sigma_n^-1 is an exact target, rounded once
        population_targets(Dgp(kind), 50)
        assert counts["cholesky"] == 0

    @pytest.mark.parametrize("kind", ["quadratic_mean_iid", "fixed_x_nonidentical_mean"])
    def test_check_command_factors_three_matrices(self, counts, kind, capsys):
        # sigma_hat once (the fit carries it) and det_inequality_check's own
        # pair; the targets carry sigma_n^-1, so they and influence_remainder
        # factor none. Nothing reads the scores' factor, so they are not factored
        assert main(["check", "--dgp", kind, "--n", "200", "--seed", "3"]) == 0
        capsys.readouterr()
        assert counts["cholesky"] == 3
        assert counts["qr"] == 0


class TestRunConsistency:
    def test_returns_exactly_its_three_keys(self):
        rep = run_consistency(Dgp("quadratic_mean_iid"), [20, 40], replications=2, seed=3)
        assert set(rep) == {"n_grid", "median_error", "loglog_slope"}
        assert rep["n_grid"] == [20, 40]

    def test_noiseless_errors_vanish(self):
        dgp = Dgp("linear_homoscedastic", noise_scale=1e-12)
        rep = run_consistency(dgp, [50, 100], replications=10, seed=2)
        assert all(m <= 1e-10 for m in rep["median_error"])

    def test_root_n_rate_on_quadratic(self):
        rep = run_consistency(Dgp("quadratic_mean_iid"), [500, 1000, 2000, 4000], 120, seed=6)
        slope = rep["loglog_slope"]
        assert -0.65 <= slope <= -0.35
        med = rep["median_error"]
        # root-n rate: doubling n scales the median by 1/sqrt(2), quadrupling
        # halves it; both within 20 percent
        for a, b in zip(med, med[1:]):
            assert 0.8 / np.sqrt(2.0) <= b / a <= 1.2 / np.sqrt(2.0)
        for a, b in zip(med, med[2:]):
            assert 0.4 <= b / a <= 0.6

    def test_one_point_grid_has_no_slope(self):
        rep = run_consistency(Dgp("quadratic_mean_iid"), [40], replications=2, seed=3)
        assert rep["n_grid"] == [40] and rep["median_error"][0] > 0
        assert np.isnan(rep["loglog_slope"])

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            run_consistency(Dgp("quadratic_mean_iid"), [100, 100], 2, seed=0)

    @pytest.mark.parametrize("replications", [0, -1])
    def test_needs_a_replication(self, replications):
        with pytest.raises(ValueError, match="need at least one replication"):
            run_consistency(Dgp("quadratic_mean_iid"), [10, 20], replications, seed=1)

    @pytest.mark.parametrize("kind", ["quadratic_mean_iid", "fixed_x_heteroscedastic"])
    @pytest.mark.parametrize("n_grid", [[0, 10], [-3]])
    def test_needs_every_grid_point_at_least_one(self, kind, n_grid):
        with pytest.raises(ValueError, match="need n >= 1"):
            run_consistency(Dgp(kind), n_grid, 2, seed=1)


# an oracle's Monte Carlo mean may stray 4 SE from its exact value; a family of k such
# means shares that false-alarm rate, Bonferroni split over its members
def bonferroni_se(k: int) -> float:
    gauss = statistics.NormalDist()
    return gauss.inv_cdf(1.0 - gauss.cdf(-4.0) / k)


class TestExactLawOracles:
    """Monte Carlo results against laws that hold exactly at every n, not a parent's bits."""

    @pytest.mark.parametrize("p, n, replications", [
        (2, 500, 4000), (5, 12, 4000), (11, 30, 4000), (21, 100, 4000), (2, 4, 4000),
        # one full stack of replications, and one more in a stack of its own
        (2, 4, simlab.STACK_ENTRIES // 8), (2, 4, simlab.STACK_ENTRIES // 8 + 1),
    ])
    def test_classical_coverage_is_the_student_t_probability(self, p, n, replications):
        # gaussian noise, a correct model and RSS / (n - p): each classical t is exactly t_{n-p}
        rep = run_coverage(Dgp("linear_homoscedastic", p=p), n=n, replications=replications,
                           methods=("classical_normal",), alpha=0.05, seed=7)
        exact = 2.0 * stats.t.cdf(statistics.NormalDist().inv_cdf(0.975), n - p) - 1.0
        se = np.sqrt(exact * (1.0 - exact) / replications)
        assert rep.excluded == 0
        assert np.abs(np.array(rep.coverage["classical_normal"]) - exact).max() <= bonferroni_se(p) * se

    def test_fixed_design_estimator_law(self):
        # with gaussian noise beta_hat is linear in y, so sqrt(n) (beta_hat - beta_n) is exactly
        # N(0, av_n). The two fixed kinds share the design and the noise, so one run checks both
        dgp, n, replications = Dgp("fixed_x_nonidentical_mean"), 40, 20000
        pop = population_targets(dgp, n)
        errors = np.empty((replications, dgp.p))
        for reps, x, y in simlab._sample_stacks(dgp, n, replications, (16,)):
            fits = OlsFit(x, y)  # raises if a replication fails a gate
            errors[reps.start : reps.stop] = fits.beta_hat - pop.beta_n

        def form(avar):
            return n * np.einsum("ri,ij,rj->r", errors, np.linalg.inv(avar), errors)

        assert stats.kstest(form(pop.av_n), "chi2", args=(dgp.p,)).pvalue >= 2 * stats.norm.cdf(-4.0)
        # against the conservative av_n_star the form averages tr(av_n_star^-1 av_n) < p
        star = form(pop.av_n_star)
        exact = np.trace(np.linalg.solve(pop.av_n_star, pop.av_n))
        assert exact < dgp.p
        assert abs(star.mean() - exact) <= 4.0 * star.std() / np.sqrt(replications)

    def test_meat_conditional_mean(self):
        # homoscedastic gaussian noise at a fixed X: E[e_i^2 | X] = s^2 (1 - h_i) (MacKinnon and
        # White 1985), so E[k_check | X] = (s^2 / n) sum_i (1 - h_i) x_i x_i'
        n, p, s, replications = 40, 3, 2.0, 4000
        rng = np.random.default_rng(13)
        x = np.column_stack([np.ones(n), rng.random((n, p - 1))])
        y = x @ np.ones(p) + s * rng.standard_normal((replications, n))
        # the fit raises if a replication fails its gates, and k_check if one overflows
        meat = k_check(OlsFit(np.broadcast_to(x, (replications, n, p)), y))
        h = np.einsum("ij,ji->i", x, np.linalg.solve(x.T @ x, x.T))
        exact = s**2 * (x.T * (1.0 - h)) @ x / n
        se = meat.std(axis=0) / np.sqrt(replications)
        rows, cols = np.triu_indices(p)  # the distinct entries of a symmetric matrix
        bound = bonferroni_se(rows.size) * se[rows, cols]
        assert (np.abs(meat.mean(axis=0) - exact)[rows, cols] <= bound).all()
        # the oracle has power: the meat without its leverage factor, s^2 sigma_hat, is rejected
        assert (np.abs(meat.mean(axis=0) - s**2 * x.T @ x / n)[rows, cols] > bound).any()
