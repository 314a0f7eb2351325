"""Exact rational oracles for the fit's sigma_hat^-1, both variance estimates and the ellipsoid's quadratic form.

The oracle takes the fit's own float sigma_hat, scores_hat and residuals as
exact rationals and forms, with ``Fraction`` arithmetic, sigma_hat^-1, the
sandwich sigma_hat^-1 k_check sigma_hat^-1, the classical sigma2 sigma_hat^-1
and the quadratic form sigma_hat k_check^-1 sigma_hat. Each float output must
lie within C * kappa * eps of its exact value, normwise and relative, where
kappa is the output's condition number (``error_ratios``).

The designs are small and badly scaled: column scales 2^k, near-collinear
columns, and tiny or huge responses, plus one offset design on which the
LAPACK inverse of the fit's Cholesky factor pivots. Power-of-two scales
change no rounding, so the errors are measured on the outputs rescaled by
the power of two nearest each column's root mean square, where sigma_hat has
a unit-order diagonal.
"""

from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leanreg import NotPositiveDefinite, OlsFit, classical_avar, region_ellipsoid, run_bootstrap, sandwich_avar

EPS = np.finfo(float).eps
# the largest ratio of error to kappa * eps allowed. Over 5000 designs of the strategy the
# worst ratios were 1.63 (sigma_hat_inv), 5.16 (sandwich), 3.23 (classical) and 3.85 (quadratic
# form), all at p = 1, where kappa is 1 and the error is a few roundings; 0.61 (sigma_hat_inv) where
# the column-scaled condition number exceeds 1e4. An inverse that squared kappa reads about kappa
C = 8.0


# x = (1, 50 + u): the Cholesky factor's L[1, 0] is about 50 L[0, 0], so np.linalg.inv's LU
# pivots, which leaves rounding residue above the diagonal of the fit's inverse factor
_U = np.random.default_rng(0).random(40)
OFFSET_DESIGN = (np.column_stack([np.ones(40), 50.0 + _U]), 2.0 * _U + np.cos(np.arange(40)))


@st.composite
def small_designs(draw):
    """(x, y): n <= 40, p <= 4, column scales 2^k with |k| <= 30, maybe near-collinear, responses 2^j."""
    p = draw(st.integers(1, 4))
    n = draw(st.integers(p + 1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, p))
    if p > 1 and draw(st.booleans()):
        # the last column is the first one plus 2^-k of itself: 1 - R^2 is about 2^-2k
        x[:, -1] = x[:, 0] + 2.0 ** -draw(st.integers(4, 20)) * x[:, -1]
    y = x @ rng.standard_normal(p) + (0.5 + np.abs(x[:, 0])) * rng.standard_normal(n)
    scales = 2.0 ** np.array(draw(st.lists(st.integers(-30, 30), min_size=p, max_size=p)))
    return x * scales, y * 2.0 ** draw(st.integers(-120, 120))


def _exact(a) -> list:
    """A float matrix as a list of rows of exact rationals."""
    return [[Fraction(v) for v in row] for row in np.asarray(a, dtype=float).tolist()]


def _matmul(a: list, b: list) -> list:
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def _inverse(a: list) -> list:
    """The exact inverse of a nonsingular rational matrix, by Gauss-Jordan elimination."""
    p = len(a)
    m = [row[:] + [Fraction(int(i == j)) for j in range(p)] for i, row in enumerate(a)]
    for j in range(p):
        pivot = next(i for i in range(j, p) if m[i][j] != 0)
        m[j], m[pivot] = m[pivot], m[j]
        m[j] = [v / m[j][j] for v in m[j]]
        for i in range(p):
            if i != j and m[i][j] != 0:
                m[i] = [v - m[i][j] * w for v, w in zip(m[i], m[j])]
    return [row[p:] for row in m]


def _scaled(a: list, d: np.ndarray) -> list:
    """D a D for the diagonal of powers of two d, exactly."""
    return [[v * Fraction(d[i]) * Fraction(d[j]) for j, v in enumerate(row)] for i, row in enumerate(a)]


def _float(a: list) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in a])


def _norm(a: np.ndarray) -> float:
    return np.linalg.norm(a, 2)


def exact_outputs(fit: OlsFit) -> dict:
    """sigma_hat^-1, the sandwich, the classical estimate and sigma_hat k_check^-1 sigma_hat, exactly."""
    n, p = fit.n, fit.p
    s = _exact(fit.sigma_hat)
    scores = _exact(fit.scores_hat)
    k = [[sum(row[i] * row[j] for row in scores) / n for j in range(p)] for i in range(p)]
    s_inv = _inverse(s)
    sigma2 = sum(Fraction(e) ** 2 for e in fit.residuals.tolist()) / (n - p)
    return {
        "sigma_hat_inv": s_inv,
        "sandwich": _matmul(_matmul(s_inv, k), s_inv),
        "classical": [[sigma2 * v for v in row] for row in s_inv],
        "quad_form": _matmul(_matmul(s, _inverse(k)), s),
        "k_check": k,
    }


def float_outputs(fit: OlsFit) -> dict:
    var_s = sandwich_avar(fit)
    out = {"sigma_hat_inv": fit.sigma_hat_inv, "sandwich": var_s.avar, "classical": classical_avar(fit).avar}
    try:
        out["quad_form"] = region_ellipsoid(fit, run_bootstrap(fit, b=1, seed=0), var_s, 0.5).quad_form
    except NotPositiveDefinite:  # k_check failed its pivot gate, so no ellipsoid exists
        pass
    return out


def error_ratios(fit: OlsFit) -> dict:
    """Each output's normwise relative error over kappa * eps, on the column-scaled outputs.

    With D the powers of two that bring sigma_hat to H = D^-1 sigma_hat D^-1,
    of unit-order diagonal, the inverse-like outputs A are compared as D A D,
    and the quadratic form Q as D^-1 Q D^-1. Their kappas: cond(H) for the
    sigma_hat^-1 and the classical estimate; cond(H) times ||H^-1||^2 ||K|| / ||A||
    for the sandwich, whose meat K (k_check, scaled alike) is formed apart from
    H; and cond(K) times ||H||^2 ||K^-1|| / ||Q|| for the quadratic form.
    """
    d = np.exp2(-np.frexp(np.sqrt(np.diagonal(fit.sigma_hat)))[1].astype(float))
    exact = exact_outputs(fit)
    h = fit.sigma_hat * np.outer(d, d)
    k = _float(_scaled(exact["k_check"], d))
    ratios = {}
    for name, value in float_outputs(fit).items():
        scale = d if name == "quad_form" else 1.0 / d
        truth = _scaled(exact[name], scale)
        got = _exact(value * np.outer(scale, scale))
        err = _norm(_float([[v - t for v, t in zip(vs, ts)] for vs, ts in zip(got, truth)]))
        size = _norm(_float(truth))
        if name == "sandwich":
            kappa = np.linalg.cond(h) * _norm(np.linalg.inv(h)) ** 2 * _norm(k) / size
        elif name == "quad_form":
            kappa = np.linalg.cond(k) * _norm(h) ** 2 * _norm(np.linalg.inv(k)) / size
        else:
            kappa = np.linalg.cond(h)
        ratios[name] = err / size / (kappa * EPS)
    return ratios


def test_the_offset_design_makes_lapack_pivot():
    lower = np.linalg.cholesky(OlsFit(*OFFSET_DESIGN).sigma_hat)
    assert abs(lower[1, 0]) > lower[0, 0]


@given(small_designs())
@example(OFFSET_DESIGN)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_outputs_are_within_c_kappa_eps_of_the_exact_values(design):
    fit = OlsFit(*design)
    for name, ratio in error_ratios(fit).items():
        assert ratio <= C, (name, ratio)


@given(small_designs())
@example(OFFSET_DESIGN)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_variance_estimates_are_bitwise_symmetric(design):
    fit = OlsFit(*design)
    for avar in (sandwich_avar(fit).avar, classical_avar(fit).avar):
        assert np.array_equal(avar, avar.T)
