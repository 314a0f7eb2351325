"""Multiplier and m-of-n resampling bootstraps on estimated scores.

Both schemes resample the estimated score rows s_i = x_i * e_i rather than
the observations themselves, so no bootstrap replicate ever has to solve a
(possibly singular) resampled linear system. The multiplier statistic is

    t_star = n^{-1/2} sum_i w_i s_i,   E[w]=0, E[w^2]=1,

and the resampling statistic draws m score rows uniformly with replacement
with m^{-1/2} scaling, which is the same sum with w_i the number of times
row i was drawn. Conditional on the data, gaussian multiplier draws are
exactly normal with covariance k_check = S'S/n, which is what makes them the
default weight choice. That law is also how they are drawn: with S = QR_s,
t_star = z' R_s / sqrt(n) for a standard normal p-vector z, at O(p^2) per
replicate rather than O(np). Rademacher weights (bounded, kurtosis 1 against
the gaussian's 3) are offered as the lighter-tailed alternative.

The resample size m alone picks the scheme: ``m=None`` gives the multiplier
bootstrap with gaussian or rademacher weights, an integer m the m-of-n
resampling bootstrap, whose counts follow no weight law. Each run draws all
its replicates, in order, from one generator keyed by the seed, so results
depend only on the seed.

The gaussian draws, the studentizer, the max-|t| reference, both regions and
the memberships each have one implementation, a kernel over leading stack
axes that reports its gates: the one-fit functions call it with no stack
axis, and ``simlab.run_coverage`` on a stack of replications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import DimensionMismatch, NonFiniteValue, ZeroVariance
from .ols import OlsFit
from .variance import VarianceEstimate

WEIGHT_DISTS = ("gaussian", "rademacher")
# Each block of rademacher or m-of-n replicates holds at most about this many
# weight or index entries, so peak memory does not grow with B on tall data;
# gaussian draws take no weights and no blocks.
_BLOCK_ENTRIES = 2**20
# A block of rademacher replicates is rounded up to a multiple of this many
# rows: 32 * n bits is a whole number of the generator's 32-bit words at
# every n, so the blocks' signs are the one B x n sign matrix.
_SIGN_BLOCK_ROWS = 32
# OpenBLAS runs a GEMM of at most 65536 * GEMM_MULTITHREAD_THRESHOLD (4) multiply-adds on one thread
_CALL_ROWS = 16
_CALL_MACS = 2**18


@dataclass(frozen=True)
class BootstrapDraws:
    """B bootstrap replicates of the score statistic.

    ``draws_t`` holds the raw statistics (rows t_star_b); ``draws_u`` holds
    sigma_hat^-1 @ t_star_b, the same draws moved to the coefficient scale,
    which is what confidence regions for the target are built from. ``m`` is
    the resample size of an m-of-n run and None for a multiplier run, whose
    weight law ``dist`` names; ``method`` is derived from ``m``. The caller
    keeps the seed.
    """

    b: int
    m: int | None
    dist: str | None
    draws_t: np.ndarray
    draws_u: np.ndarray

    @property
    def method(self) -> str:
        return "multiplier" if self.m is None else "resample_m_of_n"


def run_bootstrap(
    fit: OlsFit,
    b: int = 1000,
    m: int | None = None,
    dist: str = "gaussian",
    *,
    seed,
) -> BootstrapDraws:
    """Generate B independent bootstrap replicates.

    All replicates come, in order, from one ``np.random.default_rng(seed)``, so
    the output depends only on the seed, and fewer replicates are a prefix of
    more. Gaussian multiplier draws are Z @ R_s / sqrt(n) (``_gaussian_draws``),
    with Z the generator's B x p standard normals, row-major, and R_s the
    fit's triangular factor of scores_hat, ``fit.r_s``. The other draws are
    filled in blocks of rows as W @ scores_hat / sqrt(scale): W holds
    rademacher weights (scale n) or, for the m-of-n bootstrap, how often each
    score row is among m rows drawn with replacement (scale m). The
    rademacher weights are the B x n sign matrix unpacked, most significant
    bit first and row-major, from the generator's first ceil(B*n/8) bytes: bit
    1 is +1 and bit 0 is -1. Each block's product adds, in a fixed order, GEMM
    calls of 16 rows by 2**18 // (16 p) observations, which OpenBLAS runs on
    one thread; p = 1 scores get a zero column, as numpy sends one column to
    GEMV or DOT, which thread sooner. So no draw depends on the BLAS thread
    count.
    ``m=None`` runs the multiplier bootstrap with weight law ``dist``; an
    integer ``m`` runs the m-of-n bootstrap, which ignores ``dist`` and
    records ``dist=None``. m below n weakens the normal approximation.
    """
    if dist not in WEIGHT_DISTS:
        raise ValueError(f"unknown weight distribution {dist!r}; choose from {WEIGHT_DISTS}")
    if b < 1:
        raise ValueError("need at least one replicate")
    if m is not None:
        m, dist = int(m), None
        if m < 1:
            raise ValueError("resample size m must be >= 1")

    rng = np.random.default_rng(seed)
    if dist == "gaussian":
        draws_t = _gaussian_draws(rng.standard_normal((b, fit.p)), fit.r_s, fit.n)
    else:
        draws_t = _weighted_draws(fit.scores_hat, b, m, rng)
    draws_u = fit.solve(draws_t.T).T
    return BootstrapDraws(b=b, m=m, dist=dist, draws_t=draws_t, draws_u=draws_u)


def _gaussian_draws(z: np.ndarray, r_s: np.ndarray, n: int) -> np.ndarray:
    """Z R_s / sqrt(n) over leading stack axes of z (..., B, p) and r_s (..., p, p), with no BLAS call.

    Column k is sum_j Z[:, j] R_s[j, k], added from zero over j in order: p
    multiply-adds of B-long rows of a (..., p, B) array, so that numpy's inner
    loops run over the B draws, not over p. Its transpose is returned in C
    order: a reduction over the draws, such as the CLI's draws_mean, sums in
    memory order.
    """
    draws = np.zeros(z.shape[:-2] + (z.shape[-1], z.shape[-2]))
    for j in range(r_s.shape[-1]):
        draws += z[..., None, :, j] * r_s[..., j, :, None]
    draws /= math.sqrt(n)
    return draws.swapaxes(-1, -2).copy()


def _weighted_draws(scores: np.ndarray, b: int, m: int | None, rng: np.random.Generator) -> np.ndarray:
    """B draws W @ scores / sqrt(m or n) of (n, p) scores: rademacher weights for m=None, else m-of-n."""
    n, p = scores.shape
    rows = max(1, _BLOCK_ENTRIES // max(n, m or n))
    if m is None:
        rows = -(-rows // _SIGN_BLOCK_ROWS) * _SIGN_BLOCK_ROWS
    scores = scores if p > 1 else np.column_stack([scores, np.zeros(n)])
    cols = max(1, _CALL_MACS // (_CALL_ROWS * scores.shape[1]))
    draws_t = np.zeros((b, scores.shape[1]))
    for start in range(0, b, rows):
        k = min(rows, b - start)
        if m is not None:
            idx = rng.integers(0, n, (k, m))
            # shifting row r's indices by r * n lets one bincount count every row
            idx += n * np.arange(k)[:, None]
            w = np.bincount(idx.ravel(), minlength=k * n).reshape(k, n)
        else:
            bits = np.unpackbits(np.frombuffer(rng.bytes(-(-k * n // 8)), np.uint8), count=k * n)
            w = bits.reshape(k, n).view(np.int8)  # 0 and 1, mapped in place to -1 and +1
            w *= 2
            w -= 1
        block = draws_t[start : start + k]
        for r in range(0, k, _CALL_ROWS):
            for o in range(0, n, cols):
                block[r : r + _CALL_ROWS] += w[r : r + _CALL_ROWS, o : o + cols] @ scores[o : o + cols]
    return draws_t[:, :p] / math.sqrt(m or n)


def _quantile_rank(b: int, alpha: float) -> int:
    """ceil((1-alpha)(B+1)), the rank of the (1-alpha) quantile among B draws."""
    return math.ceil((1.0 - alpha) * (b + 1))


def clamped_quantile_warnings(b: int, alpha: float) -> list[str]:
    """The report warning for B draws too few to rank the (1-alpha) quantile; else none.

    That happens when B < (1-alpha)/alpha: the rank exceeds B, the largest
    draw stands in, and a region built on it covers with probability about
    B/(B+1), below its nominal level.
    """
    if _quantile_rank(b, alpha) <= b:
        return []
    return [
        f"B={b} draws are too few for the {1.0 - alpha:g} quantile (B < (1-alpha)/alpha); "
        f"the bootstrap regions use the largest draw, so their level is about "
        f"B/(B+1) = {b / (b + 1):.4g}"
    ]


def _order_stat_quantile(values: np.ndarray, alpha: float) -> np.ndarray:
    """Empirical (1-alpha) quantile as the ceil((1-alpha)(B+1)) order statistic, over leading stack axes.

    The index is clamped to B, so alpha near zero returns the largest draw
    (``clamped_quantile_warnings`` reports when). This leans conservative
    relative to interpolation-based quantiles.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    b = values.shape[-1]
    k = min(_quantile_rank(b, alpha), b)
    return np.partition(values, k - 1, axis=-1)[..., k - 1]


def _studentizer(avar: np.ndarray, coords=slice(None)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sqrt(diag(avar)[coords]) over leading stack axes, and per item: is one non-finite, is one <= 0."""
    d2 = np.diagonal(avar, axis1=-2, axis2=-1)[..., coords]
    return np.sqrt(d2), ~np.isfinite(d2).all(axis=-1), (d2 <= 0.0).any(axis=-1)


def studentizer(var: VarianceEstimate, coords=slice(None)) -> np.ndarray:
    """Scales d = sqrt(diag(avar)[coords]); the one gate on zero and non-finite variances."""
    d, non_finite, zero = _studentizer(var.avar, coords)
    if non_finite:
        raise NonFiniteValue("a coordinate's estimated variance is infinite or NaN")
    if zero:
        raise ZeroVariance("a coordinate has zero estimated variance")
    return d


def max_abs_t(u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """max_j |u[..., j]| / d[j] over the last axis: of draws_u's rows, the max-|t| reference."""
    return np.abs(u / d).max(axis=-1)


@dataclass(frozen=True)
class ConfidenceRegion:
    """A rectangle or ellipsoid confidence region for the target coefficients.

    Rectangles are products of per-coordinate intervals
    center[j] +/- half_widths[j]. Ellipsoids are
    {beta : n * (center - beta)' quad_form (center - beta) <= radius}.
    """

    shape: str
    level: float
    center: np.ndarray
    n: int
    half_widths: np.ndarray | None = None
    quad_form: np.ndarray | None = None
    radius: float | None = None

    def contains(self, beta) -> bool:
        beta = np.asarray(beta, dtype=float).ravel()
        if beta.shape != self.center.shape:
            raise DimensionMismatch(f"beta has shape {beta.shape}, expected {self.center.shape}")
        return bool(_contains(self.center - beta, self.n, self.half_widths, self.quad_form, self.radius))


def _contains(delta: np.ndarray, n: int, half_widths=None, quad_form=None, radius=None) -> np.ndarray:
    """Whether beta = center - delta is in each rectangle, else each ellipsoid, over leading stack axes."""
    if half_widths is not None:
        return np.all(np.abs(delta) <= half_widths, axis=-1)
    return ((n * delta)[..., None, :] @ quad_form @ delta[..., None])[..., 0, 0] <= radius


def region_rectangle(
    fit: OlsFit, draws: BootstrapDraws, var: VarianceEstimate, alpha: float
) -> ConfidenceRegion:
    """Simultaneous studentized rectangle from max-|t| bootstrap quantiles.

    The critical value is the (1-alpha) order-statistic quantile of
    max_j |u_star_b[j]| / sqrt(avar[j, j]) over replicates, and the interval
    half width for coordinate j is that critical value times se[j].
    """
    if not var.is_sandwich():
        raise ValueError("rectangle regions studentize with a sandwich variance estimate")
    d = studentizer(var)
    crit, half_widths = _rectangle(max_abs_t(draws.draws_u, d), d, fit.n, alpha)
    if crit == 0.0:
        raise ZeroVariance("all bootstrap draws are zero; the region is degenerate")
    return ConfidenceRegion(
        shape="rectangle",
        level=1.0 - alpha,
        center=fit.beta_hat,
        n=fit.n,
        half_widths=half_widths,
    )


def _rectangle(ref: np.ndarray, d: np.ndarray, n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The critical value crit of the max-|t| reference and half widths crit * d / sqrt(n), over stacks."""
    crit = _order_stat_quantile(ref, alpha)
    return crit, crit[..., None] * d / math.sqrt(n)


def region_ellipsoid(
    fit: OlsFit, draws: BootstrapDraws, var: VarianceEstimate, alpha: float
) -> ConfidenceRegion:
    """Ellipsoid region from bootstrap quantiles of t_star' k_check^-1 t_star.

    ``var`` must be a sandwich estimate; its meat k_check = R_s' R_s / n is read
    from the fit's factor R_s of the scores, gated as a Cholesky factor is. The
    statistic is n ||R_s^-T t_star||^2 and the quadratic form on coefficients
    sigma_hat k_check^-1 sigma_hat = D'D, D = sqrt(n) R_s^-T sigma_hat, so beta is
    inside iff sqrt(n) sigma_hat (beta_hat - beta) is inside the k_check ellipsoid.
    """
    if not var.is_sandwich():
        raise ValueError("ellipsoid regions are built on the sandwich meat k_check")
    pivot, quad_form, radius = _ellipsoid(fit.r_s, draws.draws_t, fit.sigma_hat, fit.n, alpha)
    if pivot >= 0:
        raise linalg._not_positive_definite(int(pivot), fit.p)
    return ConfidenceRegion(
        shape="ellipsoid",
        level=1.0 - alpha,
        center=fit.beta_hat,
        n=fit.n,
        quad_form=quad_form,
        radius=float(radius),
    )


def _ellipsoid(r_s, draws_t, sigma_hat, n: int, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``region_ellipsoid`` over leading stack axes: R_s's gate pivot (-1 passes), quad_form, radius."""
    pivot = linalg._first_low_pivot(np.diagonal(r_s, axis1=-2, axis2=-1) ** 2, (r_s**2).sum(axis=-2))
    r_t = r_s.swapaxes(-1, -2)
    with np.errstate(all="ignore"):  # a factor that fails the gate gives placeholders; its caller raises
        w = linalg._apply_factor(r_t, draws_t.swapaxes(-1, -2), forward_only=True)
        d = math.sqrt(n) * linalg._apply_factor(r_t, sigma_hat, forward_only=True)
        return pivot, d.swapaxes(-1, -2) @ d, _order_stat_quantile(n * (w * w).sum(axis=-2), alpha)
