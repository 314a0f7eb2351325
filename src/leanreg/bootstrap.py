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
replicate rather than O(np), all B in one matmul. Rademacher weights (bounded,
kurtosis 1 against the gaussian's 3) are offered as the lighter-tailed alternative.

The resample size m alone picks the scheme: ``m=None`` gives the multiplier
bootstrap with gaussian or rademacher weights, an integer m the m-of-n
resampling bootstrap, whose counts follow no weight law. Each run draws all
its replicates, in order, from one generator keyed by the seed, so results
depend only on the seed.

Each function here takes a fit, its draws and its variance estimate with
any leading stack axes, as ``simlab.run_coverage`` passes a stack of
replications: each item gets the bits it gets alone, and the error raised is
that of the first item that fails a gate.
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
# Each block of m-of-n replicates holds at most about this many index entries, and each block of
# rademacher replicates the bytes of about this many signs, unpacked one 16-row call group at a time,
# so peak memory does not grow with B on tall data; gaussian draws take no weights and no blocks.
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
    """B bootstrap replicates of the score statistic, for each item of a fit.

    ``draws_t`` holds the raw statistics (rows t_star_b, (..., B, p));
    ``draws_u`` holds sigma_hat^-1 @ t_star_b, the same draws moved to the
    coefficient scale, which is what confidence regions for the target are
    built from. ``m`` is the resample size of an m-of-n run and None for a
    multiplier run, whose weight law ``dist`` names; ``method`` is derived
    from ``m``. The caller keeps the seed.
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
    more. A stacked fit takes one key per item, in C order, in ``seed``, and
    each item's draws come from its own key's generator, with the bits of a
    run on that item alone. Gaussian multiplier draws are Z @ R_s / sqrt(n),
    C-ordered as the CLI's draws_mean sums in memory order, with Z the
    generator's B x p standard normals, row-major, and R_s the fit's
    triangular factor of scores_hat, ``fit.r_s``.
    The other draws are filled in blocks of rows as W @ scores_hat /
    sqrt(scale): W holds rademacher weights (scale n) or, for the m-of-n
    bootstrap, how often each score row is among m rows drawn with
    replacement (scale m). The rademacher weights are the B x n sign matrix
    unpacked, most significant bit first and row-major, from the generator's
    first ceil(B*n/8) bytes: bit 1 is +1 and bit 0 is -1. Each block's
    product adds, in a fixed order, GEMM calls of 16 rows by 2**18 // (16 p)
    observations, which OpenBLAS runs on one thread; p = 1 scores get a zero
    column, as numpy sends one column to GEMV or DOT, which thread sooner. So
    no draw depends on the BLAS thread count.
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
    stack, n, p = fit.beta_hat.shape[:-1], fit.n, fit.p
    keys = list(seed) if stack and np.iterable(seed) else [seed]
    if len(keys) != math.prod(stack):
        raise DimensionMismatch(f"a fit of {math.prod(stack)} items needs as many seeds, got {len(keys)}")

    draws_t = np.empty(stack + (b, p))
    for key, out, scores in zip(keys, draws_t.reshape(-1, b, p), fit.scores_hat.reshape(-1, n, p)):
        rng = np.random.default_rng(key)
        if dist == "gaussian":
            rng.standard_normal(out=out)
        else:
            out[...] = _weighted_draws(scores, b, m, rng)
    if dist == "gaussian":
        draws_t = draws_t @ fit.r_s / math.sqrt(n)
    draws_u = (fit.sigma_hat_inv @ draws_t.swapaxes(-1, -2)).swapaxes(-1, -2)
    return BootstrapDraws(b=b, m=m, dist=dist, draws_t=draws_t, draws_u=draws_u)


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
            packed = np.frombuffer(rng.bytes(-(-k * n // 8)), np.uint8)
        block = draws_t[start : start + k]
        for r in range(0, k, _CALL_ROWS):
            if m is None:
                # one call group's signs at a time, from byte r * n / 8 = 2 n (r / 16), released below
                rows_w = np.unpackbits(packed[r * n // 8 :], count=min(_CALL_ROWS, k - r) * n)
                rows_w = rows_w.reshape(-1, n).view(np.int8)
                rows_w *= 2  # 0 and 1, mapped in place to -1 and +1
                rows_w -= 1
            else:
                rows_w = w[r : r + _CALL_ROWS]
            for o in range(0, n, cols):
                block[r : r + _CALL_ROWS] += rows_w[:, o : o + cols] @ scores[o : o + cols]
            del rows_w  # before the next group's signs are unpacked
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


@dataclass(frozen=True)
class Studentized:
    """Each item's scales d, the max-|t| reference ref over its draws, and ref's critical value crit."""

    d: np.ndarray
    ref: np.ndarray | None
    crit: np.ndarray | None


def studentizer(
    var: VarianceEstimate, draws: BootstrapDraws | None = None, coords=slice(None), alpha: float | None = None
) -> Studentized:
    """The one gate on zero and non-finite variances, and the one place the max-|t| reference is formed.

    d = sqrt(diag(avar)[coords]); given draws, ref_b = max_j |u_star_b[j]| / d[j] for each draw; given
    alpha, crit is ref's (1-alpha) order statistic, gated off zero in the same pass as the variances.
    """
    d2 = np.diagonal(var.avar, axis1=-2, axis2=-1)[..., coords]
    with np.errstate(divide="ignore", invalid="ignore"):  # an item that fails a gate raises below
        d = np.sqrt(d2)
        ref = None if draws is None else np.abs(draws.draws_u[..., coords] / d[..., None, :]).max(axis=-1)
        crit = None if alpha is None else _order_stat_quantile(ref, alpha)
    linalg._raise_first(
        (~np.isfinite(d2).all(axis=-1), NonFiniteValue("a coordinate's estimated variance is infinite or NaN")),
        ((d2 <= 0.0).any(axis=-1), ZeroVariance("a coordinate has zero estimated variance")),
        # without alpha, None == 0.0 fails no item
        (crit == 0.0, ZeroVariance("all bootstrap draws are zero; the region is degenerate")),
    )
    return Studentized(d=d, ref=ref, crit=crit)


@dataclass(frozen=True)
class ConfidenceRegion:
    """A rectangle or ellipsoid confidence region for the target coefficients.

    Rectangles are products of per-coordinate intervals
    center[j] +/- half_widths[j]. Ellipsoids are
    {beta : n * (center - beta)' quad_form (center - beta) <= radius}.
    The regions of a stacked fit hold one center, and one set of half widths
    or one quad_form and radius, per item, over the leading axes.
    """

    shape: str
    level: float
    center: np.ndarray
    n: int
    half_widths: np.ndarray | None = None
    quad_form: np.ndarray | None = None
    radius: float | np.ndarray | None = None

    def contains(self, beta) -> bool | np.ndarray:
        """Whether beta is in the region: a bool, or an array over the stack axes of stacked regions."""
        beta = np.asarray(beta, dtype=float).ravel()
        if beta.shape != self.center.shape[-1:]:
            raise DimensionMismatch(f"beta has shape {beta.shape}, expected {self.center.shape[-1:]}")
        delta = self.center - beta
        if self.half_widths is not None:
            inside = (np.abs(delta) <= self.half_widths).all(axis=-1)
        else:
            inside = ((self.n * delta)[..., None, :] @ self.quad_form @ delta[..., None])[..., 0, 0] <= self.radius
        return bool(inside) if inside.ndim == 0 else inside


def region_rectangle(
    fit: OlsFit, draws: BootstrapDraws, var: VarianceEstimate, alpha: float, studentized: Studentized | None = None
) -> ConfidenceRegion:
    """Simultaneous studentized rectangle from max-|t| bootstrap quantiles.

    The critical value is the ceil((1-alpha)(B+1)) order statistic of the
    reference max_j |u_star_b[j]| / sqrt(avar[j, j]) over replicates, and the
    interval half width for coordinate j is that critical value times se[j].
    So for ceil((1-alpha)(B+1)) <= B, beta0 is outside iff the bootstrap
    ``max_t_test`` on the same draws rejects it at alpha; for fewer draws the
    largest draw stands in, and that test, whose p-value is at least 1/(B+1),
    never rejects. The critical value of a given ``studentizer(var, draws)``
    comes from its reference at this alpha; without one, ``studentizer(var,
    draws, alpha=alpha)`` gates it with the variances, as a stack needs.
    """
    if not var.is_sandwich():
        raise ValueError("rectangle regions studentize with a sandwich variance estimate")
    if studentized is None:
        studentized = studentizer(var, draws, alpha=alpha)
        crit = studentized.crit
    else:
        crit = _order_stat_quantile(studentized.ref, alpha)
        linalg._raise_first((crit == 0.0, ZeroVariance("all bootstrap draws are zero; the region is degenerate")))
    return ConfidenceRegion(
        shape="rectangle",
        level=1.0 - alpha,
        center=fit.beta_hat,
        n=fit.n,
        half_widths=crit[..., None] * studentized.d / math.sqrt(fit.n),
    )


def region_ellipsoid(
    fit: OlsFit, draws: BootstrapDraws, var: VarianceEstimate, alpha: float
) -> ConfidenceRegion:
    """Ellipsoid region from bootstrap quantiles of t_star' k_check^-1 t_star.

    ``var`` must be a sandwich estimate; its meat k_check = R_s' R_s / n is read
    from the fit's factor R_s of the scores, gated as a Cholesky factor is. The
    statistic is n ||R_s^-T t_star||^2 and the quadratic form on coefficients
    sigma_hat k_check^-1 sigma_hat = D'D, D = sqrt(n) R_s^-T sigma_hat, so beta is
    inside iff sqrt(n) sigma_hat (beta_hat - beta) is inside the k_check ellipsoid.
    R_s^-T is formed once, by one LAPACK inverse over the stack, for both products.
    """
    if not var.is_sandwich():
        raise ValueError("ellipsoid regions are built on the sandwich meat k_check")
    r_s, n = fit.r_s, fit.n
    pivot = linalg._first_low_pivot(np.diagonal(r_s, axis1=-2, axis2=-1) ** 2, (r_s**2).sum(axis=-2))
    # an item that fails the gate is inverted as the identity, so LAPACK inverts the rest; it raises below
    r_inv_t = np.linalg.inv(np.where((pivot >= 0)[..., None, None], np.eye(fit.p), r_s.swapaxes(-1, -2)))
    with np.errstate(all="ignore"):  # a near-singular factor's products may overflow
        w = r_inv_t @ draws.draws_t.swapaxes(-1, -2)
        d = math.sqrt(n) * (r_inv_t @ fit.sigma_hat)
        radius = _order_stat_quantile(n * (w * w).sum(axis=-2), alpha)
    linalg._raise_first((pivot >= 0, lambda k: linalg._not_positive_definite(int(np.ravel(pivot)[k]), fit.p)))
    return ConfidenceRegion(
        shape="ellipsoid",
        level=1.0 - alpha,
        center=fit.beta_hat,
        n=n,
        quad_form=d.swapaxes(-1, -2) @ d,
        radius=float(radius) if radius.ndim == 0 else radius,
    )
