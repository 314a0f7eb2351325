"""Simulation laboratory: data-generating processes with exact population
targets, and a Monte Carlo engine for coverage, type-I error and rate studies.

Every shipped DGP has computable population quantities: the target
coefficients beta_n, the moment matrices sigma_n and gamma_n, the true score
covariance k_n, its estimable upper bound k_n_star, and the corresponding
coefficient-scale variances av_n and av_n_star. Random-covariate kinds keep
all covariates supported on [0, 1], so every moment needed anywhere (sixth
moments included) is finite by construction.

Canonical parameterizations (fixed so the acceptance numbers are stable):

- linear_homoscedastic: x = (1, u_1, ..., u_{p-1}) iid uniform,
  y = x' beta + noise_scale * eps. The one correctly specified kind.
- quadratic_mean_iid: x = (1, u), y = u^2 + noise_scale * eps
  (noise_scale 0.1); the mean is curved so the linear target is a genuine
  projection, beta_n = (-1/6, 1).
- heteroscedastic_iid: x = (1, u), y = 1 + u + noise_scale
  * (0.2 + |u - 1/2|) * eps; linear mean, covariate-dependent noise.
- fixed_x_heteroscedastic: design u_i = i/n, mean 1 + u_i (linear),
  sd_i = noise_scale * (0.1 + u_i).
- fixed_x_nonidentical_mean: same design and sd, mean u_i^2; the
  per-observation score means are nonzero (averaging to zero) and
  k_n is strictly below k_n_star.

Each p=2 kind's mean and sd profile is written once, in ``_profile``. One
cached routine builds every kind's targets in rational arithmetic: it averages
exactly over u ~ U[0, 1] for a random-x kind and over the design u_i = i/n
for a fixed one, and forms both sandwiches from the closed-form inverse of
sigma_n. Each target is rounded to float once. A fixed design's k_n is its
noise alone; k_n_star adds the mean's misfit to the linear target.

Replication r of a Monte Carlo run draws from ``np.random.default_rng(key(r))``
for one key function of r, (seed, r) or (seed, grid-index, r), so reports
depend only on the seed. The runs draw and fit replications in stacks, each
a range of r of about STACK_ENTRIES design entries (n * p): each generator
draws into its rows of the stack's buffers, and the responses are formed
once for the stack. A run with bootstrap methods also holds at most
DRAW_ENTRIES draw entries (B * p) per stack. The stack is then fitted as one
``OlsFit``, with no ``Dataset``, and run through the same public functions a
caller runs on one fit (the sandwich, the draws from the (seed, r, 1) keys,
the regions and the test), which give each item the bits of one replication
on its own. A loop adds the tally rows in replication order, so a report
keeps its bits whatever the stack size; the budgets only bound the buffers'
memory.
"""

from __future__ import annotations

import array
import functools
import statistics
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import comb

import numpy as np

from . import linalg
from .bootstrap import WEIGHT_DISTS, region_ellipsoid, region_rectangle, run_bootstrap
from .exceptions import DimensionMismatch, LeanRegError, SingularDesign
from .inference import max_t_test
from .ols import Dataset, OlsFit, scores_at
from .variance import classical_avar, sandwich_avar

_DEFAULT_NOISE = {
    "linear_homoscedastic": 1.0,
    "quadratic_mean_iid": 0.1,
    "heteroscedastic_iid": 1.0,
    "fixed_x_heteroscedastic": 1.0,
    "fixed_x_nonidentical_mean": 1.0,
}

DGP_KINDS = tuple(_DEFAULT_NOISE)

# design entries (n * p) per stack of Monte Carlo replications: 16 replications at n=500, p=2;
# the stack's buffers and temporaries grow with it, and the reports do not depend on it
STACK_ENTRIES = 1 << 14
# bootstrap draw entries (B * p) per stack of replications: 16 replications at B=1000, p=2; a stack's
# draw buffers and their temporaries grow with it, so this, not B, bounds their memory
DRAW_ENTRIES = 1 << 15

# each Monte Carlo method's kind: per-coordinate intervals, a joint region, or a test of the
# true null; the kind fixes a method's tallies and whether it needs bootstrap draws
METHOD_KINDS = {
    "classical_normal": "interval",
    "sandwich_normal": "interval",
    "bootstrap_rectangle": "rectangle",
    "bootstrap_ellipsoid": "ellipsoid",
    "max_t_bootstrap": "test",
}

COVERAGE_METHODS = tuple(METHOD_KINDS)


@dataclass(frozen=True)
class Dgp:
    """A simulation scenario. Only linear_homoscedastic supports p > 2."""

    kind: str
    p: int = 2
    noise_scale: float | None = None
    beta: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in DGP_KINDS:
            raise ValueError(f"unknown DGP kind {self.kind!r}; choose from {DGP_KINDS}")
        if self.p < 2:
            raise ValueError("DGPs need p >= 2 (ones column plus at least one covariate)")
        if self.p > 2 and self.kind != "linear_homoscedastic":
            raise ValueError(f"{self.kind} is a canonical p=2 scenario")
        noise = _DEFAULT_NOISE[self.kind] if self.noise_scale is None else float(self.noise_scale)
        object.__setattr__(self, "noise_scale", noise)
        if not (np.isfinite(self.noise_scale) and self.noise_scale > 0.0):
            raise ValueError(f"noise_scale must be positive and finite, got {self.noise_scale}")
        if self.kind == "linear_homoscedastic":
            beta = tuple(float(c) for c in (np.ones(self.p) if self.beta is None else self.beta))
            if len(beta) != self.p or not np.all(np.isfinite(beta)):
                raise ValueError(f"beta must have p={self.p} finite entries, got {beta}")
            object.__setattr__(self, "beta", beta)
        elif self.beta is not None:
            raise ValueError(f"{self.kind} has a fixed canonical mean; beta is not a parameter")

    @property
    def is_fixed_design(self) -> bool:
        return self.kind.startswith("fixed_x")


@dataclass(frozen=True)
class PopulationTargets:
    """Exact population quantities for one (dgp, n) scenario.

    beta_n to av_n_star are exact rationals, each rounded once to float.
    ``score_means`` is zero for an iid kind; for a fixed design it is a float
    evaluation at the rounded beta_n. ``solve`` is b -> sigma_n^-1 b through
    the one factorization of sigma_n.
    """

    beta_n: np.ndarray
    sigma_n: np.ndarray
    gamma_n: np.ndarray
    k_n: np.ndarray
    k_n_star: np.ndarray
    av_n: np.ndarray
    av_n_star: np.ndarray
    score_means: np.ndarray
    solve: Callable[[np.ndarray], np.ndarray] = field(repr=False)


def _profile(dgp: Dgp, num=float):
    """Mean and sd of y given the scalar covariate u (p=2); constants of type num."""
    s = num(dgp.noise_scale)
    curved = dgp.kind in ("quadratic_mean_iid", "fixed_x_nonidentical_mean")
    mean = (lambda u: u**2) if curved else (lambda u: 1 + u)
    if dgp.is_fixed_design:
        return mean, (lambda u: s * (num(0.1) + u))
    if dgp.kind == "quadratic_mean_iid":
        return mean, (lambda u: s + 0 * u)
    if dgp.kind == "heteroscedastic_iid":
        return mean, (lambda u: s * (num(0.2) + abs(u - num(0.5))))
    raise AssertionError(dgp.kind)


# the closed 7-point Newton-Cotes rule, weights (41, 216, 27, 272, 27, 216, 41) / 840, on
# [0, 1/2] and on [1/2, 1] at nodes i/12: exact for a polynomial of degree <= 7 on each half
_NC_WEIGHTS = [Fraction(w, 1680) for w in (41, 216, 27, 272, 27, 216, 82, 216, 27, 272, 27, 216, 41)]


def _integral01(f) -> Fraction:
    return sum(w * f(Fraction(i, 12)) for i, w in enumerate(_NC_WEIGHTS))


# (1/n) sum_{i=1}^n f(i/n) from f at u = 1/n, ..., 7/n, exact for a polynomial f of degree <= 6
# (every fixed-design integrand here): Newton's forward series f(i/n) = sum_k C(i-1, k) D^k f(1/n)
# and sum_{i=1}^n C(i-1, k) = C(n, k+1) weight node j by sum_k (-1)^(k-j) C(k, j) C(n, k+1) / n
def _design_average(n: int):
    w = [sum((-1) ** (k - j) * comb(k, j) * comb(n, k + 1) for k in range(j, 7)) for j in range(7)]
    return lambda f: sum(Fraction(w[j], n) * f(Fraction(j + 1, n)) for j in range(7))


def _bordered(p: int, corner, edge, diag, off) -> np.ndarray:
    """The p x p object matrix [[corner, edge 1'], [edge 1, off 1 1' + (diag - off) I]]."""
    a = np.full((p, p), off, dtype=object)
    a[0, :] = a[:, 0] = edge
    a[0, 0] = corner
    np.fill_diagonal(a[1:, 1:], diag)
    return a


@functools.cache
def _exact_targets(dgp: Dgp, n: int | None) -> tuple[np.ndarray, ...]:
    """PopulationTargets' fields beta_n to av_n_star, in order: exact rationals, each rounded once.

    ``n`` is the size of a fixed design and None for an iid kind, whose
    targets do not depend on it. The arrays are shared by every caller.
    """
    avg = _design_average(n) if dgp.is_fixed_design else _integral01
    # every kind's covariates share a mean m and a covariance c I: that fixes sigma_n and its inverse
    m = avg(lambda u: u)
    c = avg(lambda u: u**2) - m**2
    if c == 0:  # a one-point design
        raise SingularDesign("design second-moment matrix is not positive definite")
    p, s2 = dgp.p, Fraction(dgp.noise_scale) ** 2
    sigma = _bordered(p, 1, m, c + m**2, m**2)
    inv = _bordered(p, 1 + (p - 1) * m**2 / c, -m / c, 1 / c, 0)
    if dgp.kind == "linear_homoscedastic":
        # correctly specified and homoscedastic: k_n = k_n_star = s^2 sigma_n, av_n = s^2 sigma_n^-1
        beta = np.array([Fraction(b) for b in dgp.beta])
        k, av = s2 * sigma, s2 * inv
        exact = beta, sigma, sigma @ beta, k, k, av, av
    else:
        # Fraction(float) is exact: these are the moments of the DGP that sample draws from
        mu, sd = _profile(dgp, Fraction)
        gamma = np.array([avg(mu), avg(lambda u: u * mu(u))])
        b0, b1 = beta = inv @ gamma
        noise = [avg(lambda u: u**j * sd(u) ** 2) for j in range(3)]
        k_star = [k + avg(lambda u: u**j * (mu(u) - b0 - b1 * u) ** 2) for j, k in enumerate(noise)]
        # under iid sampling the mean's misfit is score noise too; a fixed design's is a score mean
        k_n = noise if dgp.is_fixed_design else k_star
        k_n, k_star = (np.array([[k[0], k[1]], [k[1], k[2]]]) for k in (k_n, k_star))
        exact = beta, sigma, gamma, k_n, k_star, inv @ k_n @ inv, inv @ k_star @ inv
    try:
        return tuple(np.array(t, dtype=float) for t in exact)
    except OverflowError:
        raise ValueError(f"noise_scale={dgp.noise_scale!r} puts a target outside double range") from None


def _targets(dgp: Dgp, n: int) -> tuple[np.ndarray, ...]:
    """``_exact_targets`` of the scenario at size n: only a fixed design's depend on n."""
    if n < 1:
        raise ValueError("need n >= 1")
    return _exact_targets(dgp, n if dgp.is_fixed_design else None)


def population_targets(dgp: Dgp, n: int) -> PopulationTargets:
    """Exact moments, targets and score covariances for the scenario.

    Every target is an exact rational rounded once to float; a noise scale
    that puts one outside double range is a ValueError. The arrays are the
    caller's own. A fixed design's score means are the rows
    x_i (mu_i - x_i' beta_n), evaluated in floats at the rounded beta_n.
    """
    targets = [t.copy() for t in _targets(dgp, n)]
    beta, sigma = targets[:2]
    score_means = population_score_means(dgp, n, beta) if dgp.is_fixed_design else np.zeros((n, dgp.p))
    return PopulationTargets(*targets, score_means=score_means, solve=linalg.spd_solver(sigma))


def population_score_means(dgp: Dgp, n: int, beta) -> np.ndarray:
    """Per-observation score expectations E[x_i (y_i - x_i' beta)] at any beta.

    At the target these are the rows returned in PopulationTargets (zero for
    iid kinds); elsewhere they pick up the projection misfit, which is what a
    negative-control check of the linear representation needs.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    beta = np.asarray(beta, dtype=float).ravel()
    if beta.shape != (dgp.p,):
        raise DimensionMismatch(f"beta has length {beta.size}, expected {dgp.p}")
    if dgp.is_fixed_design:
        u = np.arange(1, n + 1) / n
        return scores_at(Dataset(x=np.column_stack([np.ones(n), u]), y=_profile(dgp)[0](u)), beta)
    # exact: sigma_n and gamma_n do not depend on the noise, and the default one keeps k_n finite
    _, sigma, gamma = _exact_targets(replace(dgp, noise_scale=None), None)[:3]
    return np.tile(gamma - sigma @ beta, (n, 1))


def sample(dgp: Dgp, n: int, rng_state) -> Dataset:
    """Draw one dataset of size n from ``np.random.default_rng(rng_state)``.

    This is the draw of ``_sample_stacks`` on a one-replication stack keyed
    by ``rng_state``, in buffers of its own. Fixed-design kinds reuse the
    deterministic design exactly and redraw only the responses. Covariates
    are drawn before noise, so the covariate stream of a random-x kind is
    reproducible on its own.
    """
    _, x, y = next(_sample_stacks(dgp, n, 1, lambda r: rng_state))
    return Dataset(x=x[0], y=y[0])


@dataclass(frozen=True, slots=True)
class CoverageReport:
    """Aggregated Monte Carlo results for one scenario, kept as tallies.

    ``tallies`` holds, for each distinct method in ``methods`` in order, its
    hit counts (p covered coordinates for an interval method, else one joint
    region hit or null rejection) and then its width sums (p, or none for
    the ellipsoid and the test). The rates are derived: ``coverage`` maps an
    interval method to per-coordinate proportions and a region method to a
    single joint one, ``rejection_rate`` maps the test to its rejection
    proportion, and ``mean_width`` holds the mean widths. Monte Carlo
    standard errors are sqrt(c (1-c) / R) over the R kept replications.
    The tallies are an ``array.array`` of doubles, which, unlike an ndarray,
    compares with ``==`` as a whole, so two reports do too.
    """

    scenario: str
    n: int
    p: int
    replications: int
    alpha: float
    methods: tuple[str, ...]
    tallies: array.array
    excluded: int = 0

    @property
    def coverage(self) -> dict:
        return {m: c.tolist() for m, c in self._hit_rates(test=False).items()}

    @property
    def coverage_se(self) -> dict:
        return {m: _mc_se(c, self._kept).tolist() for m, c in self._hit_rates(test=False).items()}

    @property
    def mean_width(self) -> dict:
        layout = _tally_layout(self.methods, self.p).items()
        return {m: self._per_kept(w).tolist() for m, (_, w) in layout if w.stop > w.start}

    @property
    def rejection_rate(self) -> dict:
        return {m: float(c[0]) for m, c in self._hit_rates(test=True).items()}

    @property
    def rejection_se(self) -> dict:
        return {m: float(_mc_se(c, self._kept)[0]) for m, c in self._hit_rates(test=True).items()}

    @property
    def _kept(self) -> int:
        return self.replications - self.excluded

    def _per_kept(self, part: slice) -> np.ndarray:
        # a sum over kept replications divided by their count: np.mean's own reduction, so its bits
        return np.frombuffer(self.tallies)[part] / self._kept

    def _hit_rates(self, test: bool) -> dict:
        """The hit proportions of the tests (rejections), or of the others (coverage)."""
        layout = _tally_layout(self.methods, self.p).items()
        return {m: self._per_kept(hit) for m, (hit, _) in layout if (METHOD_KINDS[m] == "test") == test}


def _mc_se(prop: np.ndarray, r: int) -> np.ndarray:
    return np.sqrt(prop * (1.0 - prop) / r)


def _tally_layout(methods, p: int) -> dict:
    """Each distinct method's slices of the tallies: its hit counts, then its width sums."""
    layout, start = {}, 0
    for m in dict.fromkeys(methods):
        hits = p if METHOD_KINDS[m] == "interval" else 1
        widths = p if METHOD_KINDS[m] in ("interval", "rectangle") else 0
        layout[m] = slice(start, start + hits), slice(start + hits, start + hits + widths)
        start += hits + widths
    return layout


def _sample_stacks(dgp: Dgp, n: int, count: int, key: Callable, most: int | None = None):
    """Draw replications 0 to count - 1 in order, and yield them a stack at a time.

    Yields ``(reps, x, y)``: the stack's replications as a ``range(start,
    stop)``, and their designs and responses as (m, n, p) and (m, n) views
    of buffers reused from stack to stack. A stack holds about STACK_ENTRIES
    design entries, and at most ``most`` replications. Replication r's
    ``np.random.default_rng(key(r))`` draws the covariates (random-x kinds)
    and then the noise into its own rows; the design and the responses are
    then formed once for the stack, each row with the bits of a draw on its
    own. A non-finite response ends the stacks: the replications before it
    are yielded first and the ``ValueError`` raised after, as a loop over r
    would reach it.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    size = max(1, min(count, most or count, STACK_ENTRIES // (n * dgp.p)))
    x, y = np.empty((size, n, dgp.p)), np.empty((size, n))
    x[..., 0] = 1.0
    if dgp.is_fixed_design:
        u = x[..., 1] = np.arange(1, n + 1) / n
    else:
        u = np.empty((size, n, dgp.p - 1))
    for start in range(0, count, size):
        stack = range(start, min(start + size, count))
        for i, r in enumerate(stack):
            rng = np.random.default_rng(key(r))
            if not dgp.is_fixed_design:
                rng.random(out=u[i])
            rng.standard_normal(out=y[i])
        xs, ys = x[: len(stack)], y[: len(stack)]
        if not dgp.is_fixed_design:
            xs[..., 1:] = u[: len(stack)]
        # a non-finite response is reported below, so its numpy warnings are dropped
        with np.errstate(over="ignore", invalid="ignore"):
            if dgp.kind == "linear_homoscedastic":
                ys[:] = xs @ np.asarray(dgp.beta) + dgp.noise_scale * ys
            else:
                mean, sd = _profile(dgp)
                us = u if dgp.is_fixed_design else u[: len(stack), :, 0]
                ys[:] = mean(us) + sd(us) * ys
        m = len(stack) if np.isfinite(ys).all() else int(np.isfinite(ys).all(axis=1).argmin())
        if m:
            yield stack[:m], xs[:m], ys[:m]
        if m < len(stack):
            raise ValueError("dataset contains non-finite entries")


def run_coverage(
    dgp: Dgp,
    n: int,
    replications: int,
    methods,
    alpha: float,
    seed: int,
    b: int = 1000,
    weight_dist: str = "gaussian",
) -> CoverageReport:
    """Measure empirical coverage (and null rejection rates) of the target.

    Per replication r: draw data with the (seed, r) key, fit, build the
    requested intervals/regions, and record whether beta_n is covered. The
    max_t_bootstrap method instead tests the true null beta = beta_n and
    records rejections. Replications whose design is singular are excluded
    and counted.

    The replications are fitted a stack at a time (see ``_sample_stacks``),
    with each one's bits; replication r's bootstrap draws from the (seed, r,
    1) key. A stack runs through the same calls that one replication runs
    through alone, which fill one tally row per replication, and a loop adds
    the rows in order, so the report does not depend on the stack size. If
    one of those calls raises a ``LeanRegError``, the stack is replayed one
    replication at a time through the same calls, on items indexed from the
    stack's own fit: a singular design excludes its replication, and any
    other error propagates, as in a loop over r.
    """
    methods = tuple(methods)
    for m in methods:
        if m not in COVERAGE_METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {COVERAGE_METHODS}")
    if weight_dist not in WEIGHT_DISTS:
        raise ValueError(f"unknown weight distribution {weight_dist!r}")
    if replications < 1:
        raise ValueError("need at least one replication")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")

    beta_n = _targets(dgp, n)[0]
    z = statistics.NormalDist().inv_cdf(1.0 - alpha / 2.0)
    needs_boot = any(METHOD_KINDS[m] != "interval" for m in methods)
    needs_sandwich = needs_boot or "sandwich_normal" in methods
    most = max(1, DRAW_ENTRIES // (b * dgp.p)) if needs_boot else None

    # per distinct method, summed over kept replications: covered coordinates (or the joint
    # region, or a rejection of the true null), then interval widths
    layout = _tally_layout(methods, dgp.p)
    tallies = np.zeros(max((width.stop for _, width in layout.values()), default=0))

    def tally_rows(fit: OlsFit, keys) -> np.ndarray:
        """The tally rows of ``fit``'s items, whose bootstrap keys are ``keys``: one per item."""
        var_s = sandwich_avar(fit) if needs_sandwich else None
        draws = run_bootstrap(fit, b=b, dist=weight_dist, seed=keys) if needs_boot else None
        rows = np.zeros(fit.beta_hat.shape[:-1] + tallies.shape)
        for m, (hit, width) in layout.items():
            if METHOD_KINDS[m] == "interval":
                se = (classical_avar(fit) if m == "classical_normal" else var_s).se
                rows[..., hit] = np.abs(fit.beta_hat - beta_n) <= z * se
                rows[..., width] = 2.0 * z * se
            elif METHOD_KINDS[m] == "rectangle":
                region = region_rectangle(fit, draws, var_s, alpha)
                rows[..., hit.start] = region.contains(beta_n)
                rows[..., width] = 2.0 * region.half_widths
            elif METHOD_KINDS[m] == "ellipsoid":
                rows[..., hit.start] = region_ellipsoid(fit, draws, var_s, alpha).contains(beta_n)
            elif METHOD_KINDS[m] == "test":
                test = max_t_test(fit, var_s, beta_n, reference="bootstrap", draws=draws)
                rows[..., hit.start] = test.p_value <= alpha
        return rows

    excluded = 0
    for reps, x, y in _sample_stacks(dgp, n, replications, lambda r: (seed, r), most):
        fits = OlsFit(x, y)
        try:
            rows = tally_rows(fits[:], [(seed, r, 1) for r in reps])
        except LeanRegError:
            # replay the stack one replication at a time, as a loop over r meets its errors
            rows = []
            for i, r in enumerate(reps):
                try:
                    fit = fits[i]
                except SingularDesign:
                    excluded += 1
                    continue
                rows.append(tally_rows(fit, (seed, r, 1)))
        for row in rows:
            tallies += row
    if excluded == replications:
        raise SingularDesign("every replication produced a singular design")

    return CoverageReport(
        scenario=dgp.kind,
        n=n,
        p=dgp.p,
        replications=replications,
        alpha=alpha,
        methods=methods,
        tallies=array.array("d", tallies.tobytes()),
        excluded=excluded,
    )


def run_consistency(dgp: Dgp, n_grid, replications: int, seed: int) -> dict:
    """Median estimation error per sample size, plus the fitted log-log slope.

    Returns {"n_grid", "median_error", "loglog_slope"}. Replication r is
    keyed by (seed, grid-index, r) so adding a grid point never perturbs
    the others. The replications are fitted a stack at a time, as in
    ``run_coverage``; any design that fails a gate raises.
    """
    n_grid = [int(n) for n in n_grid]
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])) or len(n_grid) < 1:
        raise ValueError("n_grid must be strictly increasing and non-empty")
    if replications < 1:
        raise ValueError("need at least one replication")
    medians = []
    for i, n in enumerate(n_grid):
        beta_n = _targets(dgp, n)[0]
        errs = np.empty(replications)
        for reps, x, y in _sample_stacks(dgp, n, replications, lambda r: (seed, i, r)):
            d = OlsFit(x, y)[:].beta_hat - beta_n  # raises the first failing replication's gate error
            # the Euclidean norm as np.linalg.norm takes it of one vector: sqrt of a BLAS dot
            errs[reps.start : reps.stop] = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])
        medians.append(float(np.median(errs)))
    if len(n_grid) >= 2 and all(m > 0 for m in medians):
        slope = float(np.polyfit(np.log(n_grid), np.log(medians), 1)[0])
    else:
        slope = float("nan")
    return {"n_grid": n_grid, "median_error": medians, "loglog_slope": slope}
