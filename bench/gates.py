"""Correctness gates of the benchmark.

No gate compares a realized random value against a stored one: the draws and
Monte Carlo streams may change from one commit to the next. Gates compare
against independent oracles (``np.linalg.lstsq``, explicit sums, the normal
tail via ``math.erfc``), against the paper's one-sided coverage guarantee, or
one output of the program against another it must equal. Each gate returns a
list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

# The Monte Carlo SE of a pooled coverage is taken at no more than this many
# replications, the size of the repository's own acceptance runs (R=2000).
# Without the cap the gate's power grows with run length, and a consistent
# (not conservative) interval whose finite-n coverage sits a fraction of a
# point below nominal would fail some runs and pass others.
MC_SE_REPLICATIONS_CAP = 2000


def mc_se(level: float, replications: int) -> float:
    """Monte Carlo SE of a proportion with true value ``level``."""
    r = min(replications, MC_SE_REPLICATIONS_CAP)
    return math.sqrt(level * (1.0 - level) / r)


def coverage_at_least(label: str, coverage, replications: int, level: float) -> list[str]:
    """Every coordinate's coverage must be >= level - 3 SE."""
    floor = level - 3.0 * mc_se(level, replications)
    return [
        f"{label}[{j}] coverage {c:.4f} < {floor:.4f} (level {level} - 3 SE, R={replications})"
        for j, c in enumerate(coverage)
        if not c >= floor
    ]


def rejection_at_most(label: str, rate: float, replications: int, alpha: float) -> list[str]:
    """A conservative test's null rejection rate must be <= alpha + 3 SE."""
    ceiling = alpha + 3.0 * mc_se(alpha, replications)
    if rate <= ceiling:
        return []
    return [f"{label} rejection rate {rate:.4f} > {ceiling:.4f} (alpha + 3 SE, R={replications})"]


def fit_matches_lstsq(label: str, beta_hat, x: np.ndarray, y: np.ndarray, rtol: float = 1e-8) -> list[str]:
    """beta_hat must equal the least squares solution to relative ``rtol``."""
    ref = np.linalg.lstsq(x, y, rcond=None)[0]
    beta_hat = np.asarray(beta_hat, dtype=float)
    if beta_hat.shape != ref.shape:
        return [f"{label}: beta_hat has shape {beta_hat.shape}, expected {ref.shape}"]
    err = float(np.linalg.norm(beta_hat - ref))
    if err <= rtol * max(1.0, float(np.linalg.norm(ref))):
        return []
    return [f"{label}: |beta_hat - lstsq| = {err:.3e}"]


def sandwich_oracle(x: np.ndarray, y: np.ndarray):
    """Least squares fit, meat k_check and HC0 avar from explicit sums."""
    n = x.shape[0]
    beta = np.linalg.lstsq(x, y, rcond=None)[0]
    e = y - x @ beta
    sigma = x.T @ x / n
    meat = (x * (e**2)[:, None]).T @ x / n
    sigma_inv = np.linalg.inv(sigma)
    return beta, meat, sigma_inv @ meat @ sigma_inv


def close(label: str, got, want, rtol: float = 1e-7) -> list[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape}, expected {want.shape}"]
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    if err <= rtol * max(1.0, float(np.max(np.abs(want)))):
        return []
    return [f"{label}: max abs error {err:.3e}"]


def relatively_close(label: str, got: float, want: float, rtol: float = 1e-6) -> list[str]:
    """Scalar agreement relative to the value itself, for tiny p-values."""
    if abs(got - want) <= rtol * abs(want):
        return []
    return [f"{label}: {got!r} differs from {want!r}"]


def draws_cov_near(label: str, draws_cov, k: np.ndarray, b: int, z: float = 6.0) -> list[str]:
    """Bootstrap draw covariance must match k_check within z sampling SEs.

    For B normal draws with covariance k the sample covariance entry (j, l)
    has variance (k_jl^2 + k_jj k_ll) / B; lighter-tailed multipliers
    (Rademacher) only lower it.
    """
    c = np.asarray(draws_cov, dtype=float)
    k = np.asarray(k, dtype=float)
    if c.shape != k.shape:
        return [f"{label}: draws_cov shape {c.shape}, expected {k.shape}"]
    se = np.sqrt((k**2 + np.outer(np.diag(k), np.diag(k))) / b)
    worst = float(np.max(np.abs(c - k) / se))
    if worst <= z:
        return []
    return [f"{label}: draws_cov is {worst:.1f} SE from k_check (limit {z})"]


def normal_p_value(stat: float) -> float:
    """Two-sided standard normal tail probability."""
    return math.erfc(abs(stat) / math.sqrt(2.0))


def identical(label: str, first: str, second: str) -> list[str]:
    return [] if first == second else [f"{label}: outputs differ"]


def same_except_threads(label: str, first: str, second: str) -> list[str]:
    """Two reports must be identical apart from the echoed ``threads`` flag."""
    a, b = json.loads(first), json.loads(second)
    a.get("config", {}).pop("threads", None)
    b.get("config", {}).pop("threads", None)
    if json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True):
        return []
    return [f"{label}: output changed with the thread count"]
