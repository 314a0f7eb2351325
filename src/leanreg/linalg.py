"""Dense symmetric linear algebra used throughout the library.

All routines operate on small (p <= ~50) dense matrices, favour robustness
over speed, and refuse bad input loudly: asymmetric matrices are rejected
rather than symmetrized, and near-singular SPD factorizations raise instead
of falling back to a pseudo-inverse. Everything is numpy: an SPD solve is a
Cholesky factorization followed by a p-step forward and back substitution
over all right-hand-side columns at once. The one routine for a tall n x p
matrix, ``tsqr_r``, reduces it to its p x p triangular factor.
"""

from __future__ import annotations

import functools

import numpy as np

from .exceptions import DimensionMismatch, NoConvergence, NonFiniteValue, NotPositiveDefinite, NotSymmetric

# Relative symmetry gate: |a - a.T| must not exceed SYM_RTOL * max|a|.
SYM_RTOL = 1e-10
# tsqr_r factors blocks of this many rows: LAPACK's QR of a block of 256 to 16384 rows gives the
# same bits at any OpenBLAS thread count, while a whole tall matrix or a 65536-row block does not
TSQR_ROWS = 4096


def _as_square_symmetric(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteValue(f"{name} contains non-finite entries")
    scale = np.abs(a).max() if a.size else 0.0
    if np.abs(a - a.T).max(initial=0.0) > SYM_RTOL * scale:
        raise NotSymmetric(f"{name} is not symmetric within {SYM_RTOL:g} relative")
    return a


def _cholesky_spd(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a, with an explicit near-singularity gate.

    The pivot at step j of a Cholesky factorization is L[j, j]**2; any pivot
    at or below p * eps * a[j, j] marks the matrix as numerically not
    positive definite and raises. For a = x'x the ratio L[j, j]**2 / a[j, j]
    is 1 - R^2 (uncentered) of column j on the earlier columns, so the units
    of a column do not move the gate.
    """
    p = a.shape[0]
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("Cholesky factorization failed") from exc
    low = np.diag(lower) ** 2 <= p * np.finfo(float).eps * np.diag(a)
    if low.any():
        raise NotPositiveDefinite(
            f"Cholesky pivot {int(np.argmax(low))} at or below p * eps times its diagonal entry"
        )
    return lower


def spd_solver(a):
    """Factor symmetric positive definite ``a`` once; return ``b -> a^-1 b``.

    The gates below run once, here; the solver takes a vector or a matrix of
    stacked right-hand sides.

    Raises
    ------
    NotSymmetric
        If ``a`` fails the relative symmetry gate.
    NotPositiveDefinite
        If the factorization fails or a pivot falls at or below
        p * eps times its own diagonal entry.
    DimensionMismatch
        If ``a`` is not square, or (from the solver) if the leading
        dimension of ``b`` does not match.
    """
    a = _as_square_symmetric(a, "a")
    # a partial of a module function, unlike a closure, pickles with the fit
    return functools.partial(_apply_factor, _cholesky_spd(a))


def _apply_factor(lower: np.ndarray, b) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.shape[0] != lower.shape[0]:
        raise DimensionMismatch(f"b has leading dimension {b.shape[0]}, expected {lower.shape[0]}")
    # forward substitution lower z = b, then back substitution lower' x = z,
    # one row of every right-hand-side column per step; the C-order copy keeps
    # b unmutated and makes the bits independent of its memory layout
    x = np.array(b, order="C")
    p = lower.shape[0]
    for j in range(p):
        x[j] = (x[j] - lower[j, :j] @ x[:j]) / lower[j, j]
    for j in reversed(range(p)):
        x[j] = (x[j] - lower[j + 1 :, j] @ x[j + 1 :]) / lower[j, j]
    return x


def tsqr_r(a) -> np.ndarray:
    """The triangular factor R of a = QR (so R'R = a'a), by a fixed-block tall-skinny QR.

    Each pass replaces ``a`` by the stacked R factors of its TSQR_ROWS-row
    blocks, in order, until one block is left, whose R is returned: min(n, p)
    rows by p columns. The blocks depend only on n, so the bits do not depend
    on the BLAS thread count. A rank-deficient ``a`` (an all-zero one
    included) is factored like any other; its R is singular.
    """
    a = np.asarray(a, dtype=float)
    while True:
        rs = [np.linalg.qr(a[i : i + TSQR_ROWS], mode="r") for i in range(0, a.shape[0], TSQR_ROWS)]
        if len(rs) == 1:
            return rs[0]
        a = np.vstack(rs)


def eig_sym_extremes(a) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a symmetric matrix."""
    a = _as_square_symmetric(a, "a")
    try:
        w = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence("symmetric eigenvalue iteration did not converge") from exc
    return float(w[0]), float(w[-1])


def op_norm(a) -> float:
    """Spectral (operator) norm, sqrt of the largest eigenvalue of a.T @ a."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteValue("matrix contains non-finite entries")
    try:
        return float(np.linalg.norm(a, 2))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence("SVD iteration did not converge") from exc


def psd_leq(a, b, tol: float = 0.0) -> bool:
    """True iff ``a`` precedes ``b`` in the PSD order: lambda_min(b - a) >= -tol."""
    a = _as_square_symmetric(a, "a")
    b = _as_square_symmetric(b, "b")
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {b.shape}")
    lo, _ = eig_sym_extremes(b - a)
    return lo >= -tol
