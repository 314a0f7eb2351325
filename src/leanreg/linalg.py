"""Dense symmetric linear algebra used throughout the library.

All routines operate on small (p <= ~50) dense matrices, favour robustness
over speed, and refuse bad input loudly: asymmetric matrices are rejected
rather than symmetrized, and near-singular SPD factorizations raise instead
of falling back to a pseudo-inverse. Everything is numpy: an SPD solve is a
Cholesky factorization followed by a p-step forward and back substitution
over all right-hand-side columns at once. The factorization and the
substitution also run on stacks (..., p, p) of matrices, with the gates
reported per matrix; each matrix of a stack gets the bits it gets alone.
The one routine for a tall n x p matrix, ``tsqr_r``, reduces it, or each of
a stack, to its p x p triangular factor: a fit's one factor of its scores.
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


def _cholesky_spd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a, one (p, p) matrix or a stack (..., p, p), each gated.

    The pivot at step j is L[j, j]**2; ``_first_low_pivot`` marks the matrix
    numerically not positive definite at a pivot at or below p * eps * a[j, j].
    For a = x'x the ratio L[j, j]**2 / a[j, j] is 1 - R^2 (uncentered) of
    column j on the earlier columns, so the units of a column do not move it.

    Returns ``(lower, pivot)``, with ``pivot`` of the stack's shape: -1 for a
    matrix that passes, the index of its first low pivot, or p where the
    factorization itself failed. A failed matrix's factor is the identity, so
    the rest of the stack still solves; ``_not_positive_definite`` names the
    failure.
    """
    p = a.shape[-1]
    try:
        lower, failed = np.linalg.cholesky(a), False
    except np.linalg.LinAlgError:
        # LAPACK factors each matrix alone, so refactoring them one by one gives the same bits
        lower, failed = np.empty_like(a), np.zeros(a.shape[:-2], dtype=bool)
        for i in np.ndindex(failed.shape):
            try:
                lower[i] = np.linalg.cholesky(a[i])
            except np.linalg.LinAlgError:
                lower[i], failed[i] = np.eye(p), True
    diag_l, diag_a = (np.diagonal(m, axis1=-2, axis2=-1) for m in (lower, a))
    return lower, np.where(failed, p, _first_low_pivot(diag_l**2, diag_a))


def _first_low_pivot(pivots: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """The first j with pivots[j] <= p * eps * diag[j] over (..., p), or -1: ``_cholesky_spd``'s gate."""
    low = pivots <= pivots.shape[-1] * np.finfo(float).eps * diag
    return np.where(low.any(axis=-1), np.argmax(low, axis=-1), -1)


def _not_positive_definite(pivot: int, p: int) -> NotPositiveDefinite:
    """The error for a matrix whose ``_cholesky_spd`` pivot is ``pivot`` (>= 0)."""
    if pivot == p:
        return NotPositiveDefinite("Cholesky factorization failed")
    return NotPositiveDefinite(f"Cholesky pivot {pivot} at or below p * eps times its diagonal entry")


def _raise_first(*gates) -> None:
    """Raise the error of the first stack item, in C order, that fails a gate; return if none does.

    Each gate is ``(failed, error)``: ``failed`` marks the items that fail it,
    over the stack axes (0-d for one item), and ``error`` is the error to
    raise, or a function of the item's flat index that makes it. An item that
    fails several gates raises for the first, as a call on that item alone
    checks them in order.
    """
    if not any(np.count_nonzero(flags) for flags, _ in gates):
        return
    failed = [np.ravel(flags) for flags, _ in gates]
    k = int(np.flatnonzero(functools.reduce(np.logical_or, failed))[0])
    error = next(error for flags, (_, error) in zip(failed, gates) if flags[k])
    raise error if isinstance(error, Exception) else error(k)


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
    lower, pivot = _cholesky_spd(a)
    if pivot >= 0:
        raise _not_positive_definite(int(pivot), a.shape[0])
    # a partial of a module function, unlike a closure, pickles with the fit
    return functools.partial(_apply_factor, lower)


def _apply_factor(lower: np.ndarray, b, forward_only: bool = False) -> np.ndarray:
    """x with lower lower' x = b, for one factor (p, p) or a stack of them (..., p, p).

    With one factor, ``b`` is a vector or a matrix of right-hand-side columns
    with leading dimension p; with a stack, ``b`` is (..., p, k), one matrix
    of columns per factor; ``forward_only`` returns z with lower z = b.
    """
    # forward substitution lower z = b, then back substitution lower' x = z,
    # one row of every right-hand-side column per step; the C-order copy keeps
    # b unmutated and makes the bits independent of its memory layout. Each
    # row's sum is one matmul per item, a BLAS dot or gemv whatever the stack;
    # the first step of each pass has no sum, and x - 0 would be x
    x = np.array(b, dtype=float, order="C")
    p = lower.shape[-1]
    rows = x.shape[0] if lower.ndim == 2 else x.shape[-2]
    if rows != p:
        raise DimensionMismatch(f"b has leading dimension {rows}, expected {p}")
    xs = x.reshape(p, -1) if lower.ndim == 2 else x
    upper = lower.swapaxes(-1, -2)
    for j in range(p):
        row = xs[..., j : j + 1, :]
        if j > 0:
            row -= lower[..., j : j + 1, :j] @ xs[..., :j, :]
        row /= lower[..., j : j + 1, j : j + 1]
    if forward_only:
        return x
    for j in reversed(range(p)):
        row = xs[..., j : j + 1, :]
        if j < p - 1:
            row -= upper[..., j : j + 1, j + 1 :] @ xs[..., j + 1 :, :]
        row /= lower[..., j : j + 1, j : j + 1]
    return x


def tsqr_r(a) -> np.ndarray:
    """The triangular factor R of a = QR (so R'R = a'a), by a fixed-block tall-skinny QR.

    Each pass replaces ``a``, (n, p) or a stack (..., n, p), by the stacked R
    factors of its TSQR_ROWS-row blocks, in order, until one block is left,
    whose R is returned: min(n, p) rows by p columns. The blocks depend only on
    n and LAPACK factors each matrix alone, so the bits depend on neither the
    BLAS thread count nor the stack. A rank-deficient ``a`` has a singular R.
    """
    a = np.asarray(a, dtype=float)
    while True:
        rs = [np.linalg.qr(a[..., i : i + TSQR_ROWS, :], "r") for i in range(0, a.shape[-2], TSQR_ROWS)]
        if len(rs) == 1:
            return rs[0]
        a = np.concatenate(rs, axis=-2)


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
