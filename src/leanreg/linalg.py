"""Gated dense symmetric linear algebra, private to the library, plus ``tsqr_r``.

All routines operate on small (p <= ~50) dense matrices, one or a stack
(..., p, p), favour robustness over speed, and refuse bad input loudly:
near-singular SPD factorizations raise instead of falling back to a
pseudo-inverse. Everything is numpy. ``_cholesky_spd`` factors each matrix of
a stack and reports its pivot gate per matrix, ``_raise_first`` raises the
error of a stack's first failing item, and ``_apply_factor`` solves by a
p-step forward and back substitution over all right-hand-side columns at
once; each matrix gets the bits it gets alone. A triangular factor is
inverted by one ``np.linalg.inv`` call over the stack, which LAPACK runs on
each matrix alone. The one public routine, ``tsqr_r``, reduces a tall n x p
matrix, or each of a stack, to its p x p triangular factor: a fit's one
factor of its scores.
"""

from __future__ import annotations

import functools

import numpy as np

from .exceptions import DimensionMismatch, NotPositiveDefinite

# tsqr_r factors blocks of this many rows: LAPACK's QR of a block of 256 to 16384 rows gives the
# same bits at any OpenBLAS thread count, while a whole tall matrix or a 65536-row block does not
TSQR_ROWS = 4096


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


def _apply_factor(lower: np.ndarray, b) -> np.ndarray:
    """x with lower lower' x = b, for factors (..., p, p) and b (..., p, k), a matrix of columns per factor."""
    # forward substitution lower z = b, then back substitution lower' x = z,
    # one row of every right-hand-side column per step; the C-order copy keeps
    # b unmutated and makes the bits independent of its memory layout. Each
    # row's sum is one matmul per item, a BLAS dot or gemv whatever the stack;
    # the first step of each pass has no sum, and x - 0 would be x
    x = np.array(b, dtype=float, order="C")
    p = lower.shape[-1]
    if x.shape[-2:-1] != (p,):
        raise DimensionMismatch(f"b has shape {x.shape}, expected (..., {p}, k)")
    upper = lower.swapaxes(-1, -2)
    for j in range(p):
        row = x[..., j : j + 1, :]
        if j > 0:
            row -= lower[..., j : j + 1, :j] @ x[..., :j, :]
        row /= lower[..., j : j + 1, j : j + 1]
    for j in reversed(range(p)):
        row = x[..., j : j + 1, :]
        if j < p - 1:
            row -= upper[..., j : j + 1, j + 1 :] @ x[..., j + 1 :, :]
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
