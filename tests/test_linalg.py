import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from leanreg import (
    DimensionMismatch,
    NotPositiveDefinite,
    NotSymmetric,
    eig_sym_extremes,
    linalg,
    op_norm,
    psd_leq,
    spd_solver,
)


class TestSolveSpd:
    def test_identity(self):
        np.testing.assert_allclose(spd_solver(np.eye(2))([3.0, -1.0]), [3.0, -1.0])

    def test_diagonal(self):
        np.testing.assert_allclose(spd_solver(np.diag([2.0, 4.0]))([2.0, 8.0]), [1.0, 2.0])

    def test_2x2_cramer_oracle(self):
        a = np.array([[3.0, 3.0], [3.0, 5.0]])
        b = np.array([5.0, 9.0])
        # independent oracle: Cramer's rule on the 2x2 system
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        expected = np.array(
            [
                (b[0] * a[1, 1] - a[0, 1] * b[1]) / det,
                (a[0, 0] * b[1] - b[0] * a[1, 0]) / det,
            ]
        )
        np.testing.assert_allclose(expected, [-1.0 / 3.0, 2.0])
        np.testing.assert_allclose(spd_solver(a)(b), expected, atol=1e-12)

    def test_matrix_rhs(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        rhs = np.array([[1.0, 0.0], [0.0, 1.0]])
        inv = spd_solver(a)(rhs)
        np.testing.assert_allclose(a @ inv, np.eye(2), atol=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            spd_solver(np.array([[1.0, 2.0], [0.0, 1.0]]))([1.0, 1.0])

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            spd_solver(np.array([[1.0, 0.0], [0.0, -1.0]]))([1.0, 1.0])

    def test_rejects_singular(self):
        with pytest.raises(NotPositiveDefinite):
            spd_solver(np.array([[1.0, 1.0], [1.0, 1.0]]))([1.0, 1.0])

    def test_pivot_gate_is_relative_to_each_diagonal_entry(self):
        # far apart diagonal entries are units, not singularity
        np.testing.assert_array_equal(spd_solver(np.diag([1.0, 2.0**-100]))([1.0, 1.0]), [1.0, 2.0**100])
        # numpy factors this one, with a last pivot of eps on a diagonal of 1 + eps
        eps = np.finfo(float).eps
        with pytest.raises(NotPositiveDefinite, match="pivot 1 at or below p \\* eps"):
            spd_solver(np.array([[1.0, 1.0], [1.0, 1.0 + eps]]))

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionMismatch):
            spd_solver(np.ones((2, 3)))([1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            spd_solver(np.eye(2))([1.0, 1.0, 1.0])

    def test_fuzz_residual_bound(self):
        # post-condition ||a x - b|| <= 1e-8 (||a||_op ||x|| + ||b||) on random SPD
        rng = np.random.default_rng(314)
        for _ in range(1000):
            p = int(rng.integers(1, 9))
            g = rng.standard_normal((p, p))
            a = g.T @ g + 0.1 * np.eye(p)
            b = rng.standard_normal(p)
            x = spd_solver(a)(b)
            bound = 1e-8 * (op_norm(a) * np.linalg.norm(x) + np.linalg.norm(b))
            assert np.linalg.norm(a @ x - b) <= bound



def _spd(p: int, cond: float, seed: int) -> np.ndarray:
    """A symmetric positive definite matrix with condition number ``cond``."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((p, p)))
    a = (q * np.logspace(0.0, -np.log10(cond), p)) @ q.T
    return (a + a.T) / 2.0


def _rhs(p: int, shape: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if shape == "vector":
        return rng.standard_normal(p)
    if shape == "matrix":
        return rng.standard_normal((p, 7))
    return rng.standard_normal((7, p)).T  # a non-contiguous view


class TestSpdSolverOracle:
    """The substitution solve against scipy's LAPACK ``cho_solve`` (potrs)."""

    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("shape", ["vector", "matrix", "transposed"])
    @pytest.mark.parametrize("p", [1, 2, 11, 50])
    def test_matches_cho_solve(self, p, shape):
        a = _spd(p, 1e6, seed=p)
        b = _rhs(p, shape, seed=100 + p)
        b_before = b.copy()
        x = spd_solver(a)(b)
        assert x.shape == b.shape
        np.testing.assert_array_equal(b, b_before)  # b is not mutated
        # normwise backward stability of Cholesky, column by column:
        # |a x - b| <= c p eps |a| |x|
        x2, b2 = x.reshape(p, -1), b.reshape(p, -1)
        a_norm = np.linalg.norm(a, 2)
        residual = np.linalg.norm(a @ x2 - b2, axis=0)
        assert np.all(residual <= 4.0 * p * self.EPS * a_norm * np.linalg.norm(x2, axis=0))
        # forward error against LAPACK, within cond(a) times the same factor
        ref = scipy.linalg.cho_solve((np.linalg.cholesky(a), True), b).reshape(p, -1)
        bound = 4.0 * p * self.EPS * np.linalg.cond(a) * np.linalg.norm(ref, axis=0)
        assert np.all(np.linalg.norm(x2 - ref, axis=0) <= bound)

    def test_layout_does_not_change_bits(self):
        a = _spd(11, 1e3, seed=1)
        b = _rhs(11, "transposed", seed=2)
        solve = spd_solver(a)
        assert solve(b).tobytes() == solve(np.ascontiguousarray(b)).tobytes()

    def test_solver_pickles(self):
        solve = spd_solver(_spd(5, 10.0, seed=3))
        b = _rhs(5, "matrix", seed=4)
        assert pickle.loads(pickle.dumps(solve))(b).tobytes() == solve(b).tobytes()

    def test_bits_do_not_depend_on_blas_threads(self):
        code = (
            "import hashlib, numpy as np\n"
            "from leanreg import spd_solver\n"
            "rng = np.random.default_rng(13)\n"
            "g = rng.standard_normal((13, 13))\n"
            "x = spd_solver(g @ g.T + 13 * np.eye(13))(rng.standard_normal((13, 2000)))\n"
            "print(hashlib.sha256(x.tobytes()).hexdigest())\n"
        )
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            digests.add(proc.stdout.strip())
        assert len(digests) == 1


class TestStackedFactor:
    """``_cholesky_spd`` and ``_apply_factor`` on a stack give each matrix its own bits and gate."""

    @pytest.mark.parametrize("p", [1, 2, 5, 21])
    def test_each_item_solves_as_it_does_alone(self, p):
        stack = np.stack([_spd(p, 10.0 ** k, seed=k) for k in range(6)]).reshape(2, 3, p, p)
        b = np.random.default_rng(p).standard_normal((2, 3, p, 4))
        lower, pivot = linalg._cholesky_spd(stack)
        np.testing.assert_array_equal(pivot, np.full((2, 3), -1))
        # a one-column stack solves as a vector does alone (a BLAS dot, not a gemv, per row)
        x, column = linalg._apply_factor(lower, b), linalg._apply_factor(lower, b[..., :1])
        for i in np.ndindex(2, 3):
            solve = spd_solver(stack[i])
            assert x[i].tobytes() == solve(b[i]).tobytes()
            assert column[i].tobytes() == solve(b[i][:, 0]).tobytes()

    def test_gate_reports_each_item(self):
        eps = np.finfo(float).eps
        good = np.array([[2.0, 1.0], [1.0, 2.0]])
        stack = np.stack([
            good, np.array([[1.0, 1.0], [1.0, 1.0 + eps]]), np.array([[1.0, 0.0], [0.0, -1.0]]), good,
        ])
        lower, pivot = linalg._cholesky_spd(stack)
        # a low second pivot, and a failed factorization whose factor is the identity
        assert pivot.tolist() == [-1, 1, 2, -1]
        np.testing.assert_array_equal(lower[2], np.eye(2))
        for i in (0, 3):
            assert lower[i].tobytes() == np.linalg.cholesky(good).tobytes()
        assert str(linalg._not_positive_definite(2, 2)) == "Cholesky factorization failed"
        with pytest.raises(NotPositiveDefinite, match="Cholesky factorization failed"):
            spd_solver(stack[2])

    def test_stack_rows_must_match(self):
        lower, _ = linalg._cholesky_spd(np.stack([np.eye(3)] * 2))
        with pytest.raises(DimensionMismatch):
            linalg._apply_factor(lower, np.ones((2, 2, 1)))


class TestTsqrR:
    def test_blocks_are_4096_rows(self):
        # one block is one LAPACK QR; one row past it is the R of the two blocks' stacked R factors
        rng = np.random.default_rng(60)
        a = rng.standard_normal((4097, 5))
        assert linalg.TSQR_ROWS == 4096
        np.testing.assert_array_equal(linalg.tsqr_r(a[:4096]), np.linalg.qr(a[:4096], mode="r"))
        stacked = np.vstack([np.linalg.qr(a[:4096], mode="r"), np.linalg.qr(a[4096:], mode="r")])
        np.testing.assert_array_equal(linalg.tsqr_r(a), np.linalg.qr(stacked, mode="r"))

    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 200_000])
    @pytest.mark.parametrize("p", [1, 3, 11])
    def test_gram_matches_exact_oracle(self, n, p):
        # small integers make a'a exact in floating point
        rng = np.random.default_rng(n + p)
        a = rng.integers(-50, 50, (n, p)).astype(float)
        a[:, 0] = 1.0
        r = linalg.tsqr_r(a)
        assert r.shape == (min(n, p), p)
        assert np.all(r[np.tril_indices(r.shape[0], -1, p)] == 0.0)
        tol = 16 * np.finfo(float).eps * np.linalg.norm(a, 2) ** 2
        assert np.abs(r.T @ r - a.T @ a).max() <= tol

    def test_zero_matrix_gives_zero_factor(self):
        r = linalg.tsqr_r(np.zeros((5000, 3)))
        assert r.shape == (3, 3)
        assert np.all(r == 0.0)


class TestEigSymExtremes:
    def test_diagonal(self):
        assert eig_sym_extremes(np.diag([1.0, 4.0])) == (1.0, 4.0)

    def test_identity(self):
        assert eig_sym_extremes(np.eye(3)) == (1.0, 1.0)

    def test_2x2_characteristic_polynomial_oracle(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        # oracle: roots of (2 - lam)^2 - 1 = 0
        tr, det = 4.0, 3.0
        disc = np.sqrt(tr**2 - 4 * det)
        lo_expect, hi_expect = (tr - disc) / 2, (tr + disc) / 2
        lo, hi = eig_sym_extremes(a)
        assert lo == pytest.approx(lo_expect, abs=1e-8)
        assert hi == pytest.approx(hi_expect, abs=1e-8)

    def test_rayleigh_quotient_bounds(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            p = int(rng.integers(2, 8))
            g = rng.standard_normal((p, p))
            a = (g + g.T) / 2
            lo, hi = eig_sym_extremes(a)
            for _ in range(100):
                v = rng.standard_normal(p)
                v /= np.linalg.norm(v)
                q = v @ a @ v
                assert lo - 1e-8 <= q <= hi + 1e-8

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            eig_sym_extremes(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestOpNorm:
    def test_zero(self):
        assert op_norm(np.zeros((3, 2))) == 0.0

    def test_symmetric_max_abs_eigenvalue(self):
        assert op_norm(np.diag([-3.0, 2.0])) == pytest.approx(3.0, abs=1e-8)

    def test_nilpotent_oracle(self):
        a = np.array([[0.0, 2.0], [0.0, 0.0]])
        # oracle: eigenvalues of a.T a = diag(0, 4), so the norm is 2
        w = np.linalg.eigvalsh(a.T @ a)
        assert op_norm(a) == pytest.approx(np.sqrt(w[-1]), abs=1e-8)
        assert op_norm(a) == pytest.approx(2.0, abs=1e-8)

    def test_matches_svd_on_random(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.standard_normal((int(rng.integers(1, 7)), int(rng.integers(1, 7))))
            assert op_norm(a) == pytest.approx(np.linalg.svd(a, compute_uv=False)[0], rel=1e-10)


class TestPsdLeq:
    def test_zero_below_identity(self):
        assert psd_leq(np.zeros((2, 2)), np.eye(2), 0.0)

    def test_identity_not_below_zero(self):
        assert not psd_leq(np.eye(2), np.zeros((2, 2)), 0.0)

    def test_2x2_eigen_oracle(self):
        a = np.eye(2)
        b = np.array([[2.0, 1.0], [1.0, 2.0]])
        # b - a has eigenvalues {0, 2}
        assert psd_leq(a, b, 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            psd_leq(np.eye(2), np.eye(3), 0.0)

    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_transitive_on_integer_diagonals(self, d1, d2, d3):
        # exact-arithmetic-safe chain: diagonal integer matrices ordered entrywise
        lo, mid, hi = sorted([d1, d2, d3])
        a, b, c = (np.diag([float(v), 0.0]) for v in (lo, mid, hi))
        if psd_leq(a, b, 0.0) and psd_leq(b, c, 0.0):
            assert psd_leq(a, c, 0.0)
