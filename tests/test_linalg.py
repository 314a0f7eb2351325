import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import leanreg
from leanreg import (
    DimensionMismatch,
    NotPositiveDefinite,
    NotSymmetric,
    det_inequality_check,
    linalg,
)


def _solve(a, b) -> np.ndarray:
    """a^-1 b for a vector b, by the gated path: ``_cholesky_spd``, then ``_apply_factor`` on one column."""
    lower, pivot = linalg._cholesky_spd(np.asarray(a, dtype=float))
    assert pivot == -1
    return linalg._apply_factor(lower, np.asarray(b, dtype=float)[:, None])[:, 0]


def test_package_exports_resolve_and_omit_the_deleted_linalg_surface():
    assert [name for name in leanreg.__all__ if not hasattr(leanreg, name)] == []
    for name in leanreg.__all__:
        value = getattr(leanreg, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("leanreg.") and getattr(home, name) is value, name
    for name in ("spd_solver", "eig_sym_extremes", "op_norm", "psd_leq", "NoConvergence"):
        assert name not in leanreg.__all__
        assert not hasattr(leanreg, name)
    with pytest.raises(AttributeError, match="'no_such_name'"):
        leanreg.no_such_name
    # a fresh interpreter, where no name has resolved yet: dir lists them, and * binds them
    code = (
        "import leanreg\n"
        "assert set(leanreg.__all__) <= set(dir(leanreg))\n"
        "names = {}\n"
        "exec('from leanreg import *', names)\n"
        "assert all(names[name] is getattr(leanreg, name) for name in leanreg.__all__)\n"
        "assert leanreg.simlab.run_coverage is leanreg.run_coverage\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestSolveSpd:
    """The gated SPD solve, and the gates ``det_inequality_check`` puts on a raw moment pair."""

    I2, G = np.eye(2), [1.0, 1.0]

    def test_identity(self):
        np.testing.assert_allclose(_solve(np.eye(2), [3.0, -1.0]), [3.0, -1.0])

    def test_diagonal(self):
        np.testing.assert_allclose(_solve(np.diag([2.0, 4.0]), [2.0, 8.0]), [1.0, 2.0])

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
        np.testing.assert_allclose(_solve(a, b), expected, atol=1e-12)

    def test_matrix_rhs(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        rhs = np.array([[1.0, 0.0], [0.0, 1.0]])
        inv = linalg._apply_factor(linalg._cholesky_spd(a)[0], rhs)
        np.testing.assert_allclose(a @ inv, np.eye(2), atol=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            det_inequality_check(np.array([[1.0, 2.0], [0.0, 1.0]]), self.G, self.I2, self.G)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            det_inequality_check(np.array([[1.0, 0.0], [0.0, -1.0]]), self.G, self.I2, self.G)

    def test_rejects_singular(self):
        with pytest.raises(NotPositiveDefinite):
            det_inequality_check(np.array([[1.0, 1.0], [1.0, 1.0]]), self.G, self.I2, self.G)

    def test_pivot_gate_is_relative_to_each_diagonal_entry(self):
        # far apart diagonal entries are units, not singularity: beta_hat is (1, 2**100) to the bit
        a = np.diag([1.0, 2.0**-100])
        rep = det_inequality_check(a, self.G, self.I2, [1.0, 2.0**100])
        assert rep.err_norm == 0.0
        # numpy factors this one, with a last pivot of eps on a diagonal of 1 + eps
        eps = np.finfo(float).eps
        with pytest.raises(NotPositiveDefinite, match="pivot 1 at or below p \\* eps"):
            det_inequality_check(np.array([[1.0, 1.0], [1.0, 1.0 + eps]]), self.G, self.I2, self.G)

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionMismatch):
            det_inequality_check(np.ones((2, 3)), self.G, np.ones((2, 3)), self.G)
        with pytest.raises(DimensionMismatch):
            det_inequality_check(self.I2, [1.0, 1.0, 1.0], self.I2, self.G)
        with pytest.raises(DimensionMismatch, match="non-empty"):
            det_inequality_check(np.zeros((0, 0)), [], np.zeros((0, 0)), [])

    def test_fuzz_residual_bound(self):
        # post-condition ||a x - b|| <= 1e-8 (||a||_op ||x|| + ||b||) on random SPD
        rng = np.random.default_rng(314)
        for _ in range(1000):
            p = int(rng.integers(1, 9))
            g = rng.standard_normal((p, p))
            a = g.T @ g + 0.1 * np.eye(p)
            b = rng.standard_normal(p)
            x = _solve(a, b)
            bound = 1e-8 * (np.linalg.norm(a, 2) * np.linalg.norm(x) + np.linalg.norm(b))
            assert np.linalg.norm(a @ x - b) <= bound


def _spd(p: int, cond: float, seed: int) -> np.ndarray:
    """A symmetric positive definite matrix with condition number ``cond``."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((p, p)))
    a = (q * np.logspace(0.0, -np.log10(cond), p)) @ q.T
    return (a + a.T) / 2.0


def _rhs(p: int, shape: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if shape == "column":
        return rng.standard_normal((p, 1))
    if shape == "matrix":
        return rng.standard_normal((p, 7))
    return rng.standard_normal((7, p)).T  # a non-contiguous view


class TestSpdSolverOracle:
    """The substitution ``_apply_factor`` against scipy's LAPACK ``cho_solve`` (potrs)."""

    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("shape", ["column", "matrix", "transposed"])
    @pytest.mark.parametrize("p", [1, 2, 11, 50])
    def test_matches_cho_solve(self, p, shape):
        a = _spd(p, 1e6, seed=p)
        b = _rhs(p, shape, seed=100 + p)
        b_before = b.copy()
        x = linalg._apply_factor(linalg._cholesky_spd(a)[0], b)
        assert x.shape == b.shape
        np.testing.assert_array_equal(b, b_before)  # b is not mutated
        # normwise backward stability of Cholesky, column by column:
        # |a x - b| <= c p eps |a| |x|
        a_norm = np.linalg.norm(a, 2)
        residual = np.linalg.norm(a @ x - b, axis=0)
        assert np.all(residual <= 4.0 * p * self.EPS * a_norm * np.linalg.norm(x, axis=0))
        # forward error against LAPACK, within cond(a) times the same factor
        ref = scipy.linalg.cho_solve((np.linalg.cholesky(a), True), b)
        bound = 4.0 * p * self.EPS * np.linalg.cond(a) * np.linalg.norm(ref, axis=0)
        assert np.all(np.linalg.norm(x - ref, axis=0) <= bound)

    def test_layout_does_not_change_bits(self):
        lower, _ = linalg._cholesky_spd(_spd(11, 1e3, seed=1))
        b = _rhs(11, "transposed", seed=2)
        x = linalg._apply_factor(lower, b)
        assert x.tobytes() == linalg._apply_factor(lower, np.ascontiguousarray(b)).tobytes()

    def test_bits_do_not_depend_on_blas_threads(self, blas_thread_stdouts):
        code = (
            "import hashlib, numpy as np\n"
            "from leanreg import linalg\n"
            "rng = np.random.default_rng(13)\n"
            "g = rng.standard_normal((13, 13))\n"
            "lower, _ = linalg._cholesky_spd(g @ g.T + 13 * np.eye(13))\n"
            "x = linalg._apply_factor(lower, rng.standard_normal((13, 2000)))\n"
            "print(hashlib.sha256(x.tobytes()).hexdigest())\n"
        )
        stdouts = blas_thread_stdouts([sys.executable, "-c", code], text=True)
        digests = {out.strip() for out in stdouts}
        assert len(digests) == 1


class TestStackedFactor:
    """``_cholesky_spd`` and ``_apply_factor`` on a stack give each matrix its own bits and gate."""

    @pytest.mark.parametrize("p", [1, 2, 5, 21])
    def test_each_item_solves_as_it_does_alone(self, p):
        stack = np.stack([_spd(p, 10.0 ** k, seed=k) for k in range(6)]).reshape(2, 3, p, p)
        b = np.random.default_rng(p).standard_normal((2, 3, p, 4))
        lower, pivot = linalg._cholesky_spd(stack)
        np.testing.assert_array_equal(pivot, np.full((2, 3), -1))
        # a one-column stack solves as one column does alone (a BLAS dot, not a gemv, per row)
        x, column = linalg._apply_factor(lower, b), linalg._apply_factor(lower, b[..., :1])
        for i in np.ndindex(2, 3):
            alone, _ = linalg._cholesky_spd(stack[i])
            assert x[i].tobytes() == linalg._apply_factor(alone, b[i]).tobytes()
            assert column[i].tobytes() == linalg._apply_factor(alone, b[i][:, :1]).tobytes()

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
            det_inequality_check(np.eye(2), [1.0, 1.0], stack[2], [1.0, 1.0])

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

    # 9000 rows take two passes: three blocks, then one block of their stacked R factors
    @pytest.mark.parametrize("n", [500, 4096, 4097, 9000])
    @pytest.mark.parametrize("p", [1, 2, 11])
    def test_each_item_of_a_stack_gets_its_own_bits(self, n, p):
        a = np.random.default_rng(n * p).standard_normal((2, 3, n, p))
        r = linalg.tsqr_r(a)
        assert r.shape == (2, 3, p, p)
        for i in np.ndindex(2, 3):
            assert r[i].tobytes() == linalg.tsqr_r(a[i]).tobytes()
