"""Tests of the dense context-generic kernels (reflectors, tridiagonal, Schur)."""

import numpy as np
import pytest

from repro.arithmetic import get_context
from repro.linalg import (
    EigenConvergenceError,
    apply_reflector_left,
    apply_reflector_right,
    givens_rotation,
    hessenberg,
    householder_vector,
    real_schur,
    schur_eigenvalues,
    symmetric_eigen,
    tridiagonal_eigen,
    tridiagonalize,
)
from tests._explicit_baseline import tridiagonal_eigen_explicit


class TestHouseholder:
    def test_annihilates_tail(self, float64_ctx, rng):
        x = rng.standard_normal(8)
        v, beta, alpha = householder_vector(float64_ctx, x)
        H = np.eye(8) - float(beta) * np.outer(v, v)
        y = H @ x
        assert abs(abs(y[0]) - np.linalg.norm(x)) < 1e-12
        assert np.max(np.abs(y[1:])) < 1e-12
        assert abs(float(alpha)) == pytest.approx(np.linalg.norm(x))

    def test_zero_vector_gives_identity_reflector(self, float64_ctx):
        v, beta, alpha = householder_vector(float64_ctx, np.zeros(5))
        assert float(beta) == 0.0
        assert float(alpha) == 0.0

    def test_reflector_is_orthogonal(self, float64_ctx, rng):
        x = rng.standard_normal(6)
        v, beta, _ = householder_vector(float64_ctx, x)
        H = np.eye(6) - float(beta) * np.outer(v, v)
        assert np.allclose(H @ H.T, np.eye(6), atol=1e-12)

    def test_apply_left_right_match_dense(self, float64_ctx, rng):
        A = rng.standard_normal((6, 6))
        x = rng.standard_normal(6)
        v, beta, _ = householder_vector(float64_ctx, x)
        H = np.eye(6) - float(beta) * np.outer(v, v)
        assert np.allclose(apply_reflector_left(float64_ctx, v, beta, A), H @ A)
        assert np.allclose(apply_reflector_right(float64_ctx, A, v, beta), A @ H)

    def test_low_precision_reflector_stays_finite(self):
        ctx = get_context("E4M3")
        x = ctx.asarray([300.0, 200.0, 100.0])  # squared entries overflow E4M3
        v, beta, alpha = householder_vector(ctx, x)
        assert np.all(np.isfinite(v))
        assert np.isfinite(float(beta))


class TestGivens:
    def test_rotation_zeroes_second_component(self, float64_ctx, rng):
        for _ in range(10):
            a, b = rng.standard_normal(2)
            c, s, r = givens_rotation(float64_ctx, a, b)
            assert abs(c * b - s * a) < 1e-12
            assert abs(c * a + s * b - r) < 1e-12
            assert abs(c * c + s * s - 1.0) < 1e-12

    def test_trivial_cases(self, float64_ctx):
        c, s, r = givens_rotation(float64_ctx, 3.0, 0.0)
        assert (float(c), float(s), float(r)) == (1.0, 0.0, 3.0)
        c, s, r = givens_rotation(float64_ctx, 0.0, 2.0)
        assert (float(c), float(s), float(r)) == (0.0, 1.0, 2.0)


class TestTridiagonalization:
    def test_similarity_and_structure(self, float64_ctx, rng):
        B = rng.standard_normal((10, 10))
        A = (B + B.T) / 2
        d, e, Q = tridiagonalize(float64_ctx, A)
        T = Q.T @ A @ Q
        assert np.allclose(Q @ Q.T, np.eye(10), atol=1e-12)
        # T must be tridiagonal
        off = T - np.diag(np.diag(T)) - np.diag(np.diag(T, 1), 1) - np.diag(np.diag(T, -1), -1)
        assert np.max(np.abs(off)) < 1e-10
        assert np.allclose(np.diag(T), d, atol=1e-10)
        assert np.allclose(np.diag(T, -1), e, atol=1e-10)

    def test_rejects_non_square(self, float64_ctx, rng):
        with pytest.raises(ValueError):
            tridiagonalize(float64_ctx, rng.standard_normal((3, 4)))


class TestTridiagonalEigen:
    def test_matches_numpy_on_tridiagonal(self, float64_ctx, rng):
        n = 12
        d = rng.standard_normal(n)
        e = rng.standard_normal(n - 1)
        T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        w, Z = tridiagonal_eigen(float64_ctx, d, e)
        assert np.allclose(np.sort(w), np.sort(np.linalg.eigvalsh(T)), atol=1e-10)
        assert np.allclose(Z @ Z.T, np.eye(n), atol=1e-10)
        assert np.allclose(T @ Z, Z @ np.diag(w), atol=1e-9)

    def test_degenerate_spectrum(self, float64_ctx):
        # all eigenvalues equal
        n = 6
        w, Z = tridiagonal_eigen(float64_ctx, np.full(n, 3.0), np.zeros(n - 1))
        assert np.allclose(w, 3.0)
        assert np.allclose(Z, np.eye(n))

    def test_single_element(self, float64_ctx):
        w, Z = tridiagonal_eigen(float64_ctx, np.array([5.0]), np.zeros(0))
        assert w[0] == 5.0

    def test_convergence_error_on_nan(self, float64_ctx):
        with pytest.raises(EigenConvergenceError):
            tridiagonal_eigen(float64_ctx, np.array([np.nan, 1.0]), np.array([1.0]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow to NaN
    @pytest.mark.parametrize(
        "fmt, scale, seed, max_sweeps",
        [("posit16", 150.0, 5, 1), ("bfloat16", 150.0, 5, 2), ("E4M3", 400.0, 0, 60)],
    )
    def test_failure_tallies_recorded_rotations(self, fmt, scale, seed, max_sweeps):
        """A raised EigenConvergenceError still applies (and tallies) the
        rotations recorded before it, like the step-by-step update."""
        rng = np.random.default_rng(seed)
        ctx, ref = get_context(fmt), get_context(fmt)
        d = ctx.round(rng.uniform(-1, 1, 8) * scale)
        e = ctx.round(rng.uniform(-1, 1, 7) * scale)
        with pytest.raises(EigenConvergenceError) as raised:
            tridiagonal_eigen(ctx, d, e, max_sweeps=max_sweeps)
        with pytest.raises(EigenConvergenceError) as expected:
            tridiagonal_eigen_explicit(ref, d, e, max_sweeps=max_sweeps)
        assert str(raised.value) == str(expected.value)
        assert ctx.op_count == ref.op_count > 0


class TestSymmetricEigen:
    @pytest.mark.parametrize("n", [2, 5, 13, 24])
    def test_matches_numpy(self, float64_ctx, rng, n):
        B = rng.standard_normal((n, n))
        A = (B + B.T) / 2
        w, V = symmetric_eigen(float64_ctx, A)
        assert np.allclose(np.sort(w), np.linalg.eigvalsh(A), atol=1e-9)
        assert np.allclose(A @ V, V * np.asarray(w)[None, :], atol=1e-9)
        assert np.allclose(V.T @ V, np.eye(n), atol=1e-10)

    def test_empty_and_single(self, float64_ctx):
        w, V = symmetric_eigen(float64_ctx, np.zeros((0, 0)))
        assert w.shape == (0,)
        w, V = symmetric_eigen(float64_ctx, np.array([[2.5]]))
        assert w[0] == 2.5 and V[0, 0] == 1.0

    def test_low_precision_runs_and_is_roughly_correct(self, rng):
        ctx = get_context("takum16")
        B = rng.standard_normal((8, 8))
        A = (B + B.T) / 2
        w, V = symmetric_eigen(ctx, ctx.asarray(A))
        ref = np.linalg.eigvalsh(A)
        assert np.allclose(np.sort(np.asarray(w, dtype=np.float64)), ref, atol=0.05)

    def test_reference_context(self, reference_ctx, rng):
        B = rng.standard_normal((10, 10))
        A = (B + B.T) / 2
        w, V = symmetric_eigen(reference_ctx, reference_ctx.asarray(A))
        assert np.allclose(
            np.sort(np.asarray(w, dtype=np.float64)), np.linalg.eigvalsh(A), atol=1e-12
        )


class TestSchur:
    def test_hessenberg_structure(self, float64_ctx, rng):
        A = rng.standard_normal((9, 9))
        H, Q = hessenberg(float64_ctx, A)
        assert np.allclose(Q.T @ A @ Q, H, atol=1e-10)
        assert np.allclose(Q @ Q.T, np.eye(9), atol=1e-12)
        assert np.max(np.abs(np.tril(H, -2))) == 0.0

    @pytest.mark.parametrize("n", [4, 9, 16])
    def test_real_schur_eigenvalues(self, float64_ctx, rng, n):
        A = rng.standard_normal((n, n))
        T, Z = real_schur(float64_ctx, A)
        ours = np.sort_complex(schur_eigenvalues(T))
        ref = np.sort_complex(np.linalg.eigvals(A))
        assert np.allclose(ours, ref, atol=1e-6)
        assert np.allclose(Z @ T @ Z.T, A, atol=1e-6)
        assert np.allclose(Z @ Z.T, np.eye(n), atol=1e-10)

    def test_real_schur_symmetric_gives_diagonal(self, float64_ctx, rng):
        B = rng.standard_normal((8, 8))
        A = (B + B.T) / 2
        T, Z = real_schur(float64_ctx, A)
        assert np.max(np.abs(np.tril(T, -1))) < 1e-8
        assert np.allclose(np.sort(np.diag(T)), np.linalg.eigvalsh(A), atol=1e-8)

    def test_schur_eigenvalues_of_2x2_block(self):
        T = np.array([[1.0, 2.0], [-2.0, 1.0]])
        eigs = schur_eigenvalues(T)
        assert np.allclose(sorted(eigs.imag), [-2.0, 2.0])
        assert np.allclose(eigs.real, 1.0)
