"""Tests of the dense context-generic kernels (Householder reduction, tridiagonal QL)."""

from unittest import mock

import numpy as np
import pytest

from repro.arithmetic import get_context
from repro.linalg import (
    EigenConvergenceError,
    symmetric_eigen,
    tridiagonal,
    tridiagonal_eigen,
    tridiagonalize,
)
from tests._explicit_baseline import (
    apply_reflector_left_explicit,
    apply_reflector_right_explicit,
    householder_vector_explicit,
    tridiagonal_eigen_explicit,
)


class _ReduceSpan:
    """Stands in for the trace span of ``tridiagonalize`` and keeps the
    attributes the reduction sets on it."""

    def __init__(self):
        self.attrs: dict = {}

    def __call__(self, name: str, **attrs):
        assert name == "tridiagonal.reduce", name
        self.attrs.update(attrs)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)


def _reduce(ctx, A):
    """``tridiagonalize(ctx, A)`` and the attributes of its trace span."""
    span = _ReduceSpan()
    with mock.patch.object(tridiagonal._trace, "span", span):
        d, e, Q = tridiagonalize(ctx, A)
    return d, e, Q, span.attrs


def _symmetric(rng, n):
    B = rng.standard_normal((n, n))
    return (B + B.T) / 2


class TestHouseholder:
    """The reflectors of the reduction, observed through ``tridiagonalize``
    (the compiled reduction) and through the explicit baseline spelling."""

    def test_annihilates_tail(self, float64_ctx, rng):
        A = _symmetric(rng, 8)
        d, e, Q, attrs = _reduce(float64_ctx, A)
        T = Q.T @ A @ Q
        assert abs(abs(e[0]) - np.linalg.norm(A[1:, 0])) < 1e-12
        assert np.max(np.abs(T[2:, 0])) < 1e-12
        assert attrs["skipped"] == 0 and attrs["first_nonfinite"] is None

    def test_zero_vector_gives_identity_reflector(self, float64_ctx, rng):
        A = _symmetric(rng, 6)
        A[1:, 0] = A[0, 1:] = 0.0
        d, e, Q, attrs = _reduce(float64_ctx, A)
        assert attrs["skipped"] == 1
        assert d[0] == A[0, 0] and e[0] == 0.0
        assert np.array_equal(Q[:, 0], np.eye(6)[0]) and np.array_equal(Q[0], np.eye(6)[0])

    def test_reflector_is_orthogonal(self, float64_ctx, rng):
        _, _, Q, _ = _reduce(float64_ctx, _symmetric(rng, 6))
        assert np.allclose(Q @ Q.T, np.eye(6), atol=1e-12)

    def test_apply_left_right_match_dense(self, float64_ctx, rng):
        A = rng.standard_normal((6, 6))
        x = rng.standard_normal(6)
        v, beta, _ = householder_vector_explicit(float64_ctx, x)
        H = np.eye(6) - float(beta) * np.outer(v, v)
        assert np.allclose(apply_reflector_left_explicit(float64_ctx, v, beta, A), H @ A)
        assert np.allclose(apply_reflector_right_explicit(float64_ctx, A, v, beta), A @ H)

    def test_low_precision_reflector_stays_finite(self):
        ctx = get_context("E4M3")
        A = np.zeros((4, 4))
        A[1:, 0] = A[0, 1:] = [300.0, 200.0, 100.0]  # squared entries overflow E4M3
        with np.errstate(all="ignore"):
            _, _, Q, attrs = _reduce(ctx, ctx.asarray(A))
        # the first reflector applies (Q is that reflector) and is finite;
        # the update overflows A, so the second subcolumn is skipped
        assert attrs["skipped"] == 1 and attrs["first_nonfinite"] == 0
        assert np.all(np.isfinite(Q)) and not np.array_equal(Q, np.eye(4))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf
    def test_nonfinite_entry_is_reported(self, float64_ctx, rng):
        A = _symmetric(rng, 6)
        A[3, 5] = A[5, 3] = np.inf
        _, _, _, attrs = _reduce(float64_ctx, A)
        assert attrs["first_nonfinite"] == 0
        assert attrs["skipped"] > 0  # the reflectors of non-finite subcolumns


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
        """A raised EigenConvergenceError keeps (and tallies) the rotations
        applied before it, like the step-by-step update."""
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
