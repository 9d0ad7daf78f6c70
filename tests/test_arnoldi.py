"""Tests of the Arnoldi expansion and Krylov decomposition invariants."""

import numpy as np
import pytest

from repro.arithmetic import bitkernels, get_context
from repro.core import ArnoldiBreakdown, KrylovDecomposition, arnoldi_expand
from repro.sparse import CSRMatrix
from tests.conftest import random_symmetric_csr


def empty_decomposition(ctx, n, seed=0):
    rng = np.random.default_rng(seed)
    v = ctx.asarray(rng.standard_normal(n))
    v = ctx.div(v, ctx.norm2(v))
    return KrylovDecomposition(
        V=np.zeros((n, 0), dtype=ctx.dtype),
        S=np.zeros((0, 0), dtype=ctx.dtype),
        b=np.zeros(0, dtype=ctx.dtype),
        residual=v,
        invariant=False,
    )


def check_krylov_relation(A, decomp, tol):
    V = np.asarray(decomp.V, dtype=np.float64)
    S = np.asarray(decomp.S, dtype=np.float64)
    b = np.asarray(decomp.b, dtype=np.float64)
    AV = np.column_stack([A.matvec(V[:, j]) for j in range(decomp.order)])
    residual = AV - V @ S
    if decomp.residual is not None:
        residual -= np.outer(np.asarray(decomp.residual, dtype=np.float64), b)
    return np.max(np.abs(residual)) <= tol


class TestExpansion:
    def test_orthonormal_basis_and_relation(self, float64_ctx, small_symmetric_matrix):
        decomp = empty_decomposition(float64_ctx, small_symmetric_matrix.shape[0])
        decomp, matvecs = arnoldi_expand(float64_ctx, small_symmetric_matrix, decomp, 15)
        assert decomp.order == 15
        assert matvecs == 15
        V = decomp.V
        assert np.allclose(V.T @ V, np.eye(15), atol=1e-12)
        assert check_krylov_relation(small_symmetric_matrix, decomp, 1e-10)

    def test_projected_matrix_is_nearly_symmetric(self, float64_ctx, small_symmetric_matrix):
        decomp = empty_decomposition(float64_ctx, small_symmetric_matrix.shape[0])
        decomp, _ = arnoldi_expand(float64_ctx, small_symmetric_matrix, decomp, 12)
        S = np.asarray(decomp.S)
        assert np.max(np.abs(S - S.T)) < 1e-10

    def test_incremental_expansion_matches(self, float64_ctx, small_symmetric_matrix):
        decomp = empty_decomposition(float64_ctx, small_symmetric_matrix.shape[0])
        decomp, _ = arnoldi_expand(float64_ctx, small_symmetric_matrix, decomp, 8)
        decomp, extra = arnoldi_expand(float64_ctx, small_symmetric_matrix, decomp, 14)
        assert extra == 6
        assert decomp.order == 14
        assert np.allclose(decomp.V.T @ decomp.V, np.eye(14), atol=1e-11)
        assert check_krylov_relation(small_symmetric_matrix, decomp, 1e-10)

    def test_target_capped_at_matrix_order(self, float64_ctx):
        A = random_symmetric_csr(6, density=0.5, seed=1)
        decomp = empty_decomposition(float64_ctx, 6)
        decomp, _ = arnoldi_expand(float64_ctx, A, decomp, 50)
        assert decomp.order <= 6

    def test_invariant_subspace_detected(self, float64_ctx):
        # a diagonal matrix with few distinct eigenvalues exhausts the Krylov
        # space quickly; with the random continuation the basis keeps growing
        # orthonormally instead of blowing up
        diag = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 3.0])
        A = CSRMatrix.from_dense(np.diag(diag))
        decomp = empty_decomposition(float64_ctx, 8)
        decomp, _ = arnoldi_expand(float64_ctx, A, decomp, 8)
        V = np.asarray(decomp.V)
        assert np.allclose(V.T @ V, np.eye(decomp.order), atol=1e-8)

    def test_breakdown_on_nonfinite_matrix(self, float64_ctx):
        A = CSRMatrix.from_dense(np.array([[np.inf, 0.0], [0.0, 1.0]]))
        decomp = empty_decomposition(float64_ctx, 2)
        with pytest.raises(ArnoldiBreakdown):
            arnoldi_expand(float64_ctx, A, decomp, 2)

    def test_expansion_in_low_precision_keeps_values_representable(self):
        ctx = get_context("bfloat16")
        A = random_symmetric_csr(30, density=0.15, seed=2)
        Ac, _ = ctx.convert_matrix(A)
        decomp = empty_decomposition(ctx, 30)
        decomp, _ = arnoldi_expand(ctx, Ac, decomp, 10)
        V = np.asarray(decomp.V)
        rounded = ctx.round(V)
        assert np.array_equal(rounded, V)
        # orthogonality only holds to roughly the format's epsilon
        gram = V.T @ V
        assert np.max(np.abs(gram - np.eye(decomp.order))) < 0.1

    def test_zero_order_noop_when_invariant(self, float64_ctx, small_symmetric_matrix):
        decomp = empty_decomposition(float64_ctx, small_symmetric_matrix.shape[0])
        decomp.invariant = True
        same, matvecs = arnoldi_expand(float64_ctx, small_symmetric_matrix, decomp, 10)
        assert matvecs == 0
        assert same is decomp


def test_arnoldi_refuses_bad_arguments():
    """The compiled expansion refuses arrays of the wrong dtype, layout or
    shape, a matrix outside the basis's order and a kernel that does not
    match the work dtype with ``TypeError`` or ``ValueError``, before it
    writes anything."""
    arnoldi = bitkernels.extension().arnoldi
    fmt = get_context("posit16").format
    kernel = fmt._build_bitkernel().compiled  # a float64 kernel in either switch position
    n, m = 4, 3
    eye = CSRMatrix.identity(n)
    csr = (eye.indptr.astype(np.intp), eye.indices.astype(np.intp), eye.data)

    def operands():
        v = np.zeros(n)
        v[0] = 1.0
        return np.zeros((n, m)), np.zeros((m, m)), np.zeros(m), v

    def call(V=None, S=None, b=None, v=None, start=0, matrix=csr, kern=None, nargs=9):
        defaults = operands()
        args = [
            defaults[0] if V is None else V,
            defaults[1] if S is None else S,
            defaults[2] if b is None else b,
            defaults[3] if v is None else v,
            start,
            matrix,
            False,
            0.7071,
            kern,
        ]
        return arnoldi(*args[:nargs])

    bad_types = [
        dict(V=np.zeros((n, m), dtype=np.float32)),  # float32 basis, float64 vectors
        dict(V=np.zeros((n, 2 * m))[:, ::2]),  # not C-contiguous
        dict(V=np.zeros((n, m), dtype=np.int64)),  # integer values
        dict(V=np.zeros(n)),  # not 2-D
        dict(v=np.zeros(n, dtype=np.float32)),
        dict(S=np.zeros((m, m), dtype=np.float32)),
        dict(matrix=[csr[0], csr[1], csr[2]]),  # not a tuple
        dict(matrix=(csr[0].astype(np.int32), csr[1], csr[2])),
        dict(matrix=(csr[0], csr[1], csr[2].astype(np.float32))),
        dict(kern=kernel, V=np.zeros((n, m), dtype=np.float32),
             S=np.zeros((m, m), dtype=np.float32), b=np.zeros(m, dtype=np.float32),
             v=np.zeros(n, dtype=np.float32)),  # a float64 kernel, float32 arrays
        dict(kern=fmt.round_array),  # a callable in place of the kernel
        dict(nargs=8),
    ]
    for kwargs in bad_types:
        with pytest.raises(TypeError):
            call(**kwargs)
    bad_values = [
        dict(S=np.zeros((m, m + 1))),
        dict(b=np.zeros(m + 1)),
        dict(v=np.zeros(n + 1)),
        dict(start=m + 1),
        dict(start=-1),
        dict(start=0, matrix=None),  # orthogonalising against no column
        dict(matrix=(np.array([0, 1, 2, 3], dtype=np.intp), csr[1][:3], csr[2][:3])),  # short indptr
        dict(matrix=(np.array([0, 2, 1, 3, 4], dtype=np.intp), csr[1], csr[2])),  # decreasing
        dict(matrix=(csr[0], np.array([0, 1, 2, 4], dtype=np.intp), csr[2])),  # column out of range
        dict(matrix=(csr[0], csr[1], csr[2][:3])),  # fewer values than indices
    ]
    for kwargs in bad_values:
        with pytest.raises(ValueError):
            call(**kwargs)
    # the identity: every column is invariant at once (status 1, column 0)
    V, S, b, v = operands()
    ops, status, stop, dgks = arnoldi(V, S, b, v, 0, csr, False, 0.7071, None)
    assert (status, stop) == (1, 0) and dgks == 1 and ops > 0
    assert V[:, 0].tolist() == [1.0, 0.0, 0.0, 0.0] and S[0, 0] == 1.0
