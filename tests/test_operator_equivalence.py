"""Bit-identity of the solvers vs the explicit-context baseline.

The solvers run in the compiled entries of the rounding library (the
Arnoldi expansion, the Householder reduction and the QL iteration) or in
the operator form of :mod:`repro.arithmetic.farray`; each op must be
exactly one rounded context operation, in source order.  These tests prove
it the hard way: the explicit ``ctx.sub(w, ctx.gemv(V, h))`` spellings
preserved in ``tests/_explicit_baseline.py`` are run side by side with the
solvers on the same inputs, and every trajectory array must be *exactly*
equal — element for element, for every registered format and the native
contexts.  Any hidden extra rounding, reordered operation or ndarray
round-trip would break these comparisons.
"""

import numpy as np
import pytest

from repro.arithmetic import available_formats, get_context, set_bitkernels_enabled
from repro.arithmetic.registry import PAPER_FORMATS
from repro.core import ArnoldiBreakdown
from repro.core.arnoldi import KrylovDecomposition, arnoldi_expand
from repro.core.krylov_schur import partialschur
from repro.datasets import generate_graph
from repro.linalg.tridiagonal import (
    EigenConvergenceError,
    symmetric_eigen,
    tridiagonal_eigen,
    tridiagonalize,
)
from repro.sparse import laplacian_from_adjacency

from tests._explicit_baseline import (
    arnoldi_expand_explicit,
    partialschur_explicit,
    symmetric_eigen_explicit,
    tridiagonal_eigen_explicit,
    tridiagonalize_explicit,
)

#: every arithmetic the library can run the solvers in
ALL_CONTEXTS = sorted(available_formats()) + ["reference"]


def _small_laplacian(n: int = 16):
    adjacency, _ = generate_graph("soc", index=0, size=n, seed=3)
    return laplacian_from_adjacency(adjacency)


def _assert_identical(a, b, label):
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.shape == b.shape, f"{label}: shape {a.shape} vs {b.shape}"
    assert np.array_equal(a, b, equal_nan=True), (
        f"{label}: operator-API result deviates from explicit-context baseline"
    )


def _fresh_decomp(ctx, n):
    rng = np.random.default_rng(7)
    v = ctx.round(np.asarray(rng.standard_normal(n), dtype=ctx.dtype))
    nrm = ctx.norm2(v)
    return KrylovDecomposition(
        V=np.zeros((n, 0), dtype=ctx.dtype),
        S=np.zeros((0, 0), dtype=ctx.dtype),
        b=np.zeros(0, dtype=ctx.dtype),
        residual=ctx.div(v, nrm),
        invariant=False,
    )


def _top(ctx):
    """The largest finite value of ``ctx``, in its work dtype."""
    fmt = getattr(ctx, "format", None)
    return ctx.dtype(fmt.max_value) if fmt is not None else np.finfo(ctx.dtype).max


def _assert_same_expansion(got, want, label):
    (decomp, matvecs), (decomp_ref, matvecs_ref) = got, want
    assert matvecs == matvecs_ref, label
    assert decomp.invariant == decomp_ref.invariant, label
    _assert_identical(decomp.V, decomp_ref.V, f"{label} V")
    _assert_identical(decomp.S, decomp_ref.S, f"{label} S")
    _assert_identical(decomp.b, decomp_ref.b, f"{label} b")
    if decomp.residual is None or decomp_ref.residual is None:
        assert decomp.residual is None and decomp_ref.residual is None, label
    else:
        _assert_identical(decomp.residual, decomp_ref.residual, f"{label} residual")


def _arnoldi_run(fn, ctx, matrix, scale):
    """``fn``'s expansion of ``matrix`` (times ``scale``) from a seeded
    start vector in ``ctx``: ``(decomposition, matvecs)``, or the
    breakdown text."""
    data = np.asarray(matrix.data, dtype=ctx.dtype)
    n = matrix.shape[0]  # the graph generator's order, not always 16
    try:
        with np.errstate(all="ignore"):
            converted = matrix.with_data(ctx.round(data * scale))
            return fn(ctx, converted, _fresh_decomp(ctx, n), 10, rng=np.random.default_rng(5))
    except ArnoldiBreakdown as exc:  # breakdowns must agree too
        return str(exc)


@pytest.mark.parametrize("fmt", ALL_CONTEXTS)
class TestBitIdentity:
    def test_arnoldi_trajectory(self, fmt):
        """The compiled expansion against the explicit spelling, op for op:
        the same trajectory, op tally and breakdown text, with the bit
        kernels on and off, on the Laplacian and on the Laplacian scaled to
        the top of the context's range (whose coefficients overflow in the
        IEEE-style formats)."""
        matrix = _small_laplacian(16)
        for enabled in (True, False):
            previous = set_bitkernels_enabled(enabled)
            try:
                for scale in ("unit", "top"):
                    ctx_a = get_context(fmt)
                    ctx_b = get_context(fmt)
                    factor = _top(ctx_a) if scale == "top" else ctx_a.dtype(1)
                    got = _arnoldi_run(arnoldi_expand, ctx_a, matrix, factor)
                    want = _arnoldi_run(arnoldi_expand_explicit, ctx_b, matrix, factor)
                    label = f"{fmt} {scale} bitkernels={enabled}"
                    assert ctx_a.op_count == ctx_b.op_count, label
                    if isinstance(want, str) or isinstance(got, str):
                        assert got == want, label
                        continue
                    _assert_same_expansion(got, want, label)
            finally:
                set_bitkernels_enabled(previous)

    def test_partialschur_trajectory(self, fmt):
        matrix = _small_laplacian(16)
        res = partialschur(
            matrix, nev=4, tol=1e-6, maxdim=10, restarts=3, ctx=fmt, seed=0
        )
        ref = partialschur_explicit(
            matrix, nev=4, tol=1e-6, maxdim=10, restarts=3, ctx=fmt, seed=0
        )
        assert res.reason == ref.reason
        assert res.restarts == ref.restarts
        assert res.matvecs == ref.matvecs
        assert res.nconverged == ref.nconverged
        _assert_identical(res.eigenvalues, ref.eigenvalues, f"{fmt} eigenvalues")
        _assert_identical(res.eigenvectors, ref.eigenvectors, f"{fmt} eigenvectors")
        _assert_identical(res.residuals, ref.residuals, f"{fmt} residuals")

    def test_symmetric_eigen(self, fmt):
        ctx_a = get_context(fmt)
        ctx_b = get_context(fmt)
        rng = np.random.default_rng(11)
        raw = rng.standard_normal((8, 8))
        A = ctx_a.round(np.asarray(raw + raw.T, dtype=ctx_a.dtype))

        def run(fn, ctx):
            try:
                return fn(ctx, A)
            except EigenConvergenceError:
                return "EigenConvergenceError"

        got = run(symmetric_eigen, ctx_a)
        want = run(symmetric_eigen_explicit, ctx_b)
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
            return
        _assert_identical(got[0], want[0], f"{fmt} eigenvalues")
        _assert_identical(got[1], want[1], f"{fmt} eigenvectors")


#: the paper's formats (float32 and float64 among them) and the reference
PIPELINE_CONTEXTS = [
    name for width in sorted(PAPER_FORMATS) for name in PAPER_FORMATS[width]
] + ["reference"]


#: the reduction inputs: ``(kind, scale)`` of :func:`_pipeline_input`
PIPELINE_INPUTS = [
    ("seeded", 1.0),
    ("zero_subcolumn", 1.0),
    ("scaled", 200.0),
    ("scaled", 1e4),
    ("inf_entry", 1.0),
]


def _pipeline_input(ctx, kind, scale):
    """A seeded symmetric matrix of order 7; with a zero subcolumn below its
    first diagonal entry (a skipped reflector), scaled until the 8-bit
    formats overflow, or with an ``inf`` entry and its mirror."""
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((7, 7))
    A = (raw + raw.T) / 2 * scale
    if kind == "zero_subcolumn":
        A[1:, 0] = A[0, 1:] = 0.0
    elif kind == "inf_entry":
        A[2, 4] = A[4, 2] = np.inf
    return ctx.round(np.asarray(A, dtype=ctx.dtype))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in narrow formats
@pytest.mark.parametrize("fmt", PIPELINE_CONTEXTS)
def test_tridiagonal_pipeline_identical(fmt):
    """tridiagonalize + QL iteration agree step by step with the baseline,
    op tallies included, on every input, in both accumulation orders, with
    the bit kernels on (the compiled entries round through the format's
    lookup tables) and off (by the format's rule alone)."""
    for enabled in (True, False):
        previous = set_bitkernels_enabled(enabled)
        try:
            for accumulation in ("pairwise", "sequential"):
                for kind, scale in PIPELINE_INPUTS:
                    _check_tridiagonal_pipeline(fmt, accumulation, kind, scale)
        finally:
            set_bitkernels_enabled(previous)


def _check_tridiagonal_pipeline(fmt, accumulation, kind, scale):
    ctx = get_context(fmt, accumulation=accumulation)
    ctx_ref = get_context(fmt, accumulation=accumulation)
    label = f"{fmt} {accumulation} {kind} x{scale}"
    A = _pipeline_input(ctx, kind, scale)
    d, e, Q = tridiagonalize(ctx, A)
    d_ref, e_ref, Q_ref = tridiagonalize_explicit(ctx_ref, A)
    _assert_identical(d, d_ref, f"{label} diagonal")
    _assert_identical(e, e_ref, f"{label} subdiagonal")
    _assert_identical(Q, Q_ref, f"{label} Q")
    assert ctx.op_count == ctx_ref.op_count, f"{label} reduction op tally"

    def run(fn, c):
        try:
            return fn(c, d, e, Z=Q)
        except EigenConvergenceError as exc:
            return str(exc)

    got = run(tridiagonal_eigen, ctx)
    want = run(tridiagonal_eigen_explicit, ctx_ref)
    assert ctx.op_count == ctx_ref.op_count, f"{label} op tally"
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    _assert_identical(got[0], want[0], f"{label} QL eigenvalues")
    _assert_identical(got[1], want[1], f"{label} QL eigenvectors")


def test_operator_solver_converges_like_before():
    """Sanity: the migrated solver still solves (float64, exact agreement
    with NumPy's eigensolver on a small Laplacian)."""
    matrix = _small_laplacian(16)
    res = partialschur(matrix, nev=4, tol=1e-10, ctx="float64", seed=0)
    assert res.converged
    dense = matrix.todense()
    exact = np.sort(np.linalg.eigvalsh(dense))[::-1]
    assert np.allclose(np.sort(res.eigenvalues_float64())[::-1], exact[:4], atol=1e-8)
