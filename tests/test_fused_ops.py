"""Element-exact equivalence of the fused rounded kernels vs the unfused
op-for-op sequences.

The fused paths — single-buffer ``axpy`` (with and without ``out=``), the
in-place pairwise/sequential reduction tree behind ``reduce_sum``/``dot``/
``gemv``/``gemv_t``/``gemm``, and ``FArray.axpy`` — must produce bit-for-bit
the same rounded values as composing ``mul``/``add``/``reduce_sum`` naively,
for every registered format and both accumulation orders, because solver
trajectories in this reproduction are compared at bit level.  The QL
eigenvector update, applied in waves of disjoint Givens rotations, must
equal rotating step by step, and the compiled Householder reduction, which
updates ``[A; Q]`` as one stack, must equal updating each matrix alone.  Aliasing
(``out=`` pointing at an operand) and non-contiguous column views must
behave like the allocating form, and the public ``reduce_sum`` must never
mutate its input.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arithmetic import available_formats, get_context, set_bitkernels_enabled
from repro.linalg.tridiagonal import _apply_rotations, tridiagonalize, wavefront_schedule
from tests._explicit_baseline import tridiagonalize_explicit

#: every registered emulated format plus the native widths
ALL_FORMATS = available_formats()
ACCUMULATIONS = ["pairwise", "sequential"]


def unfused_reduce(ctx, values, axis=-1):
    """The pre-fusion reduce_sum, kept verbatim as the reference."""
    v = np.asarray(values, dtype=ctx.dtype)
    v = np.moveaxis(v, axis, -1)
    if v.shape[-1] == 0:
        return np.zeros(v.shape[:-1], dtype=ctx.dtype)
    if ctx.accumulation == "pairwise":
        while v.shape[-1] > 1:
            m = v.shape[-1]
            half = m // 2
            paired = ctx.add(v[..., 0 : 2 * half : 2], v[..., 1 : 2 * half : 2])
            if m % 2:
                paired = np.concatenate([paired, v[..., -1:]], axis=-1)
            v = paired
        return v[..., 0]
    acc = v[..., 0]
    for j in range(1, v.shape[-1]):
        acc = ctx.add(acc, v[..., j])
    return acc


def assert_same(got, ref, context=""):
    got = np.asarray(got)
    ref = np.asarray(ref)
    assert got.shape == ref.shape, context
    assert np.array_equal(got, ref, equal_nan=True), context


@pytest.fixture(params=ACCUMULATIONS)
def accumulation(request):
    return request.param


@pytest.fixture(params=ALL_FORMATS)
def ctx(request, accumulation):
    return get_context(request.param, accumulation=accumulation)


class TestReduceSum:
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 13, 64, 100])
    def test_1d_matches_unfused(self, ctx, m):
        rng = np.random.default_rng(m)
        x = ctx.round(rng.standard_normal(m) * 10.0 ** rng.integers(-3, 3))
        got = ctx.reduce_sum(x.copy())
        ref = unfused_reduce(ctx, x.copy())
        assert got == ref or (np.isnan(got) and np.isnan(ref)), (ctx.name, m)

    @pytest.mark.parametrize("m", [1, 3, 7, 33])
    def test_2d_both_axes_match_unfused(self, ctx, m):
        rng = np.random.default_rng(m + 100)
        A = ctx.round(rng.standard_normal((4, m)))
        for axis in (-1, 0, 1):
            assert_same(
                ctx.reduce_sum(A.copy(), axis=axis),
                unfused_reduce(ctx, A.copy(), axis=axis),
                (ctx.name, axis, m),
            )

    def test_does_not_mutate_input(self, ctx):
        rng = np.random.default_rng(7)
        x = ctx.round(rng.standard_normal(33))
        xc = x.copy()
        ctx.reduce_sum(x)
        assert np.array_equal(x, xc, equal_nan=True), ctx.name
        A = ctx.round(rng.standard_normal((6, 9)))
        Ac = A.copy()
        ctx.reduce_sum(A, axis=0)
        ctx.reduce_sum(A, axis=1)
        assert np.array_equal(A, Ac, equal_nan=True), ctx.name

    def test_scalar_result_type_1d(self, ctx):
        out = ctx.reduce_sum(ctx.round(np.asarray([1.0, 2.0, 3.0])))
        assert np.ndim(out) == 0


class TestDenseKernels:
    def test_gemv_matches_unfused(self, ctx):
        rng = np.random.default_rng(11)
        M = ctx.round(rng.standard_normal((7, 5)))
        x = ctx.round(rng.standard_normal(5))
        ref = unfused_reduce(ctx, ctx.mul(M, x[np.newaxis, :]), -1)
        assert_same(ctx.gemv(M, x), ref, ctx.name)

    def test_gemv_t_matches_unfused(self, ctx):
        rng = np.random.default_rng(13)
        M = ctx.round(rng.standard_normal((7, 5)))
        w = ctx.round(rng.standard_normal(7))
        ref = unfused_reduce(ctx, ctx.mul(M.T, w[np.newaxis, :]), -1)
        assert_same(ctx.gemv_t(M, w), ref, ctx.name)

    def test_gemm_matches_unfused(self, ctx):
        rng = np.random.default_rng(17)
        A = ctx.round(rng.standard_normal((6, 5)))
        B = ctx.round(rng.standard_normal((5, 4)))
        ref = unfused_reduce(ctx, ctx.mul(A[:, :, None], B[None, :, :]), 1)
        assert_same(ctx.gemm(A, B), ref, ctx.name)

    def test_dot_matches_unfused(self, ctx):
        rng = np.random.default_rng(19)
        x = ctx.round(rng.standard_normal(9))
        y = ctx.round(rng.standard_normal(9))
        got = ctx.dot(x, y)
        ref = unfused_reduce(ctx, ctx.mul(x, y))
        assert got == ref or (np.isnan(got) and np.isnan(ref)), ctx.name

    def test_gemv_on_noncontiguous_inputs(self, ctx):
        """Column views of a larger buffer must behave like copies."""
        rng = np.random.default_rng(23)
        big = ctx.round(rng.standard_normal((7, 10)))
        M = big[:, 0:8:2]  # non-contiguous 7x4
        x = big[0, 1:9:2]  # non-contiguous length-4
        assert_same(ctx.gemv(M, x), ctx.gemv(M.copy(), x.copy()), ctx.name)


class TestFusedAxpy:
    def _data(self, ctx, n=17, seed=29):
        rng = np.random.default_rng(seed)
        alpha = ctx.round_scalar(0.7)
        x = ctx.round(rng.standard_normal(n))
        y = ctx.round(rng.standard_normal(n))
        ref = ctx.add(y, ctx.mul(alpha, x))  # unfused op-for-op
        return alpha, x, y, np.asarray(ref)

    def test_matches_unfused(self, ctx):
        alpha, x, y, ref = self._data(ctx)
        assert_same(ctx.axpy(alpha, x, y), ref, ctx.name)

    def test_out_buffer(self, ctx):
        alpha, x, y, ref = self._data(ctx)
        out = np.empty_like(y)
        got = ctx.axpy(alpha, x, y, out=out)
        assert got is out
        assert_same(out, ref, ctx.name)

    def test_out_aliases_y(self, ctx):
        alpha, x, y, ref = self._data(ctx)
        buf = y.copy()
        got = ctx.axpy(alpha, x, buf, out=buf)
        assert got is buf
        assert_same(buf, ref, ctx.name)

    def test_out_aliases_x(self, ctx):
        alpha, x, y, ref = self._data(ctx)
        buf = x.copy()
        got = ctx.axpy(alpha, buf, y, out=buf)
        assert got is buf
        assert_same(buf, ref, ctx.name)

    def test_out_noncontiguous_column(self, ctx):
        alpha, x, y, ref = self._data(ctx)
        mat = np.zeros((x.size, 3), dtype=ctx.dtype)
        col = mat[:, 1]
        got = ctx.axpy(alpha, x, y, out=col)
        assert got.base is mat
        assert_same(mat[:, 1], ref, ctx.name)

    def test_scalar_operands_stay_scalar(self, ctx):
        got = ctx.axpy(ctx.round_scalar(2.0), ctx.round_scalar(3.0), ctx.round_scalar(1.0))
        ref = ctx.add(1.0, ctx.mul(2.0, 3.0))
        assert np.ndim(got) == 0
        assert float(got) == float(ref) or (np.isnan(got) and np.isnan(ref))


class TestFArrayAxpy:
    @pytest.mark.parametrize("name", ["posit16", "posit32", "posit64", "takum64", "float32"])
    def test_matches_operator_form(self, name):
        ctx = get_context(name)
        rng = np.random.default_rng(31)
        y = ctx.array(rng.standard_normal(21))
        x = ctx.array(rng.standard_normal(21))
        alpha = ctx.scalar(0.25)  # representable in every format
        fused = y.axpy(alpha, x)
        unfused = y + alpha * x
        assert np.array_equal(fused.data, unfused.data, equal_nan=True), name
        # plain-scalar / ndarray operands
        fused2 = y.axpy(0.25, np.asarray(x.data))
        assert np.array_equal(fused2.data, unfused.data, equal_nan=True), name

    def test_context_mismatch_raises(self):
        from repro.arithmetic.farray import PrecisionLeakError

        a = get_context("posit16").array([1.0, 2.0])
        b = get_context("posit32").array([1.0, 2.0])
        with pytest.raises(PrecisionLeakError):
            a.axpy(1.0, b)


def unfused_rotation(ctx, c, s, x, y):
    """The six-op Givens update ``rotate_columns`` replaces, op for op."""
    return (
        ctx.sub(ctx.mul(c, x), ctx.mul(s, y)),
        ctx.add(ctx.mul(s, x), ctx.mul(c, y)),
    )


def assert_same_bits(got, ref, context=""):
    """Equal values, NaNs in the same places, and signed zeros alike.

    The sign bit of a NaN is not compared.  Rounding does not move it
    (every rounding path returns the same word, ``tests/test_tables.py``),
    but the arithmetic can: when both operands of an operation are NaN, the
    NaN NumPy returns follows the operand order of the loop it runs, and a
    scalar-broadcast loop (the unfused spelling's scalar ``c``, ``s``) and an
    elementwise loop (the fused ``(k,)`` vectors) order them differently.
    """
    assert_same(got, ref, context)
    got, ref = np.asarray(got), np.asarray(ref)
    keep = ~np.isnan(ref)
    assert np.array_equal(np.signbit(got[keep]), np.signbit(ref[keep])), context


#: rotation coefficients as a Givens step produces them, plus the exact
#: degenerate rotations and one pair large enough to saturate products
ROTATIONS = [(0.6, 0.8), (-0.8, 0.6), (1.0, 0.0), (0.0, -1.0), (0.75, -0.5), (3e38, -3e38)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf/NaN operands
class TestRotateColumns:
    @pytest.fixture(params=ALL_FORMATS + ["reference"])
    def rctx(self, request):
        return get_context(request.param)

    @staticmethod
    def _columns(ctx, order, n=13, seed=37):
        """Columns 1 and 2 of a ``(n, 4)`` matrix laid out in ``order``,
        seeded with signed zeros, infinities, NaN and saturating values."""
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-4, 4, (n, 4))
        k = min(n, 7)
        raw[:k, 1] = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e-300][:k]
        raw[:k, 2] = [-0.0, 0.0, 1.0, np.nan, -np.inf, -1e300, 1e300][:k]
        Z = np.asarray(ctx.round(raw), order=order)
        assert Z.flags["F_CONTIGUOUS" if order == "F" else "C_CONTIGUOUS"]
        return Z[:, 1], Z[:, 2]

    # n = 3: the unfused ops round through the scalar paths, the fused
    # stacks (12 and 6 elements) may take a vector backend
    @pytest.mark.parametrize("n", [3, 13])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("c, s", ROTATIONS)
    def test_matches_six_op_spelling(self, rctx, order, c, s, n):
        c, s = rctx.round_scalar(c), rctx.round_scalar(s)
        x, y = self._columns(rctx, order, n=n)
        x0, y0 = x.copy(), y.copy()
        ref_i, ref_i1 = unfused_rotation(rctx, c, s, x, y)
        got = rctx.rotate_columns(c, s, x, y)
        assert got.shape == (2, x.size) and got.dtype == rctx.dtype
        assert_same_bits(got[0], ref_i, (rctx.name, order, "c*x - s*y"))
        assert_same_bits(got[1], ref_i1, (rctx.name, order, "s*x + c*y"))
        # the columns are read, never written
        assert_same_bits(x, x0, rctx.name)
        assert_same_bits(y, y0, rctx.name)

    def test_op_count_is_six_per_element(self, rctx):
        x, y = self._columns(rctx, "C", n=21)
        c, s = rctx.round_scalar(0.6), rctx.round_scalar(0.8)
        before = rctx.op_count
        rctx.rotate_columns(c, s, x, y)
        fused = rctx.op_count - before
        unfused_rotation(rctx, c, s, x, y)
        assert fused == 6 * x.size == rctx.op_count - before - fused

    def test_analytic_backend_agrees(self):
        """With the bit kernels disabled (arrays round through the analytic
        vector kernels) the fused rotation agrees with the unfused one and
        with the bit-kernel result."""
        for name in ("posit16", "E4M3", "takum32"):
            fast = get_context(name)
            x, y = self._columns(fast, "F")
            c, s = fast.round_scalar(0.6), fast.round_scalar(-0.8)
            expected = fast.rotate_columns(c, s, x, y)
            previous = set_bitkernels_enabled(False)
            try:
                ctx = get_context(name)
                got = ctx.rotate_columns(c, s, x, y)
                ref = unfused_rotation(ctx, c, s, x, y)
            finally:
                set_bitkernels_enabled(previous)
            assert_same_bits(got, np.stack(ref), name)
            assert_same_bits(got, expected, name)


@st.composite
def givens_sequences(draw, ncols=7):
    """Column indices of a QL-shaped Givens sequence.

    Sweeps run ``i = m - 1`` down to ``low``; a restart cuts one short;
    stray single rotations repeat arbitrary columns in between.
    """
    cols = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            m = draw(st.integers(1, ncols - 1))
            low = draw(st.integers(0, m - 1))
            stop = draw(st.integers(low, m - 1))  # stop > low: cut short by a restart
            cols.extend(range(m - 1, stop - 1, -1))
        else:
            cols.extend(draw(st.lists(st.integers(0, ncols - 2), max_size=4)))
    return cols


def rotate_step_by_step(ctx, Z, cols, cs, ss):
    """One fused ``rotate_columns`` call per Givens step, in order."""
    for i, c, s in zip(cols, cs, ss):
        rot = ctx.rotate_columns(c, s, Z[:, i], Z[:, i + 1])
        Z[:, i] = rot[0]
        Z[:, i + 1] = rot[1]


def special_matrix(ctx, rng, nrows, ncols):
    """A rounded ``(nrows, ncols)`` matrix seeded with ±0, ±inf and NaN."""
    raw = rng.standard_normal((nrows, ncols)) * 10.0 ** rng.integers(-3, 3, (nrows, ncols))
    flat = raw.reshape(-1)
    picks = rng.choice(flat.size, size=min(flat.size, 6), replace=False)
    flat[picks] = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan][: picks.size]
    return ctx.round(raw)


class TestWavefrontSchedule:
    """The deferred QL eigenvector update (``_apply_rotations``: one call of
    the compiled ``rotate``) against step-by-step ``rotate_columns``."""

    @settings(max_examples=60, deadline=None)
    @given(cols=givens_sequences())
    def test_waves_are_disjoint_and_keep_column_order(self, cols):
        waves = wavefront_schedule(cols, 7)
        assert sorted(k for wave in waves for k in wave) == list(range(len(cols)))
        wave_of = {k: w for w, wave in enumerate(waves) for k in wave}
        for wave in waves:
            touched = [j for k in wave for j in (cols[k], cols[k] + 1)]
            assert len(touched) == len(set(touched))
        # rotations sharing a column are applied in their recorded order
        for k1 in range(len(cols)):
            for k2 in range(k1 + 1, len(cols)):
                if abs(cols[k1] - cols[k2]) <= 1:
                    assert wave_of[k1] < wave_of[k2]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf/NaN operands
    @pytest.mark.parametrize("name", ALL_FORMATS + ["reference"])
    @settings(max_examples=15, deadline=None)
    @given(cols=givens_sequences(), seed=st.integers(0, 2**32 - 1))
    def test_wave_application_matches_step_by_step(self, name, cols, seed):
        ctx = get_context(name)
        rng = np.random.default_rng(seed)
        nrows = int(rng.integers(1, 6))
        Z = special_matrix(ctx, rng, nrows, 7)
        cs = list(ctx.round(rng.uniform(-1.0, 1.0, len(cols))))
        ss = list(ctx.round(rng.uniform(-1.0, 1.0, len(cols))))
        ref = Z.copy()
        before = ctx.op_count
        rotate_step_by_step(ctx, ref, cols, cs, ss)
        stepwise = ctx.op_count - before
        got = Z.copy()
        waves = _apply_rotations(ctx, got, cols, cs, ss)
        assert ctx.op_count - before - stepwise == stepwise == 6 * nrows * len(cols)
        assert waves == len(wavefront_schedule(cols, 7))
        assert_same_bits(got, ref, (name, cols))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in narrow formats
@pytest.mark.parametrize("name", ALL_FORMATS + ["reference"])
@pytest.mark.parametrize("n", [3, 9, 26])
def test_stacked_right_reflector_matches_one_matrix_at_a_time(name, n, accumulation):
    """The compiled reduction updates ``[A; Q]`` as one stack; ``A`` and
    ``Q`` get the values and the op tally of the explicit spelling, which
    updates each matrix alone."""
    ctx = get_context(name, accumulation=accumulation)
    ref = get_context(name, accumulation=accumulation)
    rng = np.random.default_rng(n)
    raw = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 3, (n, n))
    A = ctx.round((raw + raw.T) / 2)
    got = tridiagonalize(ctx, A)
    want = tridiagonalize_explicit(ref, A)
    assert ctx.op_count == ref.op_count > 0
    for g, w, label in zip(got, want, "deQ"):
        assert g.dtype == ctx.dtype
        assert_same_bits(g, w, (name, n, label))
