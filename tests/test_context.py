"""Tests of the compute contexts (per-operation rounding kernels)."""

import numpy as np
import pytest
import warnings

from repro.arithmetic import (
    DynamicRangeError,
    EmulatedContext,
    NativeContext,
    ReferenceContext,
    get_context,
    get_format,
)
from repro.sparse import CSRMatrix
from tests.conftest import random_symmetric_csr


class TestGetContext:
    def test_native_contexts(self):
        assert isinstance(get_context("float64"), NativeContext)
        assert isinstance(get_context("float32"), NativeContext)
        assert isinstance(get_context("reference"), ReferenceContext)
        assert get_context("reference").dtype == np.longdouble

    def test_emulated_contexts(self):
        for name in ("bfloat16", "posit16", "takum8", "E4M3"):
            ctx = get_context(name)
            assert isinstance(ctx, EmulatedContext)
            assert ctx.name == name

    def test_cast_formats_have_no_emulated_context(self):
        """float32 and float64 round by a cast and have no compiled kernel,
        so the compiled reductions could not round their sums: an emulated
        context of either is refused, and get_context gives a native one."""
        for name in ("float32", "float64"):
            with pytest.raises(ValueError, match="rounds by a cast"):
                EmulatedContext(get_format(name))

    def test_unknown_format_raises(self):
        with pytest.raises(KeyError):
            get_context("float8_e3m4")

    def test_invalid_accumulation_rejected(self):
        with pytest.raises(ValueError):
            get_context("float64", accumulation="random")


class TestElementwiseOps:
    def test_native_ops_match_numpy(self, float64_ctx, rng):
        a = rng.standard_normal(50)
        b = rng.standard_normal(50)
        assert np.array_equal(float64_ctx.add(a, b), a + b)
        assert np.array_equal(float64_ctx.mul(a, b), a * b)
        assert np.array_equal(float64_ctx.sub(a, b), a - b)

    def test_emulated_ops_are_rounded(self):
        ctx = get_context("bfloat16")
        a = ctx.asarray([1.0])
        b = ctx.asarray([3.0])
        # 1/3 rounded to bfloat16
        expected = get_format("bfloat16").round_scalar(1.0 / 3.0)
        assert float(ctx.div(a, b)[0]) == expected

    def test_results_stay_representable(self, emulated_ctx, rng):
        fmt = emulated_ctx.format
        a = emulated_ctx.asarray(rng.standard_normal(64))
        b = emulated_ctx.asarray(rng.standard_normal(64))
        for op in (emulated_ctx.add, emulated_ctx.sub, emulated_ctx.mul):
            out = op(a, b)
            finite = np.isfinite(out)
            again = fmt.round_array(out[finite])
            assert np.array_equal(again, out[finite])

    def test_neg_and_abs_are_exact(self, emulated_ctx, rng):
        a = emulated_ctx.asarray(rng.standard_normal(32))
        assert np.array_equal(emulated_ctx.neg(a), -a)
        assert np.array_equal(emulated_ctx.abs(a), np.abs(a))

    def test_sqrt(self):
        ctx = get_context("takum16")
        out = float(ctx.sqrt(ctx.asarray([2.0]))[0])
        assert out == pytest.approx(np.sqrt(2.0), rel=1e-3)

    def test_op_counting(self):
        ctx = get_context("posit16")
        before = ctx.op_count
        ctx.add(ctx.asarray([1.0, 2.0]), ctx.asarray([3.0, 4.0]))
        assert ctx.op_count == before + 2

    def test_op_counting_disabled(self):
        # op counting is unconditional: there is no switch to disable it
        with pytest.raises(TypeError):
            get_context("posit16", count_ops=False)
        ctx = get_context("posit16")
        ctx.add(ctx.asarray([1.0]), ctx.asarray([2.0]))
        assert ctx.op_count == 1


class TestReductions:
    def test_dot_exact_values(self, float64_ctx):
        x = np.arange(1.0, 9.0)
        assert float(float64_ctx.dot(x, x)) == float(np.dot(x, x))

    def test_pairwise_vs_sequential_same_exact_result(self):
        # with exactly representable data and no rounding both orders agree
        ctx_p = get_context("float64", accumulation="pairwise")
        ctx_s = get_context("float64", accumulation="sequential")
        x = np.arange(1.0, 20.0)
        assert float(ctx_p.reduce_sum(x)) == float(ctx_s.reduce_sum(x))

    def test_accumulation_order_changes_low_precision_result(self, rng):
        x = rng.standard_normal(257)
        ctx_p = get_context("bfloat16", accumulation="pairwise")
        ctx_s = get_context("bfloat16", accumulation="sequential")
        xp = ctx_p.asarray(x)
        rp = float(ctx_p.reduce_sum(xp))
        rs = float(ctx_s.reduce_sum(xp))
        exact = float(np.sum(xp))
        # pairwise should not be further from the exact sum than sequential
        assert abs(rp - exact) <= abs(rs - exact) + 0.25

    def test_empty_reduction(self, float64_ctx):
        assert float(float64_ctx.reduce_sum(np.zeros(0))) == 0.0

    def test_norm_scaled_avoids_overflow(self):
        ctx = get_context("E4M3")
        # the squares of the entries overflow 448 but the norm itself (374)
        # is representable: the scaled algorithm must survive, the naive one
        # overflows to NaN
        x = ctx.asarray([300.0, 200.0, 100.0])
        norm = float(ctx.norm2(x))
        assert np.isfinite(norm)
        assert norm == pytest.approx(np.linalg.norm([300.0, 200.0, 100.0]), rel=0.15)
        assert not np.isfinite(float(ctx.sqrt(ctx.dot(x, x))))

    def test_norm_of_zero_vector(self, emulated_ctx):
        assert float(emulated_ctx.norm2(np.zeros(5))) == 0.0

    def test_hypot_survives_near_format_maximum_e4m3(self):
        # regression: sqrt(a² + b²) used to overflow E4M3 (max 448) to NaN
        # for representable inputs; the scaled form must return the correctly
        # rounded magnitude
        ctx = get_context("E4M3")
        a, b = np.float64(300.0), np.float64(200.0)
        naive = ctx.sqrt(ctx.add(ctx.mul(a, a), ctx.mul(b, b)))
        assert not np.isfinite(float(naive))  # the failure mode being fixed
        out = float(ctx.hypot(a, b))
        assert np.isfinite(out)
        assert out == pytest.approx(np.hypot(300.0, 200.0), rel=0.15)

    def test_hypot_survives_near_format_maximum_posit8(self):
        # posits saturate instead of overflowing: the naive form silently
        # returns sqrt(maxpos) = 4096 where the true magnitude is ~11585
        ctx = get_context("posit8")
        a = ctx.round_scalar(8192.0)
        assert float(a) == 8192.0  # representable input near the top decade
        naive = float(ctx.sqrt(ctx.add(ctx.mul(a, a), ctx.mul(a, a))))
        assert naive == pytest.approx(4096.0)
        out = float(ctx.hypot(a, a))
        assert out == pytest.approx(8192.0)  # nearest posit8 to 8192*sqrt(2)

    def test_hypot_matches_composed_scaling(self, emulated_ctx):
        # scaled hypot must equal the norm2-style composition (divide both
        # operands, square, sum, sqrt, rescale) bit for bit
        ctx = emulated_ctx
        rng = np.random.default_rng(17)
        for _ in range(25):
            a, b = (ctx.round_scalar(v) for v in rng.standard_normal(2))
            scale = max(abs(a), abs(b))
            if float(scale) == 0.0:
                continue
            ha = ctx.div(abs(a), scale)
            hb = ctx.div(abs(b), scale)
            composed = ctx.mul(
                scale,
                ctx.sqrt(ctx.add(ctx.mul(ha, ha), ctx.mul(hb, hb))),
            )
            assert float(ctx.hypot(a, b)) == float(composed)

    def test_hypot_edge_cases(self, emulated_ctx):
        ctx = emulated_ctx
        zero = np.float64(0.0)
        assert float(ctx.hypot(zero, zero)) == 0.0
        assert float(ctx.hypot(ctx.round_scalar(3.0), zero)) == 3.0
        assert np.isnan(float(ctx.hypot(np.float64(np.nan), np.float64(1.0))))
        # array branch agrees with the scalar branch elementwise
        a = ctx.round(np.asarray([3.0, 0.5, 0.0], dtype=ctx.dtype))
        b = ctx.round(np.asarray([4.0, 0.25, 0.0], dtype=ctx.dtype))
        vec = ctx.hypot(a, b)
        for i in range(3):
            assert float(vec[i]) == float(ctx.hypot(a[i], b[i]))

    def test_axpy(self, float64_ctx, rng):
        x = rng.standard_normal(10)
        y = rng.standard_normal(10)
        assert np.allclose(float64_ctx.axpy(2.0, x, y), y + 2.0 * x)


class TestDenseKernels:
    def test_gemv_matches_numpy(self, float64_ctx, rng):
        M = rng.standard_normal((7, 5))
        x = rng.standard_normal(5)
        assert np.allclose(float64_ctx.gemv(M, x), M @ x)

    def test_gemv_t_matches_numpy(self, float64_ctx, rng):
        M = rng.standard_normal((7, 5))
        x = rng.standard_normal(7)
        assert np.allclose(float64_ctx.gemv_t(M, x), M.T @ x)

    def test_gemm_matches_numpy(self, float64_ctx, rng):
        A = rng.standard_normal((6, 4))
        B = rng.standard_normal((4, 3))
        assert np.allclose(float64_ctx.gemm(A, B), A @ B)

    def test_gemm_dimension_mismatch(self, float64_ctx, rng):
        with pytest.raises(ValueError):
            float64_ctx.gemm(rng.standard_normal((3, 3)), rng.standard_normal((4, 2)))

    def test_empty_dimensions(self, float64_ctx):
        assert float64_ctx.gemv(np.zeros((3, 0)), np.zeros(0)).shape == (3,)
        assert float64_ctx.gemv_t(np.zeros((0, 4)), np.zeros(0)).shape == (4,)

    def test_low_precision_gemv_close_to_exact(self, rng):
        ctx = get_context("takum16")
        M = ctx.asarray(rng.standard_normal((8, 8)))
        x = ctx.asarray(rng.standard_normal(8))
        assert np.allclose(ctx.gemv(M, x), np.asarray(M) @ np.asarray(x), atol=0.02)


class TestSparseKernel:
    def test_spmv_matches_scipy(self, float64_ctx, rng):
        A = random_symmetric_csr(60, density=0.1, seed=3)
        x = rng.standard_normal(60)
        expected = A.toscipy() @ x
        assert np.allclose(float64_ctx.spmv(A, x), expected)

    def test_spmv_sequential_matches_scipy(self, rng):
        ctx = get_context("float64", accumulation="sequential")
        A = random_symmetric_csr(40, density=0.15, seed=5)
        x = rng.standard_normal(40)
        assert np.allclose(ctx.spmv(A, x), A.toscipy() @ x)

    def test_spmv_with_empty_rows(self, float64_ctx):
        from repro.sparse import CSRMatrix

        A = CSRMatrix(
            np.array([2.0, 3.0]),
            np.array([1, 0]),
            np.array([0, 1, 1, 2]),
            (3, 3),
        )
        out = float64_ctx.spmv(A, np.array([1.0, 10.0, 100.0]))
        assert np.array_equal(out, [20.0, 0.0, 3.0])

    def test_spmv_empty_matrix(self, float64_ctx):
        from repro.sparse import CSRMatrix

        A = CSRMatrix(np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(4, dtype=np.int64), (3, 3))
        assert np.array_equal(float64_ctx.spmv(A, np.ones(3)), np.zeros(3))

    def test_spmv_low_precision_rounds_each_product(self):
        ctx = get_context("bfloat16")
        A = random_symmetric_csr(30, density=0.2, seed=9)
        Ac, _ = ctx.convert_matrix(A)
        x = ctx.asarray(np.random.default_rng(0).standard_normal(30))
        out = ctx.spmv(Ac, x)
        # every output entry must be representable in bfloat16
        fmt = get_format("bfloat16")
        finite = np.isfinite(out)
        assert np.array_equal(fmt.round_array(out[finite]), out[finite])


class TestConversion:
    def test_convert_matrix_reports_range(self):
        ctx = get_context("E4M3")
        A = random_symmetric_csr(20, density=0.2, seed=1)
        A = A.with_data(A.data * 1e6)  # far beyond 448
        _, info = ctx.convert_matrix(A)
        assert info.range_exceeded

    def test_convert_matrix_ok_for_laplacian_range(self):
        ctx = get_context("E4M3")
        A = random_symmetric_csr(20, density=0.2, seed=2)
        A = A.with_data(np.clip(A.data, -1.0, 1.0))
        converted, info = ctx.convert_matrix(A)
        assert not info.range_exceeded
        assert converted.shape == A.shape

    def test_tapered_formats_never_exceed_range(self):
        ctx = get_context("takum8")
        A = random_symmetric_csr(20, density=0.2, seed=3)
        A = A.with_data(A.data * 1e30)
        _, info = ctx.convert_matrix(A)
        assert not info.range_exceeded

    def test_convert_reports_overflow_for_ieee(self):
        _, info = get_context("float16").convert_values(np.array([1.0, 1e9, -1e9]))
        assert info.overflowed == 2
        assert info.range_exceeded

    def test_convert_reports_underflow_for_ieee(self):
        _, info = get_context("bfloat16").convert_values(np.array([1.0, 1e-60]))
        assert info.underflowed == 1

    def test_posit_saturates_instead_of_overflowing(self):
        ctx = get_context("posit16")
        rounded, info = ctx.convert_values(np.array([1.0, 1e30, 1e-30]))
        assert info.overflowed == 0
        assert info.underflowed == 0
        assert info.saturated == 2
        assert rounded[1] == ctx.format.max_value
        assert rounded[2] == ctx.format.min_positive

    @pytest.mark.parametrize("name", ["posit8", "takum8", "posit64"])
    def test_convert_matrix_counts_saturation(self, name):
        A = CSRMatrix.from_dense(np.diag([1.0, 1e100, 1e-100]))
        _, info = get_context(name).convert_matrix(A)
        assert (info.overflowed, info.underflowed, info.saturated) == (0, 0, 2)

    def test_native_and_ieee_contexts_never_saturate(self):
        for name in ("float64", "reference", "bfloat16", "E4M3"):
            ctx = get_context(name)
            assert ctx.saturation_range is None, name
            _, info = ctx.convert_values(np.array([1.0, 1e300, 1e-300]))
            assert info.saturated == 0, name

    def test_dynamic_range_error_carries_info(self):
        from repro.arithmetic.base import RoundingInfo

        err = DynamicRangeError("boom", RoundingInfo(overflowed=3))
        assert err.info.overflowed == 3


class TestMachineEpsilon:
    def test_native_epsilon(self):
        assert get_context("float64").machine_epsilon == np.finfo(np.float64).eps
        assert get_context("float32").machine_epsilon == np.finfo(np.float32).eps

    def test_emulated_epsilon(self):
        assert get_context("bfloat16").machine_epsilon == 2.0**-7
        assert get_context("posit16").machine_epsilon == 2.0**-11


class TestOutKeywordContract:
    """The unified keyword-only ``out=`` signature."""

    @pytest.mark.parametrize("name", ["float64", "takum8"])
    def test_keyword_out_is_silent_and_written(self, name):
        ctx = get_context(name)
        a = ctx.round(np.linspace(0.25, 2.0, 8).astype(ctx.dtype))
        b = ctx.round(np.linspace(0.5, 1.5, 8).astype(ctx.dtype))
        buffer = np.empty_like(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = ctx.add(a, b, out=buffer)
        assert result is buffer
        assert np.array_equal(buffer, ctx.add(a, b))

    def test_scalar_operands_leave_out_untouched(self):
        ctx = get_context("takum8")
        buffer = np.full(4, 7.0, dtype=ctx.dtype)
        result = ctx.add(ctx.dtype(1.0), ctx.dtype(2.0), out=buffer)
        assert np.isscalar(result) or result.ndim == 0
        assert np.array_equal(buffer, np.full(4, 7.0, dtype=ctx.dtype))
