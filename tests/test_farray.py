"""Unit tests of the context-bound operator API (repro.arithmetic.farray)."""

import dataclasses

import numpy as np
import pytest

from repro.arithmetic import (
    BoundNamespace,
    ContextSpec,
    FArray,
    FScalar,
    PrecisionLeakError,
    available_formats,
    get_context,
    get_format,
    precision,
)
from tests.conftest import random_symmetric_csr

#: every context name: the registered formats plus the native contexts
_ALL_CONTEXTS = list(dict.fromkeys([*available_formats(), "float32", "float64", "reference"]))

#: the float operand values: signed zeros, infinities and NaN included,
#: so division by +-0 and the IEEE special cases are all exercised
_SPECIAL_VALUES = (0.0, -0.0, 1.5, -3.0, 1e-3, np.inf, -np.inf, np.nan)


def _same_word(x, y) -> bool:
    """Bitwise equality of two scalars, NaN-aware (any NaN equals any NaN)."""
    if np.isnan(x) or np.isnan(y):
        return bool(np.isnan(x) and np.isnan(y))
    return bool(x == y and np.signbit(x) == np.signbit(y))


class TestFScalarStaysScalar:
    """FScalar results must never round-trip through ndarrays."""

    @pytest.mark.parametrize("fmt", ["float64", "bfloat16", "posit16", "posit32", "takum64", "reference"])
    def test_binary_ops_return_work_dtype_scalars(self, fmt):
        ctx = get_context(fmt)
        a = ctx.scalar(1.25)
        b = ctx.scalar(0.75)
        for result in (a + b, a - b, a * b, a / b, -a, abs(a), a.sqrt(), a.hypot(b)):
            assert isinstance(result, FScalar), type(result)
            assert not isinstance(result.value, np.ndarray), (
                f"{fmt}: FScalar payload became an ndarray"
            )
            assert isinstance(result.value, ctx.dtype)

    def test_scalar_ops_match_explicit_context_bitwise(self):
        ctx = get_context("posit16")
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = rng.standard_normal(2)
            a = ctx.scalar(x)
            b = ctx.scalar(y)
            assert float(a + b) == float(ctx.add(a.value, b.value))
            assert float(a - b) == float(ctx.sub(a.value, b.value))
            assert float(a * b) == float(ctx.mul(a.value, b.value))
            assert float(a / b) == float(ctx.div(a.value, b.value))
            assert float(abs(a).sqrt()) == float(ctx.sqrt(ctx.abs(a.value)))

    @pytest.mark.parametrize("fmt", _ALL_CONTEXTS)
    def test_operand_coercion_matches_context_ops(self, fmt):
        """Every FScalar arithmetic operator, in both operand orders, against
        every operand form (FScalar, Python int/float, foreign NumPy
        scalars, 0-d arrays) is exactly one rounded context op: a
        work-dtype FScalar equal to ``ctx.add/sub/mul/div`` bit for bit,
        tallying one op."""
        ctx = get_context(fmt)
        ops = (
            ("+", lambda x, y: x + y, ctx.add),
            ("-", lambda x, y: x - y, ctx.sub),
            ("*", lambda x, y: x * y, ctx.mul),
            ("/", lambda x, y: x / y, ctx.div),
        )
        operands = [0, 3, -2] + [
            form(v)
            for v in _SPECIAL_VALUES
            for form in (
                ctx.scalar,
                float,
                np.float32,
                np.float64,
                np.longdouble,
                lambda v: np.array(v),
            )
        ]
        with np.errstate(all="ignore"):
            for v in _SPECIAL_VALUES:
                a = ctx.scalar(v)
                for other in operands:
                    raw = other.value if isinstance(other, FScalar) else other
                    for sym, apply, op in ops:
                        for left, right, expected in (
                            (a, other, op(a.value, raw)),
                            (other, a, op(raw, a.value)),
                        ):
                            before = ctx.op_count
                            got = apply(left, right)
                            where = f"{fmt}: {left!r} {sym} {right!r}"
                            assert ctx.op_count == before + 1, where
                            assert type(got) is FScalar, where
                            assert type(got.value) is ctx.dtype, where
                            assert _same_word(got.value, expected), where

    def test_mixed_operand_forms(self):
        ctx = get_context("bfloat16")
        a = ctx.scalar(3.0)
        assert float(2.0 + a) == float(ctx.add(2.0, a.value))
        assert float(2.0 / a) == float(ctx.div(2.0, a.value))
        assert float(a * 2) == float(ctx.mul(a.value, 2))
        # numpy scalar on the left routes through the ufunc shim, still rounded
        out = np.float64(2.0) / a
        assert isinstance(out, FScalar)
        assert float(out) == float(ctx.div(np.float64(2.0), a.value))

    def test_square_via_pow(self):
        ctx = get_context("posit16")
        a = ctx.scalar(1.3)
        assert float(a**2) == float(ctx.mul(a.value, a.value))

    def test_comparisons_are_plain_bools(self):
        ctx = get_context("takum16")
        a = ctx.scalar(1.0)
        b = ctx.scalar(2.0)
        assert (a < b) is True
        assert (a >= b) is False
        assert (a == 1.0) is True
        assert (a != b) is True

    def test_copysign_and_isfinite(self):
        ctx = get_context("posit16")
        a = ctx.scalar(3.0)
        assert float(a.copysign(-1.0)) == -3.0
        assert a.isfinite()
        assert not get_context("float32").wrap_scalar(np.inf).isfinite()
        # array operand broadcasts to a bound array; mixing contexts raises
        spread = a.copysign(ctx.array([1.0, -2.0]))
        assert isinstance(spread, FArray)
        assert np.array_equal(spread.data, [3.0, -3.0])
        with pytest.raises(PrecisionLeakError):
            a.copysign(get_context("posit8").scalar(-1.0))

    def test_scalar_asarray_reads_out(self):
        s = get_context("posit16").scalar(1.5)
        out = np.asarray(s)
        assert out.ndim == 0 and out.dtype == np.float64 and float(out) == 1.5

    def test_op_counting_flows_through_operators(self):
        ctx = get_context("posit16")
        before = ctx.op_count
        _ = ctx.scalar(1.0) + ctx.scalar(2.0)
        assert ctx.op_count == before + 1  # constructors round, only + tallies

    def test_ufunc_guard_raises_on_unrounded_ops(self):
        a = get_context("posit16").scalar(1.0)
        with pytest.raises(PrecisionLeakError):
            np.exp(a)
        with pytest.raises(PrecisionLeakError):
            np.log(a)


class TestFArray:
    def test_constructors_round_and_wrap(self):
        ctx = get_context("bfloat16")
        x = ctx.array([1.0, 1.0 / 3.0])
        assert isinstance(x, FArray)
        # entries were rounded into the format
        fmt = get_format("bfloat16")
        assert np.array_equal(x.data, fmt.round_array(np.array([1.0, 1.0 / 3.0])))
        # wrap trusts the caller: no rounding pass
        y = ctx.wrap(np.array([1.0, 2.0]))
        assert np.array_equal(y.data, [1.0, 2.0])

    def test_elementwise_operators_match_context(self, rng):
        ctx = get_context("posit16")
        a = ctx.array(rng.standard_normal(32))
        b = ctx.array(rng.standard_normal(32))
        assert np.array_equal((a + b).data, ctx.add(a.data, b.data))
        assert np.array_equal((a - b).data, ctx.sub(a.data, b.data))
        assert np.array_equal((a * b).data, ctx.mul(a.data, b.data))
        assert np.array_equal((a / b).data, ctx.div(a.data, b.data))
        assert np.array_equal((-a).data, ctx.neg(a.data))
        assert np.array_equal(abs(a).data, ctx.abs(a.data))
        assert np.array_equal(abs(a).sqrt().data, ctx.sqrt(ctx.abs(a.data)))

    def test_matmul_dispatch(self, rng):
        ctx = get_context("takum16")
        M = ctx.array(rng.standard_normal((6, 4)))
        N = ctx.array(rng.standard_normal((4, 3)))
        x = ctx.array(rng.standard_normal(4))
        y = ctx.array(rng.standard_normal(6))
        assert np.array_equal((M @ x).data, ctx.gemv(M.data, x.data))
        assert np.array_equal((y @ M).data, ctx.gemv_t(M.data, y.data))
        assert np.array_equal((M @ N).data, ctx.gemm(M.data, N.data))
        d = x.dot(x)
        assert isinstance(d, FScalar)
        assert float(d) == float(ctx.dot(x.data, x.data))
        e = x @ x
        assert isinstance(e, FScalar)

    def test_csr_matmul_routes_through_rounded_spmv(self, rng):
        ctx = get_context("bfloat16")
        A = random_symmetric_csr(20, density=0.2, seed=1)
        A, _ = ctx.convert_matrix(A)
        x = ctx.array(rng.standard_normal(20))
        out = A @ x
        assert isinstance(out, FArray)
        assert np.array_equal(out.data, ctx.spmv(A, x.data))
        # plain ndarray operand keeps the exact work-precision matvec
        raw = A @ x.data
        assert isinstance(raw, np.ndarray)

    def test_reductions(self, rng):
        ctx = get_context("posit16")
        x = ctx.array(rng.standard_normal(17))
        n = x.norm2()
        assert isinstance(n, FScalar)
        assert float(n) == float(ctx.norm2(x.data))
        s = x.sum()
        assert isinstance(s, FScalar)
        assert float(s) == float(ctx.reduce_sum(x.data))

    def test_indexing_preserves_binding(self, rng):
        ctx = get_context("takum16")
        A = ctx.array(rng.standard_normal((5, 4)))
        assert isinstance(A[0, 0], FScalar)
        assert isinstance(A[1], FArray)
        col = A[:, 2]
        assert isinstance(col, FArray) and col.ctx is ctx
        # slices are views: writes are visible in the parent
        col[0] = ctx.scalar(42.0)
        assert float(A[0, 2]) == 42.0
        A[2, :] = ctx.array(np.ones(4))
        assert np.array_equal(A.data[2], np.ones(4))
        assert isinstance(A.T, FArray) and A.T.shape == (4, 5)

    def test_scalar_array_broadcasting(self, rng):
        ctx = get_context("posit16")
        x = ctx.array(rng.standard_normal(8))
        s = ctx.scalar(0.5)
        assert np.array_equal((s * x).data, ctx.mul(s.value, x.data))
        assert np.array_equal((x * s).data, ctx.mul(x.data, s.value))
        assert np.array_equal((0.5 * x).data, ctx.mul(0.5, x.data))

    def test_guard_raises_on_unrounded_ufuncs(self, rng):
        ctx = get_context("posit16")
        x = ctx.array(rng.standard_normal(4))
        with pytest.raises(PrecisionLeakError):
            np.exp(x)
        with pytest.raises(PrecisionLeakError):
            np.add.reduce(x)
        with pytest.raises(PrecisionLeakError):
            np.sum(x)  # __array_function__ guard
        with pytest.raises(PrecisionLeakError):
            np.add(x, x, out=np.zeros(4))

    def test_numpy_left_operands_stay_rounded(self, rng):
        ctx = get_context("bfloat16")
        x = ctx.array(rng.standard_normal(4))
        out = np.ones(4) + x
        assert isinstance(out, FArray)
        assert np.array_equal(out.data, ctx.add(np.ones(4), x.data))
        out = np.eye(4) @ x
        assert isinstance(out, FArray)
        assert np.array_equal(out.data, ctx.gemv(np.eye(4), x.data))

    def test_exact_queries_allowed(self, rng):
        ctx = get_context("posit16")
        x = ctx.array(rng.standard_normal(4))
        assert np.isfinite(x).all()
        assert x.all_finite()
        assert np.asarray(x) is x.data  # explicit escape hatch

    def test_zero_dim_results_become_fscalars(self):
        ctx = get_context("float64")
        x = ctx.array([1.0, 2.0, 3.0])
        assert isinstance(x.sum(), FScalar)
        assert isinstance(x[1], FScalar)

    def test_mixed_context_operands_raise(self):
        a16 = get_context("posit16")
        a8 = get_context("posit8")
        x = a16.array([1.0, 2.0])
        y = a8.array([1.0, 2.0])
        s = a16.scalar(1.0)
        t = a8.scalar(1.0)
        for bad in (
            lambda: x + y,
            lambda: x @ y,
            lambda: x.dot(y),
            lambda: s * t,
            lambda: s.hypot(t),
            lambda: x.__setitem__(0, t),
        ):
            with pytest.raises(PrecisionLeakError):
                bad()
        # two contexts of the same format are still distinct bindings
        with pytest.raises(PrecisionLeakError):
            _ = x + get_context("posit16").array([1.0, 2.0])
        # scalar-left and ufunc-protocol forms are guarded too
        with pytest.raises(PrecisionLeakError):
            _ = s * y
        with pytest.raises(PrecisionLeakError):
            np.add(x, y)

    def test_ufunc_modifiers_rejected(self, rng):
        ctx = get_context("posit16")
        x = ctx.array([1.0, 2.0])
        with pytest.raises(PrecisionLeakError):
            np.add(x, x, where=np.array([True, False]))
        with pytest.raises(PrecisionLeakError):
            np.add(x, x, out=np.zeros(2))

    def test_bool_mirrors_ndarray_semantics(self):
        ctx = get_context("posit16")
        with pytest.raises(ValueError):
            bool(ctx.array([1.0, 2.0]))
        assert bool(ctx.array([1.0]))
        assert not bool(ctx.array([0.0]))

    def test_asarray_with_dtype_conversion(self):
        ctx = get_context("posit16")
        x = ctx.array([1.0, 2.0])
        out = np.asarray(x, dtype=np.float32)
        assert out.dtype == np.float32
        assert np.array_equal(out, [1.0, 2.0])

    def test_scalar_input_to_array_becomes_fscalar(self):
        ctx = get_context("posit16")
        s = ctx.array(3.5)
        assert isinstance(s, FScalar)
        assert float(s) == 3.5

    def test_scalar_hypot_with_array_operand(self):
        ctx = get_context("posit16")
        s = ctx.scalar(3.0)
        out = s.hypot(ctx.array([4.0, 0.0]))
        assert isinstance(out, FArray)
        assert np.array_equal(out.data, [5.0, 3.0])

    def test_setitem_rounds_unbound_values(self):
        ctx = get_context("posit16")
        x = ctx.array([1.0, 2.0])
        x[0] = 0.3  # not representable in posit16
        assert float(x[0]) == float(ctx.round_scalar(0.3))
        x[:] = np.array([0.3, 0.7])
        assert np.array_equal(x.data, ctx.round(np.array([0.3, 0.7])))
        # bound values skip the rounding pass but stay representable
        x[1] = ctx.scalar(0.25)
        assert float(x[1]) == 0.25

    def test_sum_defaults_to_all_elements(self):
        ctx = get_context("posit16")
        M = ctx.array([[1.0, 2.0], [3.0, 4.0]])
        total = M.sum()
        assert isinstance(total, FScalar)
        assert float(total) == 10.0
        rows = M.sum(axis=-1)
        assert isinstance(rows, FArray)
        assert np.array_equal(rows.data, [3.0, 7.0])


class TestFacade:
    def test_context_spec_builds_context(self):
        spec = ContextSpec(format="posit16", accumulation="sequential")
        ctx = spec.build()
        assert ctx.name == "posit16"
        assert ctx.accumulation == "sequential"
        assert spec.with_format("takum16").format == "takum16"
        # the format alone decides how a value rounds: a spec names the
        # format and the reduction order, nothing else
        assert [f.name for f in dataclasses.fields(ContextSpec)] == ["format", "accumulation"]

    def test_get_context_rejects_spec_plus_kwargs(self):
        with pytest.raises(TypeError):
            get_context(ContextSpec(format="posit16"), accumulation="sequential")

    def test_spec_rejects_unknown_kernels(self):
        # no kernel selection exists: the format decides how a value rounds
        with pytest.raises(TypeError):
            ContextSpec(format="posit16", kernels="analytic")
        with pytest.raises(TypeError):
            get_context("posit16", kernels="analytic")

    def test_partialschur_accepts_spec(self):
        from repro.core import partialschur

        matrix = random_symmetric_csr(12, density=0.3, seed=2)
        spec = ContextSpec(format="float64", accumulation="sequential")
        res = partialschur(matrix, nev=3, tol=1e-8, ctx=spec)
        assert res.format_name == "float64"

    def test_precision_context_manager(self):
        with precision("posit16") as p:
            assert isinstance(p, BoundNamespace)
            x = p.array([3.0, 4.0])
            assert float(x.norm2()) == 5.0
            assert isinstance(p.scalar(1.0), FScalar)
            assert p.zeros((2, 2)).shape == (2, 2)
            assert p.eye(3).data[0, 0] == 1.0
            # attribute delegation to the underlying context
            assert p.machine_epsilon == p.ctx.machine_epsilon

    def test_precision_accepts_spec_and_context(self):
        with precision(ContextSpec(format="takum16")) as p:
            assert p.ctx.name == "takum16"
        ctx = get_context("bfloat16")
        with precision(ctx) as p:
            assert p.ctx is ctx
