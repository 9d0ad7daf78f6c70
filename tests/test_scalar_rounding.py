"""Bit-identity sweeps of the compiled scalar entry against the vector
reference.

The compiled scalar entry (``NumberFormat._round_one``, which the contexts'
``round_scalar`` calls) must be word-identical to the differential
reference of ``tests/_reference.py`` for every input: same rounded values,
same NaN bits, same sign of zero, same saturation and overflow behaviour.
The sweeps cover randomized values across (and beyond) each format's
dynamic range, every special value, exact rounding ties built from
adjacent code pairs, ``NumberFormat.round_array`` at the sizes the solvers
round, and the contexts' scalar elementary operations.  The suite runs in
either position of the bit-kernel switch.

The sweeps and the scalar-vs-vector comparator come from
:mod:`tests._kernel_harness`, shared with the bit-kernel suites.
"""

import math
import operator

import numpy as np
import pytest

from repro.arithmetic import get_context, get_format, set_bitkernels_enabled
from tests._reference import quantum_exp, round_array_analytic
from tests._kernel_harness import (
    UNREGISTERED_TAPERED,
    assert_scalar_matches_vector,
    boundary_sweep,
    format_for,
    midpoint_sweep,
    random_sweep,
)

#: formats wider than 16 bits
WIDE_FORMATS = ["posit32", "posit64", "takum32", "takum64", "float32", "float64"]
#: formats of up to 16 bits
NARROW_FORMATS = ["posit8", "posit16", "takum8", "takum16", "float16", "bfloat16", "E4M3", "E5M2"]
ALL_FORMATS = WIDE_FORMATS + NARROW_FORMATS + list(UNREGISTERED_TAPERED)


@pytest.fixture(params=ALL_FORMATS)
def any_kernel_format(request):
    return format_for(request.param)


@pytest.mark.parametrize(
    "name", ["posit32", "posit64", "takum32", "takum64", "posit20", "posit24es1", "takum24"]
)
def test_quantum_exp_lut_is_the_scalar_rule(name):
    """The quantum-exponent table of the wide tapered formats (the compiled
    rule's) holds the reference's scalar binade rule for every ``frexp``
    exponent of the work dtype."""
    fmt = format_for(name)
    base, qexps = fmt._quantum_exp_lut()
    info = np.finfo(fmt.work_dtype)
    assert base == info.minexp - info.nmant + 1 and base + len(qexps) - 1 == info.maxexp
    assert qexps.tolist() == [quantum_exp(fmt, e - 1) for e in range(base, info.maxexp + 1)]


@pytest.fixture(params=WIDE_FORMATS)
def wide_format(request):
    return get_format(request.param)


class TestScalarKernelBitIdentity:
    def test_random_sweep(self, any_kernel_format):
        assert_scalar_matches_vector(
            any_kernel_format, random_sweep(any_kernel_format), " random"
        )

    def test_boundary_sweep(self, any_kernel_format):
        assert_scalar_matches_vector(
            any_kernel_format, boundary_sweep(any_kernel_format), " boundary"
        )

    def test_exact_ties(self, any_kernel_format):
        assert_scalar_matches_vector(
            any_kernel_format, midpoint_sweep(any_kernel_format), " ties"
        )

    @pytest.mark.extended_longdouble
    def test_extended_precision_inputs(self):
        """64-bit tapered formats must round longdouble-only values right."""
        for name in ("posit64", "takum64"):
            fmt = get_format(name)
            one = fmt.work_dtype(1.0)
            eps_ld = np.finfo(np.longdouble).eps
            values = np.asarray(
                [one + eps_ld * k for k in range(1, 40)]
                + [-(one + eps_ld * k) for k in range(1, 40)],
                dtype=fmt.work_dtype,
            )
            assert_scalar_matches_vector(fmt, values, " longdouble")

    def test_idempotent_on_representables(self, any_kernel_format):
        fmt = any_kernel_format
        rounded = round_array_analytic(fmt, random_sweep(fmt, n=512, seed=7))
        for v in rounded[np.isfinite(rounded)]:
            assert fmt._round_one(v) == v, fmt.name


class TestRoundArrayDispatch:
    def test_small_arrays_route_through_scalar_kernel(self, wide_format):
        """round_array on solver-call sizes must equal the vector
        reference."""
        fmt = wide_format
        rng = np.random.default_rng(3)
        for size in (0, 1, 2, 8, 24, 25):
            values = (rng.standard_normal(size) * np.exp(rng.uniform(-30, 30, size))).astype(
                fmt.work_dtype
            )
            got = fmt.round_array(values)
            expected = round_array_analytic(fmt, values)
            assert got.shape == expected.shape
            assert got.dtype == expected.dtype
            nan_g, nan_e = np.isnan(got), np.isnan(expected)
            assert np.array_equal(nan_g, nan_e), (fmt.name, size)
            assert np.array_equal(got[~nan_g], expected[~nan_e]), (fmt.name, size)

    def test_preserves_shape(self, wide_format):
        values = np.asarray([[1.3, -2.7], [0.0, 4.1]], dtype=wide_format.work_dtype)
        out = wide_format.round_array(values)
        assert out.shape == (2, 2)
        assert np.array_equal(out, round_array_analytic(wide_format, values))

    def test_narrow_formats_use_scalar_kernel(self):
        for name in NARROW_FORMATS:
            fmt = get_format(name)
            values = np.asarray([0.3, -1.7, 100.0], dtype=fmt.work_dtype)
            assert np.array_equal(
                fmt.round_array(values), round_array_analytic(fmt, values)
            ), name

    def test_round_scalar_matches_round_array(self, any_kernel_format):
        fmt = any_kernel_format
        for v in (0.0, -0.0, 0.3, -1.7, 1e5, -1e-5, math.inf, 1e300):
            via_array = float(fmt.round_array(np.asarray([v], dtype=fmt.work_dtype))[0])
            assert fmt.round_scalar(v) == via_array or (
                math.isnan(fmt.round_scalar(v)) and math.isnan(via_array)
            ), (fmt.name, v)


class TestContextScalarOps:
    """The contexts' elementary operations on scalar operands must produce
    exactly what the array path produces, without ndarray round-trips."""

    @pytest.mark.parametrize("name", ["posit32", "takum32", "posit64", "takum64", "bfloat16", "E4M3"])
    def test_binary_ops_match_array_path(self, name):
        ctx = get_context(name)
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = float(ctx.round_scalar(rng.standard_normal() * 10.0 ** float(rng.integers(-3, 4))))
            b = float(ctx.round_scalar(rng.standard_normal()))
            for op, ufunc in ((ctx.add, np.add), (ctx.sub, np.subtract), (ctx.mul, np.multiply), (ctx.div, np.divide)):
                scalar = op(a, b)
                array = op(np.asarray([a], dtype=ctx.dtype), np.asarray([b], dtype=ctx.dtype))[0]
                if array != array:
                    assert scalar != scalar, (name, op, a, b)
                else:
                    assert scalar == array, (name, op, a, b)

    @pytest.mark.parametrize("name", ["posit32", "takum64", "float32", "float64", "reference"])
    def test_scalar_results_are_work_dtype_scalars(self, name):
        ctx = get_context(name)
        out = ctx.add(1.5, 2.25)
        assert np.ndim(out) == 0
        assert np.asarray(out).dtype == np.dtype(ctx.dtype)

    def test_sqrt_scalar(self):
        ctx = get_context("posit32")
        assert float(ctx.sqrt(4.0)) == 4.0 ** 0.5
        assert math.isnan(float(ctx.sqrt(-1.0)))
        assert math.isnan(float(ctx.sqrt(math.nan)))
        assert math.isnan(float(ctx.sqrt(math.inf)))  # posit NaR from inf

    def test_div_by_zero_scalar(self):
        emulated = get_context("posit32")
        # posit semantics: x / 0 is NaR
        with np.errstate(divide="ignore", invalid="ignore"):
            assert math.isnan(float(emulated.div(1.0, 0.0)))
            native = get_context("float64")
            assert math.isinf(float(native.div(1.0, 0.0)))
            assert math.isnan(float(native.div(0.0, 0.0)))

    def test_op_counting_scalars(self):
        ctx = get_context("posit32")
        before = ctx.op_count
        ctx.add(1.0, 2.0)
        ctx.mul(np.float64(1.5), np.float64(2.5))
        assert ctx.op_count == before + 2

    def test_neg_abs_scalar_exact(self):
        ctx = get_context("takum32")
        assert float(ctx.neg(1.5)) == -1.5
        assert float(ctx.abs(-1.5)) == 1.5

    def test_analytic_kernels_scalar_ops(self):
        """Context scalar rounding (the compiled scalar entry) must equal
        the vector reference, for floats and for other scalars (an int, a
        float32), which it converts first."""
        ctx = get_context("posit16")
        fmt = ctx.format
        for v in (0.3, -1.7, 1e8, 1e-8, 3, np.float32(0.3)):
            reference = round_array_analytic(fmt, np.asarray([v], dtype=fmt.work_dtype))[0]
            got = ctx.round_scalar(v)
            assert type(got) is ctx.dtype
            assert float(got) == float(reference)

    def test_reference_context_keeps_extended_precision(self):
        ctx = get_context("reference")
        one = np.longdouble(1.0)
        eps = np.finfo(np.longdouble).eps
        out = ctx.add(one, np.longdouble(eps))
        assert out > one  # a float64 round-trip would have lost the eps

    @pytest.mark.parametrize(
        "name", ["posit64", "takum64", "posit32", "reference", "float32", "float64"]
    )
    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_scalar_ops_match_casting_both_operands(self, name, op):
        """``_scalar_add/_sub/_mul/_div`` skip the cast of an operand that
        already is the work dtype; type and bits must stay those of casting
        both operands and rounding the result."""
        ctx = get_context(name)
        dt = ctx.dtype
        fn = getattr(ctx, f"_scalar_{op}")
        pyop = operator.truediv if op == "div" else getattr(operator, op)
        third = np.longdouble(1.0) / np.longdouble(3.0)
        operands = [0.3123, -1.7, np.float64(2.5e-3), np.float64(-7.25), third, -third, dt(third)]
        nbytes = 10 if dt is np.longdouble else np.dtype(dt).itemsize  # skip x87 padding

        def bits(x):
            return np.asarray([x]).tobytes()[:nbytes]

        for a in operands:
            for b in operands:
                got = fn(a, b)
                expected = ctx.round_scalar(pyop(dt(a), dt(b)))
                assert type(got) is type(expected) is dt, (name, op, a, b)
                assert bits(got) == bits(expected), (name, op, a, b)

    def test_longdouble_emulated_scalar_ops_keep_precision(self):
        """posit64 scalar ops must not round-trip through Python floats."""
        ctx = get_context("posit64")
        one = np.longdouble(1.0)
        # machine epsilon of posit64 around 1.0 is 2^-59, below float64's 2^-52
        eps59 = np.ldexp(np.longdouble(1.0), -59)
        out = ctx.add(one, eps59)
        assert out > one
        assert float(np.log2(out - one)) == pytest.approx(-59, abs=1e-6)


class TestSolverEquivalence:
    """The integer transform must not change solver trajectories at all."""

    @pytest.mark.parametrize("name", ["posit32", "takum32"])
    def test_partialschur_identical_with_and_without_fast_path(self, name):
        from repro.core import partialschur
        from tests.conftest import random_symmetric_csr

        matrix = random_symmetric_csr(24, density=0.2, seed=4)
        previous = set_bitkernels_enabled(True)
        try:
            result_fast = partialschur(matrix, nev=4, tol=1e-6, ctx=name, restarts=10, seed=1)
            # every rounding (context scalars, arrays, reductions, the
            # eigensolver) by the format's rule alone
            set_bitkernels_enabled(False)
            result_slow = partialschur(matrix, nev=4, tol=1e-6, ctx=name, restarts=10, seed=1)
        finally:
            set_bitkernels_enabled(previous)
        assert np.array_equal(
            np.asarray(result_fast.eigenvalues, dtype=np.float64),
            np.asarray(result_slow.eigenvalues, dtype=np.float64),
        )
        assert result_fast.matvecs == result_slow.matvecs
        assert result_fast.restarts == result_slow.restarts
