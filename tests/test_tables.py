"""Bit-exactness sweeps of the rounding dispatch of every format of up to 16
bits, over each format's enumerated value table.

``round_array`` (the compiled kernel at every size) and ``round_scalar``
must be bit-identical to the differential reference of
``tests/_reference.py``, and ``encode`` and ``decode`` to the exact decoder
of ``tests/_oracle.py``: same rounded values (including the sign of zero),
same NaN positions and bits, same codes.  The fast tests sweep a strided sample of the
float32 pattern space plus every rounding decision boundary; the
``slow``-marked tests densify the pattern sweep (run them with
``pytest -m slow tests/test_tables.py``).
"""

import numpy as np
import pytest

from repro.arithmetic import (
    get_context,
    get_format,
    preload_tables,
    set_bitkernels_enabled,
)
from repro.arithmetic.context import EmulatedContext
from repro.arithmetic.ofp8 import OFP8E4M3
from tests import _oracle
from tests._kernel_harness import CANONICAL_NAN_CODES, exhaustive_sweep
from tests._reference import round_array_analytic

#: the chunk size of the small-array sweeps
CHUNK = 8

EIGHT_BIT = ["E4M3", "E5M2", "posit8", "takum8"]
SIXTEEN_BIT = ["float16", "bfloat16", "posit16", "takum16"]
NARROW_FORMATS = EIGHT_BIT + SIXTEEN_BIT

#: the code ``-0.0`` encodes to (E4M3 has no signed zero; posits and
#: takums never decode to ``-0.0``)
NEG_ZERO_CODES = {"E4M3": 0x00, "E5M2": 0x80, "float16": 0x8000, "bfloat16": 0x8000}


def assert_bit_identical(result, expected, context=""):
    """Equal values, equal NaN positions and equal zero signs."""
    result = np.asarray(result)
    expected = np.asarray(expected)
    assert result.shape == expected.shape, context
    nan_r, nan_e = np.isnan(result), np.isnan(expected)
    assert np.array_equal(nan_r, nan_e), f"NaN positions differ {context}"
    assert np.array_equal(result[~nan_r], expected[~nan_e]), f"values differ {context}"
    assert np.array_equal(
        np.signbit(result[~nan_r]), np.signbit(expected[~nan_e])
    ), f"zero signs differ {context}"


def float32_pattern_values(stride, offset=0):
    """Float64 values of every ``stride``-th float32 bit pattern (both signs,
    all exponents, NaN/inf patterns included)."""
    patterns = np.arange(offset, 1 << 32, stride, dtype=np.int64).astype(np.uint32)
    with np.errstate(invalid="ignore"):  # NaN patterns are swept on purpose
        return patterns.view(np.float32).astype(np.float64)


def assert_dispatch_matches_analytic(fmt, values, context=""):
    """``round_array`` over the whole array and in chunks of ``CHUNK``
    elements equals the reference."""
    analytic = round_array_analytic(fmt, values)
    assert_bit_identical(fmt.round_array(values), analytic, f"{fmt.name}{context}")
    chunks = [fmt.round_array(values[i : i + CHUNK]) for i in range(0, values.size, CHUNK)]
    assert_bit_identical(np.concatenate(chunks), analytic, f"{fmt.name}{context} chunked")


@pytest.fixture(params=NARROW_FORMATS)
def narrow_format(request):
    return get_format(request.param)


class TestBitExactRounding:
    def test_boundary_sweep(self, narrow_format):
        assert_dispatch_matches_analytic(narrow_format, exhaustive_sweep(narrow_format))

    @pytest.mark.parametrize("fmt_name", EIGHT_BIT)
    def test_float32_pattern_sweep_sample(self, fmt_name):
        fmt = get_format(fmt_name)
        values = float32_pattern_values(stride=65537)  # ~65k patterns, odd stride
        assert_bit_identical(
            fmt.round_array(values), round_array_analytic(fmt, values), context=fmt_name
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("fmt_name", EIGHT_BIT)
    def test_float32_pattern_sweep_dense(self, fmt_name):
        fmt = get_format(fmt_name)
        for offset in range(0, 509, 127):
            values = float32_pattern_values(stride=509, offset=offset)
            assert_bit_identical(
                fmt.round_array(values),
                round_array_analytic(fmt, values),
                context=f"{fmt_name} offset={offset}",
            )

    @pytest.mark.parametrize("fmt_name", SIXTEEN_BIT)
    def test_dense_random_sweep_16bit(self, fmt_name):
        fmt = get_format(fmt_name)
        rng = np.random.default_rng(99)
        values = rng.standard_normal(200_000) * np.exp(rng.uniform(-200, 200, 200_000))
        assert_bit_identical(
            fmt.round_array(values), round_array_analytic(fmt, values), context=fmt_name
        )

    def test_e4m3_saturating_variant(self):
        fmt = OFP8E4M3(saturate=True)
        values = np.concatenate(
            [exhaustive_sweep(fmt), float32_pattern_values(stride=131101)]
        )
        assert_bit_identical(fmt.round_array(values), round_array_analytic(fmt, values))
        scalar = np.array([fmt.round_scalar(v) for v in values.tolist()])
        assert_bit_identical(scalar, round_array_analytic(fmt, values), "round_scalar")

    def test_scalar_fast_path_matches_vector_and_analytic(self, narrow_format):
        """``round_scalar`` (the contexts' scalar elementary operations)
        agrees with ``round_array`` and the reference on every decision
        boundary."""
        fmt = narrow_format
        values = exhaustive_sweep(fmt)
        scalar = np.array([fmt.round_scalar(v) for v in values.tolist()])
        assert_bit_identical(scalar, fmt.round_array(values), f"{fmt.name} scalar-vs-vector")
        assert_bit_identical(
            scalar, round_array_analytic(fmt, values), f"{fmt.name} scalar-vs-analytic"
        )

    def test_every_path_returns_the_same_words(self, narrow_format):
        """The scalar entry, the array entry and the reference agree bit for
        bit, NaN signs and payloads included (the batched rounder rounds
        through whichever entry a segment's size selects)."""
        fmt = narrow_format
        payloads = np.array(
            [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123, 0xFFF4000000000001],
            dtype=np.uint64,
        ).view(np.float64)
        values = np.concatenate([payloads, exhaustive_sweep(fmt)])
        expected = round_array_analytic(fmt, values).view(np.uint64)
        paths = {
            "scalar": np.array([fmt._round_one(v) for v in values]),
            "dispatch": fmt.round_array(values),
            "kernel": fmt.bitkernel().round(values),
        }
        for path, got in paths.items():
            assert np.array_equal(got.view(np.uint64), expected), f"{fmt.name} {path}"

    def test_idempotent(self, narrow_format):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(1000) * np.exp(rng.uniform(-30, 30, 1000))
        once = narrow_format.round_array(values)
        finite = np.isfinite(once)
        assert_bit_identical(narrow_format.round_array(once)[finite], once[finite])


class TestEncodeDecode:
    def test_roundtrip_all_codes(self, narrow_format):
        """encode(decode(code)) == code over every code of the format.

        Non-canonical NaN codes (IEEE formats have many NaN patterns) encode
        back to the canonical NaN code, and formats without a signed-zero
        code (E4M3) canonicalise the negative-zero code to all-zeros; both
        canonical codes are the constants :data:`CANONICAL_NAN_CODES` and
        :data:`NEG_ZERO_CODES`.
        """
        fmt = narrow_format
        codes = np.arange(1 << fmt.bits, dtype=np.uint64)
        decoded = fmt.decode(codes)
        encoded = fmt.encode(decoded)
        expected = np.where(np.isnan(decoded), CANONICAL_NAN_CODES[fmt.name], codes)
        negative_zero = (decoded == 0.0) & np.signbit(decoded)
        assert negative_zero.any() == (fmt.name in NEG_ZERO_CODES)
        expected = np.where(negative_zero, NEG_ZERO_CODES.get(fmt.name, 0), expected)
        assert np.array_equal(encoded, expected), fmt.name

    def test_decode_matches_scalar_decode(self, narrow_format):
        """``decode`` equals the oracle's code-by-code decode."""
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 1 << narrow_format.bits, 512, dtype=np.uint64)
        scalar = np.array(
            [_oracle.values(narrow_format, [c])[0] for c in codes],
            dtype=narrow_format.work_dtype,
        )
        assert_bit_identical(narrow_format.decode(codes), scalar, context=narrow_format.name)

    def test_encode_matches_analytic_encode(self, narrow_format):
        """``encode`` gives the code whose oracle value is the reference's
        rounded value; every NaN gives the canonical NaN code."""
        fmt = narrow_format
        rng = np.random.default_rng(7)
        values = np.concatenate(
            [
                rng.standard_normal(512) * np.exp(rng.uniform(-40, 40, 512)),
                np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300]),
            ]
        )
        rounded = round_array_analytic(fmt, values)
        if fmt.name == "E4M3":  # no signed-zero code
            rounded = np.where(rounded == 0.0, 0.0, rounded)
        codes = fmt.encode(values)
        assert_bit_identical(_oracle.values(fmt, codes), rounded, fmt.name)
        assert np.all(codes[np.isnan(rounded)] == CANONICAL_NAN_CODES[fmt.name]), fmt.name

    def test_decode_preserves_shape_and_dtype(self, narrow_format):
        codes = np.zeros((3, 4), dtype=np.uint64)
        out = narrow_format.decode(codes)
        assert out.shape == (3, 4)
        assert out.dtype == narrow_format.work_dtype


class TestPreload:
    def test_preload_tables_skips_native_names(self):
        built = preload_tables(["takum16", "float64", "reference", "E4M3"])
        # every registered format is built (float64 is one); the native
        # reference context has no emulated format
        assert built == ["takum16", "float64", "E4M3"]
        fmt = get_format("takum16")
        assert "_table" in fmt.__dict__
        assert fmt.__dict__["_round_one"] is fmt.bitkernel().round_one

    def test_preload_all_registered(self):
        from repro.arithmetic import available_formats

        assert preload_tables() == available_formats()


class TestOptOut:
    def test_context_opt_out_matches_analytic(self):
        """The process-wide opt-out rounds a context's arrays by the
        format's rule alone, bit-identical to the lookup tables.  The ops
        still round their work buffer in place: an aliased ``out=``, a
        fresh product and the Givens rotation all give the
        reference's words."""
        rng = np.random.default_rng(11)
        values = rng.standard_normal(256)
        fast_ctx = get_context("posit16")
        fast = fast_ctx.round(values)
        other = fast_ctx.round(rng.standard_normal(256))
        c, s = 0.6, 0.8
        previous = set_bitkernels_enabled(False)
        try:
            analytic_ctx = get_context("posit16")
            assert isinstance(analytic_ctx, EmulatedContext)
            analytic = analytic_ctx.round(values)
            acc = analytic.copy()
            summed = analytic_ctx.add(acc, other, out=acc)
            product = analytic_ctx.mul(analytic, other)
            rotated = analytic_ctx.rotate_columns(c, s, analytic, other)
        finally:
            set_bitkernels_enabled(previous)
        def ref(values):
            return round_array_analytic(analytic_ctx.format, values)

        assert_bit_identical(analytic, fast)
        assert_bit_identical(analytic, ref(values))
        assert summed is acc
        assert_bit_identical(summed, ref(analytic + other))
        assert_bit_identical(product, ref(analytic * other))
        prods = ref(np.stack((c * analytic, s * other, s * analytic, c * other)))
        assert_bit_identical(rotated, ref(np.stack((prods[0] - prods[1], prods[2] + prods[3]))))


class TestMachineEpsilonMemoisation:
    def test_format_epsilon_cached(self):
        fmt = get_format("takum16")
        eps = fmt.machine_epsilon
        assert fmt.__dict__["_machine_epsilon"] == eps
        assert fmt.machine_epsilon == eps

    def test_context_epsilon_cached(self):
        ctx = get_context("posit16")
        eps = ctx.machine_epsilon
        assert ctx._machine_epsilon == eps
        assert ctx.machine_epsilon == float(ctx.format.machine_epsilon)

    def test_probing_fallback_is_memoised(self):
        from repro.arithmetic.ieee import IEEEFormat

        class Probing(IEEEFormat):
            calls = 0

            def _compute_machine_epsilon(self):
                type(self).calls += 1
                return super()._compute_machine_epsilon()

        fmt = Probing(5, 10, "probing16")
        assert fmt.machine_epsilon == 2.0**-10
        assert fmt.machine_epsilon == 2.0**-10
        assert Probing.calls == 1
