"""Tests of linear takum arithmetic."""

import math

import numpy as np
import pytest

from repro.arithmetic import TAKUM8, TAKUM16, TAKUM32, TAKUM64, TakumFormat
from tests import _oracle


class TestTakumLayout:
    def test_dynamic_range_is_width_independent(self):
        # the characteristic spans [-255, 254] for every width
        for fmt in (TAKUM16, TAKUM32, TAKUM64):
            assert 2.0**253 < fmt.max_value < 2.0**255
            assert 2.0**-256 < fmt.min_positive < 2.0**-254

    def test_wider_dynamic_range_than_posit(self):
        from repro.arithmetic import POSIT16, POSIT32

        assert TAKUM16.max_value > POSIT16.max_value
        assert TAKUM32.max_value > POSIT32.max_value

    def test_precision_near_one(self):
        # around 1.0 the mantissa has n - 5 bits
        assert TAKUM16.machine_epsilon == 2.0**-11
        assert TAKUM32.machine_epsilon == 2.0**-27
        assert TAKUM8.machine_epsilon == 2.0**-3

    def test_work_dtype(self):
        assert TAKUM64.work_dtype == np.longdouble
        assert TAKUM32.work_dtype == np.float64

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            TakumFormat(4)


class TestTakumDecode:
    """``decode`` against values the definition fixes, and the oracle."""

    def test_special_codes(self):
        assert TAKUM16.decode(0) == 0.0
        assert math.isnan(float(TAKUM16.decode(1 << 15)))

    def test_one(self):
        # +1: S=0 D=1 R=000 C=() M=0  -> bit pattern 0b01_000_...
        assert TAKUM16.decode(0b0100000000000000) == 1.0
        assert TAKUM8.decode(0b01000000) == 1.0

    def test_minus_one(self):
        # -1: S=1 D=1 R=000 M=0
        assert TAKUM16.decode(0b1100000000000000) == -1.0

    def test_two_and_half(self):
        # c=1: D=1, R=001, C='1'? for c=1: r=1, C = c - (2^1 - 1) = 0
        val = TAKUM16.decode(0b0100100000000000)
        assert val == 2.0
        # c=-1: D=0, r=0, value 2^-1
        val = TAKUM16.decode(0b0011100000000000)
        assert val == 0.5

    def test_monotonic_in_code_for_positive(self):
        for fmt in (TAKUM8, TAKUM16):
            codes = np.arange(1, 1 << (fmt.bits - 1))
            values = fmt.decode(codes)
            assert np.all(np.diff(values) > 0)
            assert np.array_equal(values, _oracle.values(fmt, codes))

    def test_monotonic_for_negative_codes(self):
        # negative takums: as the code (two's-complement integer) increases
        # towards -1, the value increases towards 0
        fmt = TAKUM8
        codes = np.arange((1 << 7) + 1, 1 << 8)
        values = fmt.decode(codes)
        assert np.array_equal(values, _oracle.values(fmt, codes))
        assert np.all(values < 0)
        assert np.all(np.diff(values) > 0)

    def test_magnitude_sets_are_symmetric(self):
        fmt = TAKUM8
        pos = np.sort(fmt.decode(np.arange(1, 1 << 7)))
        neg = np.sort(-fmt.decode(np.arange((1 << 7) + 1, 1 << 8)))
        assert np.allclose(pos, neg, rtol=0, atol=0)

    def test_narrow_formats_decode_by_zero_padding(self):
        # takum8 code 1: r=7 but only 3 tail bits -> characteristic padded
        assert float(TAKUM8.decode(1)) == 2.0 ** (-255 + 16)


class TestTakumRounding:
    def test_round_preserves_representable(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(1, 1 << 15, 200)
        values = _oracle.values(TAKUM16, codes)
        assert np.array_equal(TAKUM16.round_array(values), values)

    def test_round_is_nearest_takum16(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(300) * 10.0 ** rng.integers(-12, 12, 300)
        rounded = TAKUM16.round_array(x)
        table = _oracle.values(TAKUM16, np.arange(1, 1 << 15))
        full = np.concatenate([-table, [0.0], table])
        for xi, ri in zip(x, rounded):
            best = full[np.argmin(np.abs(full - xi))]
            assert abs(ri - xi) <= abs(best - xi) * (1 + 1e-15) + 1e-300

    def test_analytic_path_is_idempotent(self):
        rng = np.random.default_rng(2)
        for fmt in (TAKUM32, TAKUM64):
            x = (rng.standard_normal(300) * 10.0 ** rng.integers(-70, 70, 300)).astype(
                fmt.work_dtype
            )
            once = fmt.round_array(x)
            assert np.array_equal(fmt.round_array(once), once)

    def test_analytic_and_table_agree_for_takum16(self):
        # build an analytic-rounding takum16 by pretending it is wide
        rng = np.random.default_rng(3)
        x = rng.standard_normal(200)
        table_rounded = TAKUM16.round_array(x)
        # consistency: encode/decode round trip of the table result
        back = TAKUM16.decode(TAKUM16.encode(table_rounded))
        assert np.array_equal(table_rounded, back)

    def test_saturation(self):
        assert TAKUM16.round_scalar(1e100) == TAKUM16.max_value
        assert TAKUM16.round_scalar(-1e100) == -TAKUM16.max_value
        assert TAKUM16.round_scalar(1e-100) == TAKUM16.min_positive
        assert float(TAKUM64.round_scalar(float(np.ldexp(1.0, 300)))) == pytest.approx(
            float(TAKUM64.max_value)
        )

    def test_never_rounds_nonzero_to_zero(self):
        out = TAKUM32.round_array(np.array([1e-300, -1e-300]))
        assert out[0] == TAKUM32.min_positive
        assert out[1] == -TAKUM32.min_positive

    def test_nan_and_inf_map_to_nar(self):
        out = TAKUM16.round_array(np.array([np.nan, np.inf, -np.inf]))
        assert np.isnan(out).all()

    def test_negative_symmetry(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(200) * 10.0 ** rng.integers(-40, 40, 200)
        for fmt in (TAKUM8, TAKUM16, TAKUM32):
            assert np.array_equal(fmt.round_array(-x), -fmt.round_array(x))

    def test_tapered_precision(self):
        # relative spacing grows with the magnitude's distance from 1
        near_one = TAKUM32.round_scalar(1.0 + 2.0**-27) - 1.0
        far = TAKUM32.round_scalar(2.0**100 * (1.0 + 2.0**-27)) - 2.0**100
        assert near_one > 0  # representable at full precision near 1
        assert far == 0 or far / 2.0**100 > near_one  # coarser far away


class TestTakumEncode:
    @pytest.mark.parametrize("fmt", [TAKUM8, TAKUM16, TAKUM32, TAKUM64])
    def test_encode_decode_roundtrip(self, fmt):
        rng = np.random.default_rng(5)
        x = (rng.standard_normal(150) * 10.0 ** rng.integers(-20, 20, 150)).astype(
            fmt.work_dtype
        )
        rounded = fmt.round_array(x)
        back = fmt.decode(fmt.encode(rounded))
        assert np.array_equal(rounded, back)

    def test_encode_specials(self):
        codes = TAKUM16.encode(np.array([0.0, float("nan"), 1.0, -1.0]))
        assert codes[0] == 0
        assert codes[1] == 1 << 15
        assert codes[2] == 0b0100000000000000
        assert codes[3] == 0b1100000000000000
