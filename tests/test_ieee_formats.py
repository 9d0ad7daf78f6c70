"""Tests of the IEEE-style formats (float16, bfloat16, float32, float64)."""

import math
import warnings

import numpy as np
import pytest

from repro.arithmetic import BFLOAT16, FLOAT16, FLOAT32, FLOAT64, IEEEFormat, NativeContext
from tests import _oracle


class TestFloat16:
    def test_max_value(self):
        assert FLOAT16.max_value == 65504.0

    def test_min_positive_subnormal(self):
        assert FLOAT16.min_positive == 2.0**-24

    def test_machine_epsilon(self):
        assert FLOAT16.machine_epsilon == 2.0**-10

    def test_round_matches_numpy_float16(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(500) * 10.0 ** rng.integers(-6, 5, 500)
        ours = FLOAT16.round_array(x)
        theirs = np.asarray(np.asarray(x, dtype=np.float16), dtype=np.float64)
        assert np.array_equal(ours, theirs)

    def test_round_overflow_to_inf(self):
        out = FLOAT16.round_array(np.array([1e6, -1e6]))
        assert out[0] == np.inf and out[1] == -np.inf

    def test_round_underflow_to_zero(self):
        assert FLOAT16.round_array(np.array([1e-12]))[0] == 0.0

    def test_subnormal_rounding_matches_numpy(self):
        values = np.array([3e-8, 7e-8, 1.5e-7, 5.5e-5])
        ours = FLOAT16.round_array(values)
        theirs = np.asarray(values.astype(np.float16), dtype=np.float64)
        assert np.array_equal(ours, theirs)

    def test_nan_and_inf_preserved(self):
        out = FLOAT16.round_array(np.array([np.nan, np.inf, -np.inf]))
        assert np.isnan(out[0]) and out[1] == np.inf and out[2] == -np.inf


class TestBfloat16:
    def test_layout(self):
        assert BFLOAT16.bits == 16
        assert BFLOAT16.ebits == 8
        assert BFLOAT16.mbits == 7

    def test_max_value(self):
        # 2^127 * (2 - 2^-7)
        assert BFLOAT16.max_value == pytest.approx(3.3895313892515355e38)

    def test_epsilon(self):
        assert BFLOAT16.machine_epsilon == 2.0**-7

    def test_known_roundings(self):
        assert BFLOAT16.round_scalar(1.0) == 1.0
        assert BFLOAT16.round_scalar(1.01) == 1.0078125
        assert BFLOAT16.round_scalar(3.14159265) == pytest.approx(3.140625)

    def test_same_exponent_range_as_float32(self):
        # bfloat16 must represent everything float32-range without overflow
        out = BFLOAT16.round_array(np.array([1e38, 1e-38]))
        assert np.all(np.isfinite(out)) and np.all(out != 0)

    def test_truncation_consistency_with_float32_bits(self):
        rng = np.random.default_rng(1)
        x = np.asarray(rng.standard_normal(200), dtype=np.float32)
        ours = BFLOAT16.round_array(np.asarray(x, dtype=np.float64))
        # round-trip through the bit-level encode/decode must be identical
        codes = BFLOAT16.encode(ours)
        back = BFLOAT16.decode(codes)
        assert np.array_equal(ours, back)


class TestFloat32AndFloat64:
    def test_float32_round_is_cast(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(100) * 1e10
        assert np.array_equal(
            FLOAT32.round_array(x), x.astype(np.float32).astype(np.float64)
        )

    def test_float64_round_is_identity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(100)
        assert np.array_equal(FLOAT64.round_array(x), x)

    def test_float32_overflow_is_silent(self):
        """Overflow to +-inf is float32's rounding, not an error: the casts
        of the format and of the native context raise nothing with warnings
        turned into errors."""
        big = np.array([1e300, -1e300, 3.5e38])
        want = [np.inf, -np.inf, np.inf]
        ctx = NativeContext(np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert FLOAT32.round_array(big).tolist() == want
            assert FLOAT32.round_array(big, out=np.empty(3)).tolist() == want
            assert FLOAT32._round_one(1e300) == np.inf
            assert FLOAT32.round_scalar(-1e300) == -np.inf
            assert ctx.round(big).tolist() == want
            assert ctx.round(1e300) == np.inf

    def test_float32_metadata(self):
        assert FLOAT32.max_value == pytest.approx(3.4028234663852886e38)
        assert FLOAT32.machine_epsilon == 2.0**-23


class TestEncodeDecode:
    @pytest.mark.parametrize("fmt", [FLOAT16, BFLOAT16])
    def test_roundtrip(self, fmt):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(300) * 10.0 ** rng.integers(-8, 8, 300)
        rounded = fmt.round_array(x)
        finite = np.isfinite(rounded)
        back = fmt.decode(fmt.encode(rounded))
        assert np.array_equal(rounded[finite], back[finite])

    def test_decode_known_float16_codes(self):
        assert FLOAT16.decode(0x3C00) == 1.0
        assert FLOAT16.decode(0xBC00) == -1.0
        assert FLOAT16.decode(0x7BFF) == 65504.0
        assert FLOAT16.decode(0x0001) == 2.0**-24
        assert FLOAT16.decode(0x7C00) == np.inf
        assert math.isnan(FLOAT16.decode(0x7C01))
        codes = [0x3C00, 0xBC00, 0x7BFF, 0x0001, 0x7C00, 0x7C01, 0x8000]
        assert np.array_equal(
            FLOAT16.decode(codes).view(np.uint64), _oracle.values(FLOAT16, codes).view(np.uint64)
        )

    def test_decode_known_bfloat16_codes(self):
        assert BFLOAT16.decode(0x3F80) == 1.0
        assert BFLOAT16.decode(0xC000) == -2.0
        assert BFLOAT16.decode(0x7F80) == np.inf

    def test_encode_zero_and_specials(self):
        codes = FLOAT16.encode(np.array([0.0, np.inf, -np.inf]))
        assert codes[0] == 0
        assert codes[1] == 0x7C00
        assert codes[2] == 0xFC00


class TestParametricValidation:
    def test_rejects_tiny_fields(self):
        with pytest.raises(ValueError):
            IEEEFormat(1, 2, "bad")
        with pytest.raises(ValueError):
            IEEEFormat(5, 0, "bad")

    def test_custom_format(self):
        fmt = IEEEFormat(6, 9, "custom16")
        assert fmt.bits == 16
        assert fmt.round_scalar(1.0) == 1.0
        assert fmt.machine_epsilon == 2.0**-9
