"""Tests of the OFP8 formats E4M3 and E5M2."""

import math

import numpy as np
import pytest

from repro.arithmetic import E4M3, E5M2
from repro.arithmetic.ofp8 import OFP8E4M3
from tests import _oracle


class TestE4M3:
    def test_max_value_is_448(self):
        assert E4M3.max_value == 448.0

    def test_min_positive_subnormal(self):
        assert E4M3.min_positive == 2.0**-9

    def test_has_no_infinity(self):
        assert not E4M3.has_infinity
        out = E4M3.round_array(np.array([np.inf, -np.inf]))
        assert np.isnan(out).all()

    def test_nan_code(self):
        assert math.isnan(E4M3.decode(0x7F))
        assert math.isnan(E4M3.decode(0xFF))

    def test_top_exponent_still_encodes_normals(self):
        # S=0, exponent=1111, mantissa=110 -> 448
        assert E4M3.decode(0x7E) == 448.0
        # S=0, exponent=1111, mantissa=000 -> 256
        assert E4M3.decode(0x78) == 256.0

    def test_known_values(self):
        assert E4M3.decode(0x38) == 1.0
        assert E4M3.decode(0xB8) == -1.0
        assert E4M3.round_scalar(1.0) == 1.0
        assert E4M3.round_scalar(1.06) == 1.0
        assert E4M3.round_scalar(1.07) == 1.125

    def test_overflow_to_nan_by_default(self):
        assert E4M3.round_scalar(450.0) == 448.0
        assert math.isnan(E4M3.round_scalar(465.0))
        assert math.isnan(E4M3.round_scalar(1e6))

    def test_overflow_threshold_boundary(self):
        # 464 is the tie between 448 and the (non-existent) 480: stays finite
        assert E4M3.round_scalar(464.0) == 448.0
        assert math.isnan(E4M3.round_scalar(464.0001))

    def test_saturating_variant(self):
        sat = OFP8E4M3(saturate=True)
        assert sat.round_scalar(1e6) == 448.0
        assert sat.round_scalar(-1e6) == -448.0
        assert math.isnan(sat.round_scalar(float("nan")))

    def test_negative_symmetry(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.001, 400, 100)
        assert np.array_equal(E4M3.round_array(-x), -E4M3.round_array(x))

    def test_number_of_finite_values(self):
        values = E4M3.decode(np.arange(256))
        # 256 codes minus two NaNs = 254 finite values (including +0 and -0)
        assert np.count_nonzero(np.isfinite(values)) == 254
        assert np.array_equal(values, _oracle.values(E4M3, np.arange(256)), equal_nan=True)

    def test_encode_roundtrip(self):
        values = np.array([0.0, 1.0, -1.0, 448.0, -448.0, 2.0**-9, 0.0625, 13.0])
        rounded = E4M3.round_array(values)
        back = E4M3.decode(E4M3.encode(rounded))
        assert np.array_equal(rounded, back)

    def test_subnormals(self):
        assert E4M3.decode(0x01) == 2.0**-9
        assert E4M3.decode(0x07) == 7 * 2.0**-9
        assert E4M3.round_scalar(2.5e-3) == pytest.approx(2.0**-9)
        assert E4M3.round_scalar(3.5e-3) == pytest.approx(2 * 2.0**-9)


class TestE5M2:
    def test_max_value(self):
        assert E5M2.max_value == 57344.0

    def test_has_infinity(self):
        assert E5M2.has_infinity
        assert E5M2.round_scalar(1e9) == np.inf

    def test_min_positive(self):
        assert E5M2.min_positive == 2.0**-16

    def test_epsilon(self):
        assert E5M2.machine_epsilon == 0.25

    def test_known_values(self):
        assert E5M2.round_scalar(1.0) == 1.0
        assert E5M2.round_scalar(1.1) == 1.0
        assert E5M2.round_scalar(1.2) == 1.25
        assert E5M2.round_scalar(60000.0) == 57344.0

    def test_wider_range_than_e4m3_but_less_precision(self):
        assert E5M2.max_value > E4M3.max_value
        assert E5M2.machine_epsilon > E4M3.machine_epsilon

    def test_encode_decode_roundtrip(self):
        values = np.array([0.0, 1.0, -1.5, 57344.0, 2.0**-16, -2.0**-14])
        rounded = E5M2.round_array(values)
        back = E5M2.decode(E5M2.encode(rounded))
        assert np.array_equal(rounded, back)
