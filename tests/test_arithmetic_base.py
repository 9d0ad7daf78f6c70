"""Tests of the shared number-format helpers (base module)."""

import numpy as np
import pytest

from repro.arithmetic.base import RoundingInfo
from tests._reference import nearest_in_table, round_to_quantum


class TestRoundToQuantum:
    def test_exact_multiples_are_unchanged(self):
        x = np.array([0.0, 0.25, -0.75, 2.0])
        assert np.array_equal(round_to_quantum(x, np.full(4, 0.25)), x)

    def test_rounds_to_nearest(self):
        x = np.array([0.26, 0.39, -0.39])
        out = round_to_quantum(x, np.full(3, 0.25))
        assert np.allclose(out, [0.25, 0.5, -0.5])

    def test_ties_go_to_even_multiple(self):
        x = np.array([0.375, 0.125, -0.125])
        out = round_to_quantum(x, np.full(3, 0.25))
        # 0.375 is halfway between 0.25 (odd multiple) and 0.5 (even multiple)
        assert np.allclose(out, [0.5, 0.0, 0.0])

    def test_per_element_quantum(self):
        x = np.array([1.3, 1.3])
        out = round_to_quantum(x, np.array([1.0, 0.5]))
        assert np.allclose(out, [1.0, 1.5])


class TestNearestInTable:
    def test_basic_lookup(self):
        table = np.array([0.0, 1.0, 2.0, 4.0])
        idx = nearest_in_table(np.array([0.4, 0.6, 2.9, 3.1, 100.0]), table)
        assert list(idx) == [0, 1, 2, 3, 3]

    def test_tie_prefers_even_code(self):
        table = np.array([1.0, 2.0])
        codes = np.array([3, 4])
        idx = nearest_in_table(np.array([1.5]), table, codes)
        assert idx[0] == 1  # code 4 is even

    def test_tie_without_codes_prefers_smaller(self):
        table = np.array([1.0, 2.0])
        idx = nearest_in_table(np.array([1.5]), table)
        assert idx[0] == 0

    def test_below_smallest_maps_to_first(self):
        table = np.array([1.0, 2.0, 3.0])
        idx = nearest_in_table(np.array([0.0]), table)
        assert idx[0] == 0


class TestRoundingInfo:
    def test_range_exceeded_flags(self):
        assert not RoundingInfo().range_exceeded
        assert RoundingInfo(overflowed=1).range_exceeded
        assert RoundingInfo(underflowed=2).range_exceeded
        assert not RoundingInfo(saturated=3).range_exceeded


class TestConvert:
    def test_round_scalar_matches_round_array(self, any_format):
        values = [0.0, 1.0, -1.5, 3.14159, 100.0]
        arr = any_format.round_array(np.array(values, dtype=any_format.work_dtype))
        for v, expected in zip(values, arr):
            assert any_format.round_scalar(v) == pytest.approx(float(expected), rel=0, abs=0)

    def test_machine_epsilon_positive(self, any_format):
        eps = any_format.machine_epsilon
        assert eps > 0
        assert eps < 1

    def test_max_and_min_are_representable(self, any_format):
        assert any_format.round_scalar(any_format.max_value) == any_format.max_value
        assert any_format.round_scalar(any_format.min_positive) == pytest.approx(
            any_format.min_positive, rel=1e-18
        )
