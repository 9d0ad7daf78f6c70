"""Hypothesis property tests shared by every number format."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arithmetic import available_formats, get_format
from tests import _oracle

#: formats cheap enough for exhaustive-table oracles
TABLE_FORMATS = ["E4M3", "E5M2", "float16", "bfloat16", "posit8", "posit16", "takum8", "takum16"]
WIDE_FORMATS = ["float32", "float64", "posit32", "posit64", "takum32", "takum64"]

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e60, max_value=1e60
)


@pytest.mark.parametrize("name", sorted(available_formats()))
class TestUniversalProperties:
    @settings(max_examples=60, deadline=None)
    @given(x=finite_floats)
    def test_round_is_idempotent(self, name, x):
        fmt = get_format(name)
        once = fmt.round_scalar(x)
        if np.isfinite(once):
            assert fmt.round_scalar(once) == once

    @settings(max_examples=60, deadline=None)
    @given(x=finite_floats)
    def test_sign_symmetry(self, name, x):
        fmt = get_format(name)
        plus = fmt.round_scalar(x)
        minus = fmt.round_scalar(-x)
        if np.isfinite(plus) and np.isfinite(minus):
            assert minus == -plus

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_monotonicity(self, name, data):
        fmt = get_format(name)
        x = data.draw(finite_floats)
        y = data.draw(finite_floats)
        lo, hi = (x, y) if x <= y else (y, x)
        rlo, rhi = fmt.round_scalar(lo), fmt.round_scalar(hi)
        if np.isfinite(rlo) and np.isfinite(rhi):
            assert rlo <= rhi

    @settings(max_examples=40, deadline=None)
    @given(x=finite_floats)
    def test_zero_only_from_zero_for_tapered(self, name, x):
        fmt = get_format(name)
        if not fmt.saturating:
            pytest.skip("only tapered formats never round to zero")
        if x != 0.0:
            assert fmt.round_scalar(x) != 0.0

    def test_zero_rounds_to_zero(self, name):
        fmt = get_format(name)
        assert fmt.round_scalar(0.0) == 0.0

    def test_nan_rounds_to_nan(self, name):
        fmt = get_format(name)
        assert np.isnan(fmt.round_scalar(float("nan")))


@pytest.mark.parametrize("name", TABLE_FORMATS)
class TestNearestAgainstExhaustiveTable:
    @settings(max_examples=80, deadline=None)
    @given(x=st.floats(allow_nan=False, allow_infinity=False, min_value=-1e20, max_value=1e20))
    def test_round_returns_a_nearest_value(self, name, x):
        fmt = get_format(name)
        table = _magnitude_table(fmt)
        r = fmt.round_scalar(x)
        if not np.isfinite(r):
            # only possible for IEEE-style overflow (E4M3 -> NaN, E5M2/float16 -> inf)
            assert abs(x) > fmt.max_value
            return
        if fmt.saturating and x != 0.0:
            # tapered formats never round a non-zero value to zero, so the
            # oracle must exclude zero from the candidate set
            candidates = table[table > 0]
        else:
            candidates = table
        best = np.min(np.abs(candidates - abs(x)))
        achieved = abs(abs(r) - abs(x))
        assert achieved <= best * (1 + 1e-12) + 1e-300


_TABLE_CACHE = {}


def _magnitude_table(fmt):
    """Every finite non-negative magnitude, decoded by the oracle."""
    if fmt.name not in _TABLE_CACHE:
        _TABLE_CACHE[fmt.name] = _oracle.table(fmt)[0]
    return _TABLE_CACHE[fmt.name]


@pytest.mark.parametrize("name", WIDE_FORMATS)
class TestWideFormatConsistency:
    @settings(max_examples=60, deadline=None)
    @given(x=finite_floats)
    def test_encode_decode_matches_round(self, name, x):
        fmt = get_format(name)
        r = fmt.round_array(np.asarray([x], dtype=fmt.work_dtype))
        if not np.isfinite(r[0]):
            return
        codes = fmt.encode(r)
        assert fmt.decode(codes)[0] == r[0]
        assert _oracle.values(fmt, codes)[0] == r[0]

    @settings(max_examples=60, deadline=None)
    @given(x=finite_floats)
    def test_error_within_local_spacing(self, name, x):
        fmt = get_format(name)
        r = float(fmt.round_array(np.asarray([x], dtype=fmt.work_dtype))[0])
        if not np.isfinite(r) or abs(x) > float(fmt.max_value) or abs(x) < float(fmt.min_positive):
            return
        # the rounding error is bounded by the local spacing; in the extreme
        # regime regions of tapered formats consecutive values can be a
        # factor 16 apart (es = 2), so the worst-case error approaches the
        # magnitude itself — use that generous bound
        budget = abs(x) * 0.95 + 1e-300
        assert abs(r - x) <= budget
