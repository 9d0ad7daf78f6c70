"""The differential reference: each format's rounding, restated in NumPy.

The library rounds every value in one compiled kernel (its integer lookup
tables with the switch on, the format's rule alone with it off).  The
functions here restate each family's rounding independently of that C code,
vectorised over NumPy arrays in the format's work dtype, and every kernel
sweep of the suite compares the kernel against :func:`round_array_analytic`
in both switch positions, NaN bits included:

* IEEE formats: quantum rounding at the magnitude's binade (gradual
  underflow below ``emin``), overflow to the signed infinity beyond
  ``max_value``; NaN (with its bits) and ±inf pass through; float32 and
  float64 are a cast;
* E4M3: the nearest entry of the magnitude table (ties to the even code),
  NaN of the value's sign above 464 (or ±448 when saturating), NaN to +NaN;
* posits and takums: the nearest entry of the full magnitude table up to 16
  bits, else the quantum of the binade with the extreme magnitude lists;
  never zero or NaR for a non-zero finite value; NaN and ±inf to +NaN.

:func:`quantum_exp` is the tapered families' binade rule in Python ints,
which checks the int64 table the compiled rule reads.  Every magnitude the
reference reads (the full tables of the formats of at most 16 bits, the
extreme lists of the wide posits, minpos and maxpos) comes from the exact
decoder of ``tests/_oracle.py``, not from the library's own decode.
"""

from __future__ import annotations

import numpy as np

from repro.arithmetic import IEEEFormat, OFP8E4M3, PositFormat, TakumFormat
from tests import _oracle

__all__ = ["nearest_in_table", "quantum_exp", "round_array_analytic", "round_to_quantum"]

#: the characteristic range of the takum formats
_TAKUM_C_MIN, _TAKUM_C_MAX = -255, 254


def round_to_quantum(x: np.ndarray, quantum: np.ndarray) -> np.ndarray:
    """Round ``x`` to the nearest integer multiple of ``quantum`` (powers of
    two, so the division and multiplication are exact), ties to the even
    multiple (``numpy.rint``)."""
    return np.rint(x / quantum) * quantum


def nearest_in_table(a, magnitudes: np.ndarray, codes=None) -> np.ndarray:
    """Indices of the entries of the ascending ``magnitudes`` nearest to the
    non-negative values ``a``; exact ties go to the entry with an even code
    of the parallel ``codes``, or to the smaller magnitude without them."""
    a = np.asarray(a)
    hi = np.searchsorted(magnitudes, a, side="left")
    hi = np.clip(hi, 0, len(magnitudes) - 1)
    lo = np.clip(hi - 1, 0, len(magnitudes) - 1)
    d_hi = np.abs(magnitudes[hi] - a)
    d_lo = np.abs(a - magnitudes[lo])
    take_lo = d_lo < d_hi
    tie = d_lo == d_hi
    if codes is not None:
        take_lo = take_lo | (tie & ((codes[lo] % 2) == 0))
    else:
        take_lo = take_lo | tie
    return np.where(take_lo, lo, hi)


def quantum_exp(fmt, exp: int) -> int:
    """Exponent of the rounding quantum of the tapered format ``fmt`` in the
    binade ``[2^exp, 2^(exp+1))``."""
    if isinstance(fmt, PositFormat):
        k = exp // (1 << fmt.es)
        frac_bits = fmt.bits - 1 - (k + 2 if k >= 0 else 1 - k) - fmt.es
        return exp - frac_bits if frac_bits > 0 else exp
    # takum: the characteristic-field length r = floor(log2(...)) exactly,
    # with integer bit_length instead of a float log2
    c = min(max(exp, _TAKUM_C_MIN), _TAKUM_C_MAX)
    r = (c + 1).bit_length() - 1 if c >= 0 else (-c).bit_length() - 1
    return c - (fmt.bits - 5 - r)


def round_array_analytic(fmt, values) -> np.ndarray:
    """``values`` rounded to the format ``fmt`` (returned in its work
    dtype), by the family's rule restated above."""
    x = np.asarray(values, dtype=fmt.work_dtype)
    if isinstance(fmt, OFP8E4M3):
        return _round_e4m3(fmt, x)
    if isinstance(fmt, IEEEFormat):
        return _round_ieee(fmt, x)
    if isinstance(fmt, (PositFormat, TakumFormat)):
        return _round_tapered(fmt, x)
    raise TypeError(f"no reference rounding for {fmt!r}")


def _round_ieee(fmt, x: np.ndarray) -> np.ndarray:
    if (fmt.ebits, fmt.mbits) == (11, 52):
        return x.astype(np.float64)
    if (fmt.ebits, fmt.mbits) == (8, 23):
        with np.errstate(over="ignore"):
            return x.astype(np.float32).astype(fmt.work_dtype)
    out = np.array(x, dtype=fmt.work_dtype, copy=True)
    finite = np.isfinite(x)
    if not finite.any():
        return out
    a = np.abs(np.where(finite, x, 0.0))
    # exponent of each magnitude; frexp(0) -> (0, 0) which is harmless
    _, e = np.frexp(a)
    exp_eff = np.maximum(e.astype(np.int64) - 1, fmt.emin)
    quantum = np.ldexp(np.ones_like(a), (exp_eff - fmt.mbits).astype(np.int64))
    rounded = round_to_quantum(np.where(finite, x, 0.0), quantum)
    over = np.abs(rounded) > fmt.max_value
    rounded = np.where(over, np.copysign(np.inf, rounded), rounded)
    out[finite] = rounded[finite]
    return out


def _round_e4m3(fmt, x: np.ndarray) -> np.ndarray:
    magnitudes, codes = _oracle.table(fmt)
    out = np.empty(x.shape, dtype=fmt.work_dtype)
    nan_mask = np.isnan(x)
    a = np.abs(np.where(nan_mask, 0.0, x))
    idx = nearest_in_table(np.where(np.isfinite(a), a, fmt.max_value), magnitudes, codes)
    mags = magnitudes[idx]
    over = a > fmt._overflow_threshold
    mags = np.where(over, fmt.max_value if fmt.saturate else np.nan, mags)
    out[...] = np.copysign(mags, np.where(nan_mask, 1.0, x))
    out[nan_mask] = np.nan
    return out


#: :func:`_tapered_magnitudes` by layout and work dtype
_TAPERED: dict = {}


def _tapered_magnitudes(fmt) -> tuple:
    """``(min_mag, max_mag, table, extremes)`` of a tapered format, decoded
    by the oracle once per layout and work dtype: ``table`` the full
    ``(magnitudes, codes)`` of a format of at most 16 bits, else ``None``;
    ``extremes`` the ``(lo, hi, lo_table, hi_table)`` of a wide posit, whose
    regimes past ``lo`` and ``hi`` keep no fraction bit and round through
    the magnitude lists walked in from either end of the code range
    (``None`` for takums, whose binade rule holds over the whole range)."""
    key = (_oracle.layout(fmt), fmt.work_dtype)
    if key not in _TAPERED:
        _TAPERED[key] = _decode_magnitudes(fmt)
    return _TAPERED[key]


def _decode_magnitudes(fmt) -> tuple:
    dtype = fmt.work_dtype
    top = (1 << (fmt.bits - 1)) - 1
    min_mag, max_mag = _oracle.values(fmt, [1, top]).astype(dtype)
    if fmt.bits <= 16:
        return min_mag, max_mag, _oracle.table(fmt), None
    if not isinstance(fmt, PositFormat):
        return min_mag, max_mag, None, None
    # regime k keeps n - 1 - (k + 2 or 1 - k) - es fraction bits: at least
    # one from 2^(-kmax 2^es) up to below 2^(kmax 2^es)
    kmax = (fmt.bits - 3 - fmt.es) << fmt.es
    lo, hi = np.ldexp(dtype(1.0), -kmax), np.ldexp(dtype(1.0), kmax)

    def walk(codes, stop):
        mags, kept = [], []
        for code in codes:
            mags.append(_oracle.values(fmt, [code]).astype(dtype)[0])
            kept.append(code)
            if stop(mags[-1]):
                break
        order = np.argsort(mags)
        return np.asarray(mags, dtype=dtype)[order], np.asarray(kept, dtype=np.int64)[order]

    lo_table = walk(range(1, top), lambda v: v >= lo)
    hi_table = walk(range(top, 0, -1), lambda v: v <= hi)
    return min_mag, max_mag, None, (lo, hi, lo_table, hi_table)


def _round_tapered(fmt, x: np.ndarray) -> np.ndarray:
    wd = fmt.work_dtype
    min_mag, max_mag, table, extremes = _tapered_magnitudes(fmt)
    finite = np.isfinite(x)
    zero_mask = x == 0
    a = np.abs(np.where(finite, x, 0.0))
    sign = np.where(np.signbit(x), wd(-1.0), wd(1.0))
    if table is not None:
        magnitudes, codes = table
        # clamp to the largest magnitude first: far outside the table the
        # distances to the last two entries are indistinguishable in the
        # work precision and the tie rule could pick the wrong one
        clipped = np.minimum(a.astype(np.float64), magnitudes[-1])
        mag = magnitudes[nearest_in_table(clipped, magnitudes, codes)].astype(wd)
        # saturate: never round a non-zero magnitude to zero
        mag = np.where((mag == 0) & ~zero_mask, wd(min_mag), mag)
    else:
        mag = _round_tapered_magnitude(fmt, a, zero_mask, min_mag, max_mag, extremes)
    res = np.where(zero_mask, wd(0.0), sign * mag)
    # infinities arise only from division by exact zero in the work
    # precision; tapered formats map those to NaR like NaN
    return np.where(finite, res, wd(np.nan))


def _round_tapered_magnitude(fmt, a, zero_mask, min_mag, max_mag, extremes) -> np.ndarray:
    wd = fmt.work_dtype
    one = wd(1.0)
    # clamp to the largest magnitude up front (rounding saturates, and
    # values far beyond it would make the nearest-table distances
    # indistinguishable in the work precision)
    safe = np.where(zero_mask, one, np.minimum(a, max_mag))
    _, e = np.frexp(safe)
    binades, where = np.unique(e.astype(np.int64) - 1, return_inverse=True)
    qexp = np.array([quantum_exp(fmt, int(b)) for b in binades], dtype=np.int64)
    mag = round_to_quantum(safe, np.ldexp(one, qexp[where.reshape(e.shape)]))
    if extremes is not None:
        lo, hi, lo_table, hi_table = extremes
        for extreme, (mags, codes) in ((safe < lo, lo_table), (safe >= hi, hi_table)):
            if extreme.any():
                mag[extreme] = mags[nearest_in_table(safe[extreme], mags, codes)]
    mag = np.clip(mag, min_mag, max_mag)
    return np.where(zero_mask, wd(0.0), mag)
