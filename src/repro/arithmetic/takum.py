"""Takum arithmetic (linear takums, Hunhold 2024).

An ``n``-bit takum is the bit string ``S D R C M`` with a sign bit ``S``, a
direction bit ``D``, a 3-bit regime ``R``, an ``r``-bit characteristic ``C``
and a ``p = n - 5 - r``-bit mantissa ``M`` where::

    r = R            if D = 1 else 7 - R
    c = 2^r - 1 + C  if D = 1 else -2^(r+1) + 1 + C
    m = M / 2^p
    l = (-1)^S (c + m)

The *linear* takum value is ``(-1)^S * 2^floor(l) * (1 + (l - floor(l)))``;
``0...0`` encodes zero and ``10...0`` encodes NaR.  The characteristic spans
[-255, 254], giving a dynamic range of roughly 10^±76 regardless of width,
while the mantissa length adapts to the magnitude (tapered precision).
Formats narrower than 12 bits decode by implicitly zero-padding the tail.

Takum rounding follows posit conventions: round to nearest (ties to even
code), never round a non-zero value to zero or NaR, saturate at the largest /
smallest representable magnitude.  The rounding skeleton is the tapered
formats' shared one (:class:`~repro.arithmetic.tapered.TaperedFormat`); this
module supplies the bit layout and the binade rule (the binade with
characteristic ``c`` keeps ``p = n - 5 - r`` mantissa bits, ``c`` clamped to
the characteristic range).
"""

from __future__ import annotations

import math

import numpy as np

from .bitkernels import TakumBitKernel, TakumExtendedBitKernel
from .tapered import TaperedFormat, bit_length

__all__ = ["TakumFormat", "TAKUM8", "TAKUM16", "TAKUM32", "TAKUM64"]

#: characteristic range shared by all takum widths
_C_MIN = -255
_C_MAX = 254


class TakumFormat(TaperedFormat):
    """Linear takum format of width ``nbits``.

    Parameters
    ----------
    nbits:
        Storage width in bits (at least 6).
    name:
        Registry name; defaults to ``"takum<nbits>"``.
    """

    _kernel = TakumBitKernel
    _extended_kernel = TakumExtendedBitKernel

    def __init__(self, nbits: int, name: str | None = None):
        if nbits < 6:
            raise ValueError("takum width must be at least 6 bits")
        super().__init__(nbits, name or f"takum{nbits}")

    # ------------------------------------------------------------------ #
    # bit-level
    # ------------------------------------------------------------------ #
    def decode(self, codes) -> np.ndarray:
        """Sign, direction, regime, characteristic and mantissa of each
        code (a characteristic longer than the tail is zero-padded); ``0``
        decodes to 0.0 and ``10…0`` to NaR (NaN)."""
        n, wd = self.bits, self.work_dtype
        c = np.asarray(codes, dtype=np.uint64) & np.uint64((1 << n) - 1)
        sign = (c >> np.uint64(n - 1)).astype(bool)
        direction = ((c >> np.uint64(n - 2)) & np.uint64(1)).astype(bool)
        regime = ((c >> np.uint64(n - 5)) & np.uint64(0x7)).astype(np.int64)
        r = np.where(direction, regime, 7 - regime)
        tail_bits = n - 5
        tail = (c & np.uint64((1 << tail_bits) - 1)).astype(np.int64)
        p = np.maximum(tail_bits - r, 0)
        characteristic = (tail >> p) << np.maximum(r - tail_bits, 0)
        mantissa = tail & ((1 << p) - 1)
        cval = np.where(
            direction, (1 << r) - 1 + characteristic, -(2 << r) + 1 + characteristic
        )
        # l = (-1)^S (cval + M / 2^p); the value is 2^floor(l) (1 + l - floor(l)):
        # (2^p + M) 2^(cval - p) for S = 0, and for S = 1 either 2^-cval
        # (M = 0) or (2^(p+1) - M) 2^(-cval-1-p)
        significand = np.where(
            ~sign, (1 << p) + mantissa, np.where(mantissa == 0, 1, (2 << p) - mantissa)
        )
        exponent = np.where(~sign, cval - p, np.where(mantissa == 0, -cval, -cval - 1 - p))
        value = np.ldexp(significand.astype(wd), exponent)
        value = np.where(sign, -value, value)
        value = np.where(c == 0, wd(0.0), value)
        return np.where(c == np.uint64(1 << (n - 1)), wd(np.nan), value)

    def encode(self, values) -> np.ndarray:
        """The logarithmic value ``l = (-1)^S (cval + m)`` of each rounded
        value split into direction, regime, characteristic and mantissa
        fields (a characteristic longer than the tail is cut); NaN encodes
        as NaR."""
        n = self.bits
        v = self.round_array(values)
        finite = np.isfinite(v)
        frac, e = np.frexp(np.where(finite & (v != 0), np.abs(v), 1))
        scale = e.astype(np.int64) - 1  # |v| = 2^scale (1 + f)
        neg = np.signbit(v)
        f_zero = frac == 0.5
        cval = np.where(~neg, scale, np.where(f_zero, -scale, -scale - 1))
        r = bit_length(np.where(cval >= 0, cval + 1, -cval)) - 1
        tail_bits = n - 5
        p = tail_bits - r
        q = np.maximum(p, 0)
        # mantissa field: f 2^p for S = 0 (and for f = 0), (1 - f) 2^p else
        f_field = np.ldexp(frac, q + 1).astype(np.int64) - (1 << q)
        mantissa = np.where(~neg | f_zero, f_field, (1 << q) - f_field)
        characteristic = np.where(cval >= 0, cval - ((1 << r) - 1), cval + (2 << r) - 1)
        tail = np.where(
            p >= 0, (characteristic << q) | mantissa, characteristic >> np.maximum(-p, 0)
        )
        direction = cval >= 0
        regime = np.where(direction, r, 7 - r)
        code = (
            (neg.astype(np.uint64) << np.uint64(n - 1))
            | (direction.astype(np.uint64) << np.uint64(n - 2))
            | (regime.astype(np.uint64) << np.uint64(n - 5))
            | (tail.astype(np.uint64) & np.uint64((1 << tail_bits) - 1))
        )
        code = np.where(v == 0, np.uint64(0), code)
        return np.where(finite, code, np.uint64(1 << (n - 1)))

    # ------------------------------------------------------------------ #
    # binade rule
    # ------------------------------------------------------------------ #
    def _quantum_exp_array(self, exp: np.ndarray) -> np.ndarray:
        c = np.clip(exp, _C_MIN, _C_MAX)
        cf = c.astype(np.float64)
        # characteristic-field length: floor(log2(c+1)) for c >= 0, and
        # floor(log2(-c)) for c < 0; both arguments are >= 1 by construction
        log_arg = np.where(c >= 0, cf + 1.0, -cf)
        r = np.floor(np.log2(log_arg)).astype(np.int64)
        return c - (self.bits - 5 - r)

    def _compute_machine_epsilon(self) -> float:
        # around 1.0: c = 0 -> r = 0 -> p = n - 5 mantissa bits
        return math.ldexp(1.0, -(self.bits - 5))


#: 8-bit linear takum
TAKUM8 = TakumFormat(8)
#: 16-bit linear takum
TAKUM16 = TakumFormat(16)
#: 32-bit linear takum
TAKUM32 = TakumFormat(32)
#: 64-bit linear takum
TAKUM64 = TakumFormat(64)
