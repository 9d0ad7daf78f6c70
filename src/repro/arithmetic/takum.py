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
from .tapered import TaperedFormat

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
    def decode_code(self, code: int):
        """Decode one takum code (sign, direction, regime, characteristic,
        mantissa) into its work-precision value; ``0`` decodes to 0.0 and
        ``10…0`` to NaR (NaN)."""
        n = self.bits
        code = int(code) & ((1 << n) - 1)
        if code == 0:
            return self.work_dtype(0.0)
        if code == 1 << (n - 1):
            return self.work_dtype(np.nan)
        sign = (code >> (n - 1)) & 1
        direction = (code >> (n - 2)) & 1
        regime = (code >> (n - 5)) & 0x7
        r = regime if direction else 7 - regime
        tail_bits = n - 5
        tail = code & ((1 << tail_bits) - 1)
        if tail_bits >= r:
            characteristic = tail >> (tail_bits - r) if r > 0 else 0
            p = tail_bits - r
            mantissa = tail & ((1 << p) - 1) if p > 0 else 0
        else:
            characteristic = tail << (r - tail_bits)
            p = 0
            mantissa = 0
        c = (2**r - 1 + characteristic) if direction else (-(2 ** (r + 1)) + 1 + characteristic)
        one = self.work_dtype(1.0)
        if sign == 0:
            significand = (1 << p) + mantissa if p > 0 else 1
            return np.ldexp(self.work_dtype(significand), int(c - p))
        # negative branch: l = -(c + m)
        if mantissa == 0:
            return -np.ldexp(one, int(-c))
        significand = (1 << (p + 1)) - mantissa  # (2 - m) * 2^p
        return -np.ldexp(self.work_dtype(significand), int(-c - 1 - p))

    def _encode_scalar(self, v) -> int:
        n = self.bits
        if np.isnan(v):
            return 1 << (n - 1)
        if v == 0:
            return 0
        sign = 1 if v < 0 else 0
        g = abs(v)
        lfloor = int(np.floor(np.log2(g)))
        one = self.work_dtype(1.0)
        if np.ldexp(one, lfloor) > g:
            lfloor -= 1
        elif np.ldexp(one, lfloor + 1) <= g:
            lfloor += 1
        # fraction in [0, 1), kept in the work precision: for 64-bit takums
        # it carries up to 59 bits, which a float64 round-trip would corrupt
        frac = g / np.ldexp(one, lfloor) - one
        if sign == 0:
            c = lfloor
            m = frac
        else:
            if frac == 0:
                c, m = -lfloor, self.work_dtype(0.0)
            else:
                c, m = -lfloor - 1, one - frac
        if c >= 0:
            direction = 1
            r = int(math.floor(math.log2(c + 1)))
            characteristic = c - (2**r - 1)
        else:
            direction = 0
            r = int(math.floor(math.log2(-c)))
            characteristic = c + 2 ** (r + 1) - 1
        tail_bits = n - 5
        p = tail_bits - r
        if p >= 0:
            # ldexp and rint are exact in the work precision for
            # representable inputs (m has at most p fraction bits)
            mantissa = int(np.rint(np.ldexp(m, p)))
            if mantissa >= (1 << p) and p > 0:
                mantissa = (1 << p) - 1  # cannot happen for representable v
            tail = (characteristic << p) | mantissa if p > 0 else characteristic
        else:
            tail = characteristic >> (r - tail_bits)
        regime = r if direction else 7 - r
        return (
            (sign << (n - 1))
            | (direction << (n - 2))
            | (regime << (n - 5))
            | (tail & ((1 << tail_bits) - 1))
        )

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
