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
smallest representable magnitude.
"""

from __future__ import annotations

import math

import numpy as np

from . import base as _base
from .base import (
    SCALAR_CUTOFF,
    WIDE_SCALAR_CUTOFF,
    NumberFormat,
    nearest_in_table,
    nearest_in_table_scalar,
    round_to_quantum,
)
from .bitkernels import (
    TakumBitKernel,
    TakumExtendedBitKernel,
    extended_layout_supported,
)

__all__ = ["TakumFormat", "TAKUM8", "TAKUM16", "TAKUM32", "TAKUM64"]

#: characteristic range shared by all takum widths
_C_MIN = -255
_C_MAX = 254


class TakumFormat(NumberFormat):
    """Linear takum format of width ``nbits``.

    Parameters
    ----------
    nbits:
        Storage width in bits (at least 6).
    name:
        Registry name; defaults to ``"takum<nbits>"``.
    """

    saturating = True
    has_infinity = False
    has_scalar_kernel = True

    def __init__(self, nbits: int, name: str | None = None):
        if nbits < 6:
            raise ValueError("takum width must be at least 6 bits")
        self.bits = int(nbits)
        self.name = name or f"takum{nbits}"
        # near 1.0 a takum has up to n - 5 mantissa bits, which exceeds the
        # 52-bit float64 significand for the 64-bit format; on hosts whose
        # longdouble degenerates to float64 (Windows/ARM) the 64-bit format
        # falls back to float64 work precision, where the one-word bit
        # kernel still serves it bit-exactly (binades whose takum grid is
        # finer than float64's become identity rows).  base.LONGDOUBLE_-
        # EXTENDED is read at construction time so tests can simulate the
        # degraded platforms by monkeypatching it.
        self.work_dtype = (
            np.longdouble if nbits > 32 and _base.LONGDOUBLE_EXTENDED else np.float64
        )
        self._full_table = self.bits <= 16
        self._magnitudes: np.ndarray | None = None
        self._codes: np.ndarray | None = None
        self._max_value = self._decode_magnitude_of_code((1 << (self.bits - 1)) - 1)
        self._min_positive = self._decode_magnitude_of_code(1)
        self._scalar_state: tuple | None = None
        # without a bit kernel the longdouble scalar kernel pays NumPy
        # scalar dispatch (~4 us/element), which moves its break-even
        # against the analytic vector kernel down to ~8
        self.scalar_cutoff = (
            WIDE_SCALAR_CUTOFF if self.work_dtype is np.float64 else SCALAR_CUTOFF
        )
        if self.work_dtype is np.longdouble:
            # with a bit kernel the scalar kernel is the two-word kernel's
            # scalar twin: its loop costs ~1.1 us/element against the
            # kernel's ~12 us per call, so the loop wins up to 8 elements
            # and the two cross near 10 (bench_micro_rounding.py's
            # small-array report)
            self.bitkernel_scalar_cutoff = 8

    def _decode_magnitude_of_code(self, code: int):
        return abs(self.decode_code(code))

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

    def _build_bitkernel(self):
        """Integer bit-twiddling kernel: the one-word float64 kernel for
        float64-work widths, the two-word extended kernel for the 64-bit
        format on 80-bit-longdouble hosts (``None`` on other longdouble
        layouts).  The characteristic-boundary and truncated-characteristic
        binades resolve through :meth:`round_array_analytic`, so either
        kernel is bit-identical to the analytic ground truth."""
        if np.dtype(self.work_dtype) == np.dtype(np.float64):
            return TakumBitKernel(self.bits, self._round_kernel_specials)
        if extended_layout_supported():
            return TakumExtendedBitKernel(self.bits, self._round_kernel_specials)
        return None

    def encode_analytic(self, values) -> np.ndarray:
        """Analytic (kernel-free) encode: round through the analytic kernel,
        then emit the takum bit pattern per element.  Returns ``uint64``
        codes of the same shape as ``values``."""
        values = np.asarray(values, dtype=self.work_dtype)
        rounded = self.round_array_analytic(values)
        out = np.zeros(values.shape, dtype=np.uint64)
        flat = rounded.ravel()
        res = out.ravel()
        for i in range(flat.size):
            res[i] = self._encode_scalar(flat[i])
        return out

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
    # magnitude lists
    # ------------------------------------------------------------------ #
    def _ensure_magnitudes(self) -> None:
        if self._full_table and self._magnitudes is None:
            self._magnitudes, self._codes = self._enumerate_magnitudes()

    def _build_scalar_state(self) -> tuple:
        """Assemble the constants the scalar kernel needs, once per format.

        Float64-work formats get plain Python lists/floats; the 64-bit
        format keeps ``longdouble`` scalars so the arithmetic stays in
        extended precision.
        """
        self._ensure_magnitudes()
        if self._full_table:
            state = (self._magnitudes.tolist(), self._codes.tolist())
        elif self.work_dtype is np.float64:
            state = (float(self._min_positive), float(self._max_value))
        else:
            state = (self._min_positive, self._max_value)
        self._scalar_state = state
        return state

    def round_scalar_analytic(self, value):
        """Scalar twin of :meth:`round_array_analytic` for one value.

        Pure-Python ``math.frexp``/``math.ldexp`` kernel.  The
        characteristic-field length ``r = floor(log2(...))`` is computed
        exactly with integer ``bit_length`` instead of a float ``log2``;
        everything else mirrors the vector kernel operation for operation.
        The extended-precision 64-bit format rounds through the two-word
        bit kernel's scalar twin
        (:meth:`~repro.arithmetic.bitkernels.ExtendedBitKernel.round_one`)
        and runs the same structure on NumPy longdouble scalars for the
        special binades, with the bit kernels disabled and on hosts without
        the x87 layout.  Verified bit-identical by
        ``tests/test_scalar_rounding.py`` and ``tests/test_bitkernels_64bit.py``.
        """
        state = self._scalar_state
        if state is None:
            state = self._build_scalar_state()
        if self.work_dtype is np.float64:
            v = float(value)
            if v != v or v == math.inf or v == -math.inf:
                return math.nan  # takum NaR
            if v == 0.0:
                return 0.0  # single unsigned zero
            a = -v if v < 0.0 else v
            if self._full_table:
                mags, codes = state
                last = mags[-1]
                clipped = a if a < last else last
                mag = mags[nearest_in_table_scalar(clipped, mags, codes)]
                if mag == 0.0:
                    mag = float(self._min_positive)
            else:
                minpos, maxval = state
                c = math.frexp(a)[1] - 1
                if c < _C_MIN:
                    c = _C_MIN
                elif c > _C_MAX:
                    c = _C_MAX
                r = (c + 1).bit_length() - 1 if c >= 0 else (-c).bit_length() - 1
                qexp = c - (self.bits - 5 - r)
                mag = float(round(math.ldexp(a, -qexp))) * math.ldexp(1.0, qexp)
                if mag < minpos:
                    mag = minpos
                elif mag > maxval:
                    mag = maxval
            return -mag if v < 0.0 else mag
        # extended precision: the two-word bit kernel's scalar twin serves
        # every LUT-served binade; the NumPy-scalar kernel below keeps the
        # special binades, disabled kernels and non-x87 hosts
        kern = self.bitkernel()
        if kern is not None:
            res = kern.round_one(value)
            if res is not None:
                return res
        wd = self.work_dtype
        v = value if isinstance(value, wd) else wd(value)
        if v != v or v == np.inf or v == -np.inf:
            return wd(np.nan)
        if v == 0.0:
            return wd(0.0)
        a = -v if v < 0.0 else v
        minpos, maxval = state
        c = int(np.frexp(a)[1]) - 1
        if c < _C_MIN:
            c = _C_MIN
        elif c > _C_MAX:
            c = _C_MAX
        r = (c + 1).bit_length() - 1 if c >= 0 else (-c).bit_length() - 1
        qexp = c - (self.bits - 5 - r)
        mag = np.rint(np.ldexp(a, -qexp)) * np.ldexp(wd(1.0), qexp)
        if mag < minpos:
            mag = minpos
        elif mag > maxval:
            mag = maxval
        return -mag if v < 0.0 else mag

    # ------------------------------------------------------------------ #
    # value-space rounding
    # ------------------------------------------------------------------ #
    def round_array_analytic(self, values) -> np.ndarray:
        """Vectorised ground-truth rounding.  Formats of <= 16 bits use an
        exact table of representable magnitudes; wider formats clamp the
        characteristic to [-255, 254] and round to the mantissa quantum of
        the containing binade.  Saturates at the smallest/largest
        representable magnitude, maps inf to NaR."""
        x = np.asarray(values, dtype=self.work_dtype)
        out = np.empty(x.shape, dtype=self.work_dtype)
        self._ensure_magnitudes()
        nan_mask = np.isnan(x)
        inf_mask = np.isinf(x)
        zero_mask = x == 0
        finite = np.isfinite(x)
        a = np.abs(np.where(finite, x, 0.0))
        sign = np.where(np.signbit(x), self.work_dtype(-1.0), self.work_dtype(1.0))

        if self._full_table:
            # clamp to the largest magnitude first: far outside the table the
            # distances to the last two entries are indistinguishable in the
            # work precision and the tie rule could pick the wrong one
            clipped = np.minimum(a.astype(np.float64), self._magnitudes[-1])
            idx = nearest_in_table(clipped, self._magnitudes, self._codes)
            mag = self._magnitudes[idx].astype(self.work_dtype)
            mag = np.where(
                (mag == 0) & ~zero_mask, self.work_dtype(self._min_positive), mag
            )
        else:
            mag = self._round_magnitude_analytic(a, zero_mask)

        res = sign * mag
        res = np.where(zero_mask, self.work_dtype(0.0), res)
        res = np.where(inf_mask | nan_mask, self.work_dtype(np.nan), res)
        out[...] = res
        return out

    def _round_magnitude_analytic(self, a, zero_mask) -> np.ndarray:
        one = self.work_dtype(1.0)
        safe = np.where(zero_mask, one, a)
        _, e = np.frexp(safe)
        c = np.clip(e.astype(np.int64) - 1, _C_MIN, _C_MAX)
        cf = c.astype(np.float64)
        # characteristic-field length: floor(log2(c+1)) for c >= 0, and
        # floor(log2(-c)) for c < 0; both arguments are >= 1 by construction
        log_arg = np.where(c >= 0, cf + 1.0, -cf)
        r = np.floor(np.log2(log_arg)).astype(np.int64)
        p = self.bits - 5 - r
        quantum = np.ldexp(one, (c - p).astype(np.int64))
        mag = round_to_quantum(safe, quantum)
        mag = np.clip(mag, self._min_positive, self._max_value)
        return np.where(zero_mask, self.work_dtype(0.0), mag)

    # ------------------------------------------------------------------ #
    # metadata
    # ------------------------------------------------------------------ #
    @property
    def max_value(self) -> float:
        """Largest finite magnitude (decode of code ``01…1``, ≈ 2^255)."""
        return float(self._max_value)

    @property
    def min_positive(self) -> float:
        """Smallest positive magnitude (decode of code ``0…01``, ≈ 2^-255)."""
        return float(self._min_positive)

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
