"""Posit arithmetic (2022 Posit Standard, ``es = 2``).

A posit of width ``n`` encodes, from the most significant bit: a sign bit, a
variable-length regime (a run of identical bits terminated by the opposite
bit), ``es`` exponent bits and the remaining fraction bits.  Negative posits
are encoded as the two's complement of the positive pattern; the all-zeros
pattern is 0 and ``1000...0`` is NaR (not-a-real).

Posit semantics implemented here:

* round to nearest, ties to the even code,
* rounding never produces 0 or NaR from a finite non-zero value: magnitudes
  saturate at ``minpos``/``maxpos``,
* no signed zero and no infinities.

Rounding (:meth:`~repro.arithmetic.base.NumberFormat.round_array`) takes the
format's scalar kernel for scalars and tiny arrays and its integer bit kernel
(:mod:`repro.arithmetic.bitkernels`) above the cutoff; posit64 works in
``numpy.longdouble`` and rounds its scalars through the two-word kernel's
scalar twin.  The analytic kernels stay the ground truth and serve the
binades the bit kernels hand back: formats of 16 bits or fewer search the
sorted list of their representable magnitudes, wider formats compute the
binade quantum, with short magnitude lists for the extreme regime regions
(where fewer than one fraction bit survives).
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
    PositBitKernel,
    PositExtendedBitKernel,
    extended_layout_supported,
)

__all__ = ["PositFormat", "POSIT8", "POSIT16", "POSIT32", "POSIT64"]


class PositFormat(NumberFormat):
    """Posit format of width ``nbits`` with ``es`` exponent bits (default 2).

    Parameters
    ----------
    nbits:
        Storage width in bits (at least 3).
    es:
        Number of exponent bits (2 in the 2022 standard).
    name:
        Registry name; defaults to ``"posit<nbits>"``.
    """

    saturating = True
    has_infinity = False
    has_scalar_kernel = True

    def __init__(self, nbits: int, es: int = 2, name: str | None = None):
        if nbits < 3:
            raise ValueError("posit width must be at least 3 bits")
        self.bits = int(nbits)
        self.es = int(es)
        self.name = name or f"posit{nbits}"
        # wide posits need > 52 significand bits near 1.0; on hosts whose
        # numpy.longdouble is genuinely wider than float64 they work in
        # longdouble, elsewhere (Windows/ARM: longdouble == float64) they
        # fall back to float64 work precision, where the one-word bit
        # kernel still serves them bit-exactly (binades whose posit grid is
        # finer than float64's become identity rows).  base.LONGDOUBLE_-
        # EXTENDED is read at construction time so tests can simulate the
        # degraded platforms by monkeypatching it.
        self.work_dtype = (
            np.longdouble if nbits > 32 and _base.LONGDOUBLE_EXTENDED else np.float64
        )
        self._useed_exp = 1 << self.es  # exponent scale per regime step
        max_k = self.bits - 2
        self._max_exp = self._useed_exp * max_k
        # analytic region: binades that retain at least one fraction bit
        self._k_lo = -(self.bits - 3 - self.es)
        self._k_hi = self.bits - 4 - self.es
        self._full_table = self.bits <= 16
        self._magnitudes: np.ndarray | None = None
        self._codes: np.ndarray | None = None
        self._lo_table: tuple[np.ndarray, np.ndarray] | None = None
        self._hi_table: tuple[np.ndarray, np.ndarray] | None = None
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

    # ------------------------------------------------------------------ #
    # bit-level
    # ------------------------------------------------------------------ #
    def decode_code(self, code: int):
        """Decode one posit code (sign, regime run, exponent, fraction) into
        its work-precision value; ``0`` decodes to 0.0 and ``10…0`` to NaR
        (NaN).  Negative codes are two's-complement of the positive pattern."""
        n = self.bits
        code = int(code) & ((1 << n) - 1)
        if code == 0:
            return self.work_dtype(0.0)
        if code == 1 << (n - 1):
            return self.work_dtype(np.nan)
        sign = 1.0
        if code >> (n - 1):
            code = (1 << n) - code
            sign = -1.0
        body = code & ((1 << (n - 1)) - 1)
        # regime: run of identical bits starting at position n-2
        pos = n - 2
        first = (body >> pos) & 1
        run = 0
        while pos >= 0 and ((body >> pos) & 1) == first:
            run += 1
            pos -= 1
        k = (run - 1) if first == 1 else -run
        pos -= 1  # skip terminating bit (may step past the end; that is fine)
        remaining = max(pos + 1, 0)
        exp_bits = min(self.es, remaining)
        exponent = (body >> (remaining - exp_bits)) & ((1 << exp_bits) - 1) if exp_bits > 0 else 0
        exponent <<= self.es - exp_bits
        frac_bits = remaining - exp_bits
        frac = body & ((1 << frac_bits) - 1) if frac_bits > 0 else 0
        scale = k * self._useed_exp + exponent
        significand = (1 << frac_bits) + frac
        value = np.ldexp(self.work_dtype(significand), int(scale - frac_bits))
        return self.work_dtype(sign) * value

    def _build_bitkernel(self):
        """Integer bit-twiddling kernel: the one-word float64 kernel for
        float64-work widths, the two-word extended kernel for the 64-bit
        format on 80-bit-longdouble hosts (``None`` on other longdouble
        layouts).  The extreme-regime binades resolve through
        :meth:`round_array_analytic`, so either kernel is bit-identical to
        the analytic ground truth."""
        if np.dtype(self.work_dtype) == np.dtype(np.float64):
            return PositBitKernel(self.bits, self.es, self._round_kernel_specials)
        if extended_layout_supported():
            return PositExtendedBitKernel(
                self.bits, self.es, self._round_kernel_specials
            )
        return None

    def encode_analytic(self, values) -> np.ndarray:
        """Analytic (kernel-free) encode: round through the analytic kernel,
        then emit the posit bit pattern per element.  Returns ``uint64``
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
        neg = v < 0
        a = abs(v)
        # exact scale and fraction of an already-representable magnitude
        scale = int(np.floor(np.log2(a)))
        if np.ldexp(self.work_dtype(1.0), scale) > a:
            scale -= 1
        elif np.ldexp(self.work_dtype(1.0), scale + 1) <= a:
            scale += 1
        k, exponent = divmod(scale, self._useed_exp)
        regime_len = k + 2 if k >= 0 else -k + 1
        frac_bits = max(n - 1 - regime_len - self.es, 0)
        frac_val = a / np.ldexp(self.work_dtype(1.0), scale) - 1.0
        # stay in the work precision: posit64 fractions carry up to 59
        # bits, which a float64 round-trip would round to 53 and shift
        # the emitted code by one
        frac = int(np.rint(np.ldexp(frac_val, frac_bits)))
        body_bits = n - 1
        if k >= 0:
            regime_pattern = ((1 << (k + 1)) - 1) << 1  # k+1 ones then a zero
            regime_width = k + 2
            if regime_width > body_bits:  # maxpos: regime run fills the body
                regime_pattern = (1 << body_bits) - 1
                regime_width = body_bits
        else:
            regime_pattern = 1  # -k zeros then a one
            regime_width = -k + 1
        avail = body_bits - regime_width
        payload = (exponent << frac_bits) | frac
        payload_width = self.es + frac_bits
        if payload_width > avail:
            payload >>= payload_width - avail
            payload_width = avail
        body = (regime_pattern << (avail)) | (payload << (avail - payload_width))
        body &= (1 << body_bits) - 1
        code = body
        if neg:
            code = ((1 << n) - code) & ((1 << n) - 1)
        return code

    # ------------------------------------------------------------------ #
    # magnitude lists
    # ------------------------------------------------------------------ #
    def _ensure_magnitudes(self) -> None:
        if self._full_table:
            if self._magnitudes is None:
                self._magnitudes, self._codes = self._enumerate_magnitudes()
            return
        if self._lo_table is None:
            lo_boundary = np.ldexp(
                self.work_dtype(1.0), self._k_lo * self._useed_exp
            )
            hi_boundary = np.ldexp(
                self.work_dtype(1.0), (self._k_hi + 1) * self._useed_exp
            )
            lo_mags, lo_codes = [], []
            code = 1
            while True:
                v = self.decode_code(code)
                lo_mags.append(v)
                lo_codes.append(code)
                if v >= lo_boundary or code > 4096:
                    break
                code += 1
            hi_mags, hi_codes = [], []
            code = (1 << (self.bits - 1)) - 1
            while True:
                v = self.decode_code(code)
                hi_mags.append(v)
                hi_codes.append(code)
                if v <= hi_boundary or code < (1 << (self.bits - 1)) - 4096:
                    break
                code -= 1
            self._lo_table = (
                np.asarray(lo_mags, dtype=self.work_dtype),
                np.asarray(lo_codes, dtype=np.int64),
            )
            order = np.argsort(np.asarray(hi_mags, dtype=self.work_dtype))
            self._hi_table = (
                np.asarray(hi_mags, dtype=self.work_dtype)[order],
                np.asarray(hi_codes, dtype=np.int64)[order],
            )

    def _build_scalar_state(self) -> tuple:
        """Assemble the constants the scalar kernel needs, once per format.

        For float64 work precision the magnitude lists become plain Python
        lists and floats (``bisect`` plus float arithmetic beat NumPy scalar
        dispatch); the 64-bit format keeps ``longdouble`` arrays/scalars so
        the scalar arithmetic stays in extended precision.
        """
        self._ensure_magnitudes()
        if self._full_table:
            state = (self._magnitudes.tolist(), self._codes.tolist())
        else:
            one = self.work_dtype(1.0)
            maxpos = np.ldexp(one, self._max_exp)
            minpos = np.ldexp(one, -self._max_exp)
            lo_b = np.ldexp(one, self._k_lo * self._useed_exp)
            hi_b = np.ldexp(one, (self._k_hi + 1) * self._useed_exp)
            lo_mags, lo_codes = self._lo_table
            hi_mags, hi_codes = self._hi_table
            if self.work_dtype is np.float64:
                state = (
                    float(maxpos),
                    float(minpos),
                    float(lo_b),
                    float(hi_b),
                    lo_mags.tolist(),
                    lo_codes.tolist(),
                    hi_mags.tolist(),
                    hi_codes.tolist(),
                )
            else:
                state = (
                    maxpos,
                    minpos,
                    lo_b,
                    hi_b,
                    lo_mags,
                    lo_codes,
                    hi_mags,
                    hi_codes,
                )
        self._scalar_state = state
        return state

    def round_scalar_analytic(self, value):
        """Scalar twin of :meth:`round_array_analytic` for one value.

        Pure-Python ``math.frexp``/``math.ldexp`` kernel, bit-identical to
        the vector kernel: same clamp to ``maxpos``, same binade-quantum
        rounding with ties to even, same extreme-regime magnitude lists, same
        saturation.  The extended-precision 64-bit format rounds through
        the two-word bit kernel's scalar twin
        (:meth:`~repro.arithmetic.bitkernels.ExtendedBitKernel.round_one`)
        and runs the same structure on NumPy longdouble scalars for the
        special binades, with the bit kernels disabled and on hosts without
        the x87 layout.  Verified by ``tests/test_scalar_rounding.py`` and
        ``tests/test_bitkernels_64bit.py``.
        """
        state = self._scalar_state
        if state is None:
            state = self._build_scalar_state()
        if self.work_dtype is np.float64:
            v = float(value)
            if v != v or v == math.inf or v == -math.inf:
                return math.nan  # posit NaR; infinities only arise from x/0
            if v == 0.0:
                return 0.0  # single unsigned zero
            a = -v if v < 0.0 else v
            if self._full_table:
                mags, codes = state
                last = mags[-1]
                clipped = a if a < last else last
                mag = mags[nearest_in_table_scalar(clipped, mags, codes)]
                if mag == 0.0:
                    mag = self.min_positive  # never round non-zero to zero
            else:
                maxpos, minpos, lo_b, hi_b, lo_mags, lo_codes, hi_mags, hi_codes = state
                safe = a if a < maxpos else maxpos
                if safe < lo_b:
                    mag = lo_mags[nearest_in_table_scalar(safe, lo_mags, lo_codes)]
                elif safe >= hi_b:
                    mag = hi_mags[nearest_in_table_scalar(safe, hi_mags, hi_codes)]
                else:
                    exp = math.frexp(safe)[1] - 1
                    k = exp // self._useed_exp
                    frac_bits = self.bits - 1 - (k + 2 if k >= 0 else 1 - k) - self.es
                    if frac_bits < 0:
                        frac_bits = 0
                    qexp = exp - frac_bits
                    mag = float(round(math.ldexp(safe, -qexp))) * math.ldexp(1.0, qexp)
                if mag < minpos:
                    mag = minpos
                elif mag > maxpos:
                    mag = maxpos
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
        maxpos, minpos, lo_b, hi_b, lo_mags, lo_codes, hi_mags, hi_codes = state
        safe = a if a < maxpos else maxpos
        if safe < lo_b:
            mag = lo_mags[nearest_in_table_scalar(safe, lo_mags, lo_codes)]
        elif safe >= hi_b:
            mag = hi_mags[nearest_in_table_scalar(safe, hi_mags, hi_codes)]
        else:
            exp = int(np.frexp(safe)[1]) - 1
            k = exp // self._useed_exp
            frac_bits = self.bits - 1 - (k + 2 if k >= 0 else 1 - k) - self.es
            if frac_bits < 0:
                frac_bits = 0
            qexp = exp - frac_bits
            mag = np.rint(np.ldexp(safe, -qexp)) * np.ldexp(wd(1.0), qexp)
        if mag < minpos:
            mag = minpos
        elif mag > maxpos:
            mag = maxpos
        return -mag if v < 0.0 else mag

    # ------------------------------------------------------------------ #
    # value-space rounding
    # ------------------------------------------------------------------ #
    def round_array_analytic(self, values) -> np.ndarray:
        """Vectorised ground-truth rounding.  Formats of <= 16 bits use an
        exact table of representable magnitudes; wider formats use an
        analytic binade-quantum computation with short magnitude lists for the
        extreme regime regions (where fewer than one fraction bit
        survives).  Saturates at minpos/maxpos, maps inf to NaR."""
        x = np.asarray(values, dtype=self.work_dtype)
        out = np.empty(x.shape, dtype=self.work_dtype)
        self._ensure_magnitudes()
        nan_mask = ~np.isfinite(x) & ~np.isinf(x)  # NaN only
        inf_mask = np.isinf(x)
        zero_mask = x == 0
        a = np.abs(np.where(np.isfinite(x), x, 0.0))
        sign = np.where(np.signbit(x), self.work_dtype(-1.0), self.work_dtype(1.0))

        if self._full_table:
            # clamp to the largest magnitude first: far outside the table the
            # distances to the last two entries are indistinguishable in the
            # work precision and the tie rule could pick the wrong one
            clipped = np.minimum(a.astype(np.float64), self._magnitudes[-1])
            idx = nearest_in_table(clipped, self._magnitudes, self._codes)
            mag = self._magnitudes[idx].astype(self.work_dtype)
            # saturate: never round a non-zero magnitude to zero
            mag = np.where((mag == 0) & ~zero_mask, self.work_dtype(self.min_positive), mag)
        else:
            mag = self._round_magnitude_analytic(a, zero_mask)

        res = sign * mag
        res = np.where(zero_mask, self.work_dtype(0.0), res)
        # infinities arise only from division by exact zero in the work
        # precision; posit semantics map those to NaR
        res = np.where(inf_mask, self.work_dtype(np.nan), res)
        res = np.where(nan_mask, self.work_dtype(np.nan), res)
        out[...] = res
        return out

    def _round_magnitude_analytic(self, a, zero_mask) -> np.ndarray:
        work_one = self.work_dtype(1.0)
        maxpos = np.ldexp(work_one, self._max_exp)
        minpos = np.ldexp(work_one, -self._max_exp)
        lo_boundary = np.ldexp(work_one, self._k_lo * self._useed_exp)
        hi_boundary = np.ldexp(work_one, (self._k_hi + 1) * self._useed_exp)

        # clamp to the representable magnitude range up front (posit rounding
        # saturates, and values far beyond maxpos would make the nearest-table
        # distances indistinguishable in the work precision)
        safe = np.where(zero_mask, work_one, np.minimum(a, maxpos))
        _, e = np.frexp(safe)
        exp = e.astype(np.int64) - 1
        k = np.floor_divide(exp, self._useed_exp)
        regime_len = np.where(k >= 0, k + 2, -k + 1)
        frac_bits = self.bits - 1 - regime_len - self.es
        quantum = np.ldexp(work_one, (exp - np.maximum(frac_bits, 0)).astype(np.int64))
        mag = round_to_quantum(safe, quantum)

        extreme_lo = safe < lo_boundary
        extreme_hi = safe >= hi_boundary
        if extreme_lo.any():
            mags, codes = self._lo_table
            idx = nearest_in_table(safe[extreme_lo], mags, codes)
            mag[extreme_lo] = mags[idx]
        if extreme_hi.any():
            mags, codes = self._hi_table
            idx = nearest_in_table(safe[extreme_hi], mags, codes)
            mag[extreme_hi] = mags[idx]
        mag = np.clip(mag, minpos, maxpos)
        return np.where(zero_mask, self.work_dtype(0.0), mag)

    # ------------------------------------------------------------------ #
    # metadata
    # ------------------------------------------------------------------ #
    @property
    def max_value(self) -> float:
        """Largest finite magnitude ``maxpos = 2^(2^es * (n - 2))``."""
        return float(np.ldexp(self.work_dtype(1.0), self._max_exp))

    @property
    def min_positive(self) -> float:
        """Smallest positive magnitude ``minpos = 1 / maxpos``."""
        return float(np.ldexp(self.work_dtype(1.0), -self._max_exp))

    def _compute_machine_epsilon(self) -> float:
        # fraction bits available around 1.0 (regime length 2)
        frac_bits = self.bits - 3 - self.es
        return math.ldexp(1.0, -frac_bits)


#: 8-bit posit, es = 2 (2022 standard)
POSIT8 = PositFormat(8)
#: 16-bit posit, es = 2
POSIT16 = PositFormat(16)
#: 32-bit posit, es = 2
POSIT32 = PositFormat(32)
#: 64-bit posit, es = 2
POSIT64 = PositFormat(64)
