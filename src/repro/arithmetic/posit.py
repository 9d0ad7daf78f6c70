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

The rounding skeleton is the tapered formats' shared one
(:class:`~repro.arithmetic.tapered.TaperedFormat`); this module supplies the
bit layout, the binade rule (a binade with regime ``k`` keeps
``n - 1 - regime_length - es`` fraction bits) and the extreme regimes, where
fewer than one fraction bit survives and the rule rounds through short
magnitude lists instead.
"""

from __future__ import annotations

import math

import numpy as np

from .bitkernels import PositBitKernel, PositExtendedBitKernel
from .tapered import TaperedFormat

__all__ = ["PositFormat", "POSIT8", "POSIT16", "POSIT32", "POSIT64"]


class PositFormat(TaperedFormat):
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

    _kernel = PositBitKernel
    _extended_kernel = PositExtendedBitKernel

    def __init__(self, nbits: int, es: int = 2, name: str | None = None):
        if nbits < 3:
            raise ValueError("posit width must be at least 3 bits")
        self.es = int(es)
        self._useed_exp = 1 << self.es  # exponent scale per regime step
        super().__init__(nbits, name or f"posit{nbits}")

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
    # binade rule
    # ------------------------------------------------------------------ #
    def _kernel_args(self) -> tuple:
        return (self.bits, self.es)

    def _quantum_exp_array(self, exp: np.ndarray) -> np.ndarray:
        k = np.floor_divide(exp, self._useed_exp)
        regime_len = np.where(k >= 0, k + 2, -k + 1)
        frac_bits = self.bits - 1 - regime_len - self.es
        return exp - np.maximum(frac_bits, 0)

    def _extreme_bounds(self):
        """The regimes ``k < -(n - 3 - es)`` and ``k > n - 4 - es`` keep no
        fraction bit."""
        one = self.work_dtype(1.0)
        k_lo = -(self.bits - 3 - self.es)
        k_hi = self.bits - 4 - self.es
        return (
            np.ldexp(one, k_lo * self._useed_exp),
            np.ldexp(one, (k_hi + 1) * self._useed_exp),
        )

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
