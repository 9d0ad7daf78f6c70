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
from .tapered import TaperedFormat, bit_length

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
    def decode(self, codes) -> np.ndarray:
        """Sign, regime run, exponent and fraction of each code, negative
        codes read as the two's complement of the positive pattern; ``0``
        decodes to 0.0 and ``10…0`` to NaR (NaN)."""
        n, es, wd = self.bits, self.es, self.work_dtype
        c = np.asarray(codes, dtype=np.uint64) & np.uint64((1 << n) - 1)
        neg = (c >> np.uint64(n - 1)).astype(bool)
        body_mask = (1 << (n - 1)) - 1
        # the two's complement of a negative code, modulo 2^(n-1): -low
        # cannot overflow, as `low` stays below 2^63
        low = (c & np.uint64(body_mask)).astype(np.int64)
        body = np.where(neg, -low & body_mask, low)
        # regime: a run of identical bits from position n - 2 and its
        # terminating bit, which may fall past the end
        first = (body >> (n - 2)) & 1
        run = (n - 1) - bit_length(np.where(first == 1, body ^ body_mask, body))
        k = np.where(first == 1, run - 1, -run)
        remaining = np.maximum(n - 2 - run, 0)
        exp_bits = np.minimum(es, remaining)
        exponent = ((body >> (remaining - exp_bits)) & ((1 << exp_bits) - 1)) << (es - exp_bits)
        frac_bits = remaining - exp_bits
        significand = (body & ((1 << frac_bits) - 1)) | (1 << frac_bits)
        value = np.ldexp(significand.astype(wd), k * self._useed_exp + exponent - frac_bits)
        value = np.where(neg, -value, value)
        value = np.where(c == 0, wd(0.0), value)
        return np.where(c == np.uint64(1 << (n - 1)), wd(np.nan), value)

    def encode(self, values) -> np.ndarray:
        """Regime, exponent and fraction fields of each rounded value (the
        exponent cut where the regime leaves it fewer than ``es`` bits),
        two's complement for negative values; NaN encodes as NaR."""
        n, es = self.bits, self.es
        v = self.round_array(values)
        finite = np.isfinite(v)
        frac, e = np.frexp(np.where(finite, np.abs(v), 0))
        scale = e.astype(np.int64) - 1
        k = np.floor_divide(scale, self._useed_exp)
        regime_len = np.where(k >= 0, k + 2, 1 - k)
        body_bits = n - 1
        frac_bits = np.maximum(body_bits - regime_len - es, 0)
        fraction = np.ldexp(frac, frac_bits + 1).astype(np.int64) - (1 << frac_bits)
        # k >= 0: k + 1 ones then a zero (at maxpos the ones fill the
        # body); k < 0: -k zeros then a one
        width = np.minimum(regime_len, body_bits)
        ones = (1 << width) - 1
        regime = np.where(k < 0, 1, np.where(regime_len > body_bits, ones, ones - 1))
        avail = body_bits - width
        payload = ((scale - k * self._useed_exp) << frac_bits) | fraction
        cut = np.maximum(es + frac_bits - avail, 0)
        body = (regime << avail) | ((payload >> cut) << (avail - es - frac_bits + cut))
        body = body.astype(np.uint64)
        code = np.where(np.signbit(v), (~body + np.uint64(1)) & np.uint64((1 << n) - 1), body)
        code = np.where(v == 0, np.uint64(0), code)
        return np.where(finite, code, np.uint64(1 << (n - 1)))

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
