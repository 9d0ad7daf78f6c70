"""IEEE-754 style binary floating-point formats.

The generic :class:`IEEEFormat` covers every "classical" format used in the
paper: ``float16`` (1-5-10), ``bfloat16`` (1-8-7), ``float32`` (1-8-23) and
``float64`` (1-11-52), as well as the IEEE-style OFP8 format ``E5M2``
(1-5-2).  The OFP8 ``E4M3`` format deviates from IEEE special-value encoding
and lives in :mod:`repro.arithmetic.ofp8`.

The emulation keeps values in ``float64`` "value space" and rounds after each
operation; rounding is round-to-nearest, ties-to-even, with gradual underflow
(subnormals) and overflow to the signed infinity of the format.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .base import NumberFormat
from .bitkernels import IEEEBitKernel, table_rule

__all__ = ["IEEEFormat", "FLOAT16", "BFLOAT16", "FLOAT32", "FLOAT64"]


class IEEEFormat(NumberFormat):
    """Parametric IEEE-754 binary format with ``ebits`` exponent bits and
    ``mbits`` explicit mantissa bits.

    Parameters
    ----------
    ebits, mbits:
        Field widths; total width is ``1 + ebits + mbits``.
    name:
        Registry name of the format.
    """

    has_infinity = True
    saturating = False
    work_dtype = np.float64

    def __init__(self, ebits: int, mbits: int, name: str):
        if ebits < 2 or mbits < 1:
            raise ValueError("IEEEFormat requires ebits >= 2 and mbits >= 1")
        self.ebits = int(ebits)
        self.mbits = int(mbits)
        self.name = name
        self.bits = 1 + self.ebits + self.mbits
        self.bias = (1 << (self.ebits - 1)) - 1
        #: minimum normal exponent
        self.emin = 1 - self.bias
        #: maximum normal exponent
        self.emax = self.bias
        self._max_value = float(
            math.ldexp(2.0 - math.ldexp(1.0, -self.mbits), self.emax)
        )
        self._min_positive = float(math.ldexp(1.0, self.emin - self.mbits))
        self._min_normal = float(math.ldexp(1.0, self.emin))
        self._magnitudes = self._codes = None
        # float32/float64 round by a single hardware cast, which no kernel
        # can beat (the contexts of both are native: see get_context)
        self._cast_dtype = {(11, 52): np.float64, (8, 23): np.float32}.get(
            (self.ebits, self.mbits)
        )

    # ------------------------------------------------------------------ #
    # bit-level
    # ------------------------------------------------------------------ #
    def decode_code(self, code: int) -> float:
        """Decode one IEEE code (sign, biased exponent, mantissa) into its
        float64 value: subnormals for exponent field 0, ±inf/NaN for the
        all-ones exponent field."""
        code = int(code) & ((1 << self.bits) - 1)
        sign = -1.0 if (code >> (self.bits - 1)) & 1 else 1.0
        exp_field = (code >> self.mbits) & ((1 << self.ebits) - 1)
        mant = code & ((1 << self.mbits) - 1)
        if exp_field == (1 << self.ebits) - 1:
            if mant == 0:
                return sign * math.inf
            return math.nan
        if exp_field == 0:
            return sign * math.ldexp(mant, self.emin - self.mbits)
        return sign * math.ldexp(
            (1 << self.mbits) + mant, exp_field - self.bias - self.mbits
        )

    def _build_bitkernel(self):
        """Integer bit-twiddling kernel for the non-cast widths.

        float32/float64 round via a single hardware cast, which no integer
        kernel can beat; every other width (float16, bfloat16, E5M2) gets
        the LUT-driven RNE kernel, whose rule (:meth:`_rule`) rounds the
        overflow and deep-subnormal binades."""
        if self._cast_dtype is not None:
            return None
        return IEEEBitKernel(self.ebits, self.mbits, self._rule)

    def _rule(self, kern) -> tuple:
        """Quantum rounding with gradual underflow as a table rule: on the
        uniform grid of each binade the nearest magnitude with an even code
        is the quantum's round-to-even, from ``max + ulp/2`` up the
        magnitude overflows to the signed infinity, the sign of zero is
        kept, and NaN (its bits too) and ±inf stay as they are."""
        self._ensure_table(kern)
        ulp = math.ldexp(1.0, self.emax - self.mbits)
        over = math.nextafter(self._max_value + ulp / 2, 0.0)
        return table_rule(
            self._magnitudes, self._codes, over, math.inf, 0.0, nonfinite="keep"
        )

    def _encode_scalar(self, v) -> int:
        """Sign, biased exponent and mantissa fields of one representable
        value (canonical quiet NaN for NaN)."""
        v = float(v)
        sign_bit = 1 if (math.copysign(1.0, v) < 0) else 0
        if math.isnan(v):
            # canonical quiet NaN: all exponent bits set, MSB of mantissa set
            return (
                (1 << (self.bits - 1))
                | (((1 << self.ebits) - 1) << self.mbits)
                | (1 << (self.mbits - 1))
            )
        if math.isinf(v):
            return (sign_bit << (self.bits - 1)) | (
                ((1 << self.ebits) - 1) << self.mbits
            )
        a = abs(v)
        if a == 0.0:
            return sign_bit << (self.bits - 1)
        if a < self._min_normal:
            mant = int(round(a / self._min_positive))
            exp_field = 0
            if mant >= (1 << self.mbits):
                exp_field, mant = 1, 0
        else:
            exp = math.floor(math.log2(a))
            # guard against log2 rounding at binade boundaries
            if math.ldexp(1.0, exp) > a:
                exp -= 1
            elif math.ldexp(1.0, exp + 1) <= a:
                exp += 1
            mant = int(round(math.ldexp(a, self.mbits - exp))) - (1 << self.mbits)
            exp_field = exp + self.bias
            if mant >= (1 << self.mbits):
                mant = 0
                exp_field += 1
        return (sign_bit << (self.bits - 1)) | (exp_field << self.mbits) | mant

    # ------------------------------------------------------------------ #
    # value-space rounding
    # ------------------------------------------------------------------ #
    def round_array(self, values, *, out=None) -> np.ndarray:
        """Round through the compiled kernel, or by a hardware cast for
        float32/float64 (see :meth:`NumberFormat.round_array`)."""
        if self._cast_dtype is None:
            return super().round_array(values, out=out)
        res = np.asarray(values, dtype=np.float64).astype(self._cast_dtype)
        if out is None:
            return res.astype(np.float64)
        out[...] = res
        return out

    @functools.cached_property
    def _round_one(self):
        """The compiled scalar entry, or the cast of float32/float64."""
        cast = self._cast_dtype
        if cast is None:
            return self._bound_kernel.round_one
        return lambda value: np.float64(cast(value))

    # ------------------------------------------------------------------ #
    # metadata
    # ------------------------------------------------------------------ #
    @property
    def max_value(self) -> float:
        """Largest finite magnitude ``(2 - 2^-mbits) * 2^emax``."""
        return self._max_value

    @property
    def min_positive(self) -> float:
        """Smallest positive (subnormal) magnitude ``2^(emin - mbits)``."""
        return self._min_positive

    @property
    def min_normal(self) -> float:
        """Smallest positive normal magnitude."""
        return self._min_normal

    def _compute_machine_epsilon(self) -> float:
        return math.ldexp(1.0, -self.mbits)


#: IEEE binary16 ("half precision")
FLOAT16 = IEEEFormat(5, 10, "float16")
#: Google Brain bfloat16
BFLOAT16 = IEEEFormat(8, 7, "bfloat16")
#: IEEE binary32
FLOAT32 = IEEEFormat(8, 23, "float32")
#: IEEE binary64
FLOAT64 = IEEEFormat(11, 52, "float64")
