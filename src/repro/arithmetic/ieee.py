"""IEEE-754 style binary floating-point formats.

The generic :class:`IEEEFormat` covers every "classical" format used in the
paper: ``float16`` (1-5-10), ``bfloat16`` (1-8-7), ``float32`` (1-8-23) and
``float64`` (1-11-52), as well as the IEEE-style OFP8 format ``E5M2``
(1-5-2).  The OFP8 ``E4M3`` format deviates from IEEE special-value encoding
and lives in :mod:`repro.arithmetic.ofp8`.

The emulation keeps values in ``float64`` "value space" and rounds after each
operation; rounding is round-to-nearest, ties-to-even, with gradual underflow
(subnormals) and overflow to the signed infinity of the format.

The sign / exponent / mantissa field arithmetic (:func:`field_values`,
:func:`field_codes`) serves both IEEE-layout families: this module's and
E4M3's, which differ only in what the all-ones exponent field holds.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .base import NumberFormat
from .bitkernels import IEEEBitKernel, table_rule

__all__ = ["IEEEFormat", "FLOAT16", "BFLOAT16", "FLOAT32", "FLOAT64"]


def field_values(codes, ebits: int, mbits: int) -> tuple:
    """``(sign, exp_field, mant, magnitude)`` of the ``1 + ebits + mbits``-bit
    codes ``codes``: the sign as a bool array, the two fields as ``int64``
    arrays, and the float64 magnitude that reads every exponent field as a
    finite binade (field 0 as the subnormals), so that each family maps its
    own special fields afterwards."""
    bits = 1 + ebits + mbits
    c = np.asarray(codes, dtype=np.uint64) & np.uint64((1 << bits) - 1)
    sign = (c >> np.uint64(bits - 1)).astype(bool)
    exp_field = ((c >> np.uint64(mbits)) & np.uint64((1 << ebits) - 1)).astype(np.int64)
    mant = (c & np.uint64((1 << mbits) - 1)).astype(np.int64)
    significand = np.where(exp_field > 0, mant + (1 << mbits), mant)
    bias = (1 << (ebits - 1)) - 1
    # float64's all-ones field overflows here; IEEE reads it as inf/NaN
    with np.errstate(over="ignore"):
        magnitude = np.ldexp(
            significand.astype(np.float64), np.maximum(exp_field, 1) - bias - mbits
        )
    return sign, exp_field, mant, magnitude


def field_codes(values, ebits: int, mbits: int) -> np.ndarray:
    """The exponent and mantissa fields (``uint64``, sign bit clear) of the
    magnitudes of the representable float64 ``values``; zeros and
    non-finite values give 0, which each family replaces by its own
    codes."""
    v = np.asarray(values, dtype=np.float64)
    a = np.where(np.isfinite(v), np.abs(v), 0.0)
    frac, e = np.frexp(a)  # a = frac * 2^e with frac in [0.5, 1)
    bias = (1 << (ebits - 1)) - 1
    normal = a >= math.ldexp(1.0, 1 - bias)
    mant = np.where(
        normal,
        np.ldexp(frac, mbits + 1) - float(1 << mbits),
        np.ldexp(np.where(normal, 0.0, a), mbits + bias - 1),
    )
    exp_field = np.where(normal, e - 1 + bias, 0).astype(np.uint64)
    return (exp_field << np.uint64(mbits)) | mant.astype(np.uint64)


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
        # float32/float64 round by a single hardware cast, which no kernel
        # can beat (the contexts of both are native: see get_context)
        self._cast_dtype = {(11, 52): np.float64, (8, 23): np.float32}.get(
            (self.ebits, self.mbits)
        )

    # ------------------------------------------------------------------ #
    # bit-level
    # ------------------------------------------------------------------ #
    def decode(self, codes) -> np.ndarray:
        """Sign, biased exponent and mantissa fields: subnormals for
        exponent field 0, ±inf/NaN for the all-ones exponent field."""
        sign, exp_field, mant, value = field_values(codes, self.ebits, self.mbits)
        top = exp_field == (1 << self.ebits) - 1
        value = np.where(top & (mant == 0), np.inf, value)
        value = np.where(sign, -value, value)
        return np.where(top & (mant != 0), np.nan, value)

    def encode(self, values) -> np.ndarray:
        """Fields of each rounded value; zeros and infinities keep their
        sign, NaN encodes as the quiet NaN with the sign bit set."""
        v = self.round_array(values)
        sign = np.signbit(v).astype(np.uint64) << np.uint64(self.bits - 1)
        top = np.uint64(((1 << self.ebits) - 1) << self.mbits)
        code = np.where(np.isinf(v), sign | top, sign | field_codes(v, self.ebits, self.mbits))
        nan = np.uint64(1 << (self.bits - 1)) | top | np.uint64(1 << (self.mbits - 1))
        return np.where(np.isnan(v), nan, code)

    def _build_bitkernel(self):
        """Integer bit-twiddling kernel for the non-cast widths.

        float32/float64 round via a single hardware cast, which no integer
        kernel can beat; every other width (float16, bfloat16, E5M2) gets
        the LUT-driven RNE kernel, whose rule (:meth:`_rule`) rounds the
        overflow and deep-subnormal binades."""
        if self._cast_dtype is not None:
            return None
        return IEEEBitKernel(self.ebits, self.mbits, self._rule())

    def _rule(self) -> tuple:
        """Quantum rounding with gradual underflow as a table rule: on the
        uniform grid of each binade the nearest magnitude with an even code
        is the quantum's round-to-even, from ``max + ulp/2`` up the
        magnitude overflows to the signed infinity, the sign of zero is
        kept, and NaN (its bits too) and ±inf stay as they are."""
        ulp = math.ldexp(1.0, self.emax - self.mbits)
        over = math.nextafter(self._max_value + ulp / 2, 0.0)
        return table_rule(*self._table, over, math.inf, 0.0, nonfinite="keep")

    # ------------------------------------------------------------------ #
    # value-space rounding
    # ------------------------------------------------------------------ #
    def round_array(self, values, *, out=None) -> np.ndarray:
        """Round through the compiled kernel, or by a hardware cast for
        float32/float64 (see :meth:`NumberFormat.round_array`)."""
        if self._cast_dtype is None:
            return super().round_array(values, out=out)
        with np.errstate(over="ignore"):  # overflow to +-inf is the rounding
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

        def round_one(value):
            with np.errstate(over="ignore"):  # overflow to +-inf is the rounding
                return np.float64(cast(value))

        return round_one

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
