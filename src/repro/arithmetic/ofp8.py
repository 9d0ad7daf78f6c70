"""OFP8 8-bit floating-point formats (OCP 8-bit Floating Point Specification).

Two formats are defined by the specification:

* ``E5M2`` (1-5-2) follows IEEE-754 special-value conventions (signed
  infinities, NaNs with non-zero mantissa in the top exponent) and is simply
  an :class:`~repro.arithmetic.ieee.IEEEFormat` instance.
* ``E4M3`` (1-4-3) trades the infinities for one extra binade: the top
  exponent field still encodes normal numbers except for the all-ones
  mantissa, which is the (only) NaN.  The largest finite value is 448.

E4M3 overflow behaviour is configurable: the specification's default
(non-saturating) mode maps overflows to NaN, the saturating mode clamps to
±448.  The experiments use the NaN mode by default; the saturation ablation
benchmark exercises the alternative.
"""

from __future__ import annotations

import math

import numpy as np

from .base import NumberFormat
from .bitkernels import E4M3BitKernel, table_rule
from .ieee import IEEEFormat, field_codes, field_values

__all__ = ["OFP8E4M3", "OFP8E5M2", "E4M3", "E5M2"]


class OFP8E4M3(NumberFormat):
    """OFP8 E4M3: 4 exponent bits, 3 mantissa bits, bias 7, no infinities.

    Parameters
    ----------
    saturate:
        Overflow policy: ``False`` (specification default) maps overflowing
        magnitudes to NaN, ``True`` clamps them to ±448.
    name:
        Registry name; defaults to ``"E4M3"`` / ``"E4M3sat"``.
    """

    bits = 8
    has_infinity = False
    work_dtype = np.float64

    #: magnitude beyond which round-to-nearest can no longer return 448
    _overflow_threshold = 464.0

    def __init__(self, saturate: bool = False, name: str | None = None):
        self.saturate = bool(saturate)
        self.name = name or ("E4M3sat" if saturate else "E4M3")

    def _build_bitkernel(self):
        """Integer bit-twiddling kernel; the rule (:meth:`_rule`) rounds
        the top binade (overflow-to-NaN or saturation policy) and deep
        subnormals, so both overflow variants share one kernel class."""
        return E4M3BitKernel(self._rule())

    def _rule(self) -> tuple:
        """The nearest entry of the magnitude table (ties to the even
        code), NaN of the value's sign or ±448 above the overflow
        threshold, infinities included; NaN rounds to +NaN."""
        top = self.max_value if self.saturate else math.nan
        return table_rule(*self._table, self._overflow_threshold, top, 0.0, nonfinite="rule")

    # ------------------------------------------------------------------ #
    def decode(self, codes) -> np.ndarray:
        """IEEE-style 1-4-3 fields, except that the all-ones exponent still
        encodes normals, with ``S.1111.111`` the only NaN and no
        infinities."""
        sign, exp_field, mant, value = field_values(codes, 4, 3)
        value = np.where(sign, -value, value)
        return np.where((exp_field == 0xF) & (mant == 0x7), np.nan, value)

    def encode(self, values) -> np.ndarray:
        """Fields of each rounded value; ``-0.0`` canonicalises to the
        all-zeros code, NaN (and ±inf, which rounding never leaves) to
        ``0x7F``."""
        v = self.round_array(values)
        sign = (np.signbit(v) & (v != 0)).astype(np.uint64) << np.uint64(7)
        return np.where(np.isfinite(v), sign | field_codes(v, 4, 3), np.uint64(0x7F))

    @property
    def max_value(self) -> float:
        """Largest finite magnitude (code ``S.1111.110``)."""
        return 448.0

    @property
    def min_positive(self) -> float:
        """Smallest positive (subnormal) magnitude ``2^-9``."""
        return math.ldexp(1.0, -9)

    def _compute_machine_epsilon(self) -> float:
        return 0.125


class OFP8E5M2(IEEEFormat):
    """OFP8 E5M2: IEEE-style 1-5-2 format with infinities and NaNs."""

    def __init__(self):
        super().__init__(5, 2, "E5M2")


#: module-level singletons used by the registry
E4M3 = OFP8E4M3()
E5M2 = OFP8E5M2()
