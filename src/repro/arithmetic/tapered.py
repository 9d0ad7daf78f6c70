"""The rounding skeleton shared by the tapered-precision formats.

Posits and takums differ only in their bit layout and in how many
significand bits each binade keeps.  Everything else is common to both
families and lives in :class:`TaperedFormat`: NaN and infinities (which
arise only from division by an exact zero) round to NaR, the single zero is
unsigned, a non-zero value never rounds to zero or NaR but saturates at the
smallest (code ``0…01``) or largest (code ``01…1``) magnitude, formats of
16 bits or fewer search the sorted list of all their magnitudes, wider ones
round to the quantum of the containing binade with magnitude lists for the
extreme binades, and the work precision and bit-kernel wiring follow from
the width.  That is the rule (:meth:`TaperedFormat._rule`) the compiled
kernel rounds by.

A family supplies its bit layout (a vectorised ``decode``/``encode`` over
integer fields, in the work dtype of every width: values are built with
``ldexp`` and taken apart with ``frexp``), its bit kernel classes and the
binade rule (:meth:`TaperedFormat._quantum_exp_array`), plus
:meth:`TaperedFormat._extreme_bounds` when some binades fall off that rule.
The magnitude tables and extreme lists of the rule are decoded through the
family's ``decode``.  The bit kernels keep their own statement of each
binade rule (``_keep_bits``), and ``tests/`` a third, so the differential
sweeps compare independent derivations; ``tests/_oracle.py`` decodes every
layout again, exactly, from the standards.
"""

from __future__ import annotations

import functools
from abc import abstractmethod

import numpy as np

from . import base as _base
from .base import NumberFormat
from .bitkernels import quantum_rule, table_rule

__all__ = ["TaperedFormat"]

#: how far the extreme magnitude lists walk inwards from either end of the
#: code range at most
_EXTREME_LIST_LIMIT = 4096


def bit_length(v: np.ndarray) -> np.ndarray:
    """Vectorised ``int.bit_length`` of non-negative ``int64`` values.

    The float64 conversion can round a value up to the next power of two,
    which makes its ``frexp`` exponent one too large; the shift test takes
    that bit back."""
    _, e = np.frexp(v.astype(np.float64))
    e = e.astype(np.int64)
    return e - ((v != 0) & ((v >> np.maximum(e - 1, 0)) == 0))


class TaperedFormat(NumberFormat):
    """Base of the tapered-precision formats (posits and takums).

    Subclasses set the fields their ``decode`` reads before calling
    ``super().__init__(nbits, name)``, name their bit kernel classes in
    ``_kernel``/``_extended_kernel`` (built from :meth:`_kernel_args` plus
    the rule) and implement the binade rule.
    """

    saturating = True
    has_infinity = False

    #: bit kernel class for float64 work precision
    _kernel: type
    #: bit kernel class for the extended (80-bit longdouble) work precision
    _extended_kernel: type

    def __init__(self, nbits: int, name: str):
        self.bits = int(nbits)
        self.name = name
        # the widest formats need more significand bits near 1.0 than
        # float64's 52; on hosts whose numpy.longdouble is genuinely wider
        # than float64 they work in longdouble, elsewhere (Windows/ARM:
        # longdouble == float64) they fall back to float64 work precision,
        # where the one-word bit kernel still serves them bit-exactly
        # (binades whose format grid is finer than float64's become
        # identity rows).  base.LONGDOUBLE_EXTENDED is read at construction
        # time so tests can simulate the degraded platforms by
        # monkeypatching it.
        self.work_dtype = (
            np.longdouble if nbits > 32 and _base.LONGDOUBLE_EXTENDED else np.float64
        )
        self._qexps: np.ndarray | None = None
        self._min_mag, self._max_mag = self.decode([1, (1 << (self.bits - 1)) - 1])

    # ------------------------------------------------------------------ #
    # family hooks
    # ------------------------------------------------------------------ #
    def _kernel_args(self) -> tuple:
        """Layout arguments of the family's bit kernel constructors."""
        return (self.bits,)

    @abstractmethod
    def _quantum_exp_array(self, exp: np.ndarray) -> np.ndarray:
        """Exponent of the rounding quantum in each binade
        ``[2^exp, 2^(exp+1))`` of the ``int64`` array ``exp``."""

    def _extreme_bounds(self):
        """``(lo, hi)`` work-precision magnitudes outside of which the binade
        rule stops describing the representable grid, or ``None`` when it
        holds over the whole range.  Magnitudes below ``lo`` and from ``hi``
        up round through magnitude lists decoded from either end of the
        code range."""
        return None

    # ------------------------------------------------------------------ #
    # bit kernels and magnitude lists
    # ------------------------------------------------------------------ #
    def _build_bitkernel(self):
        """Integer bit-twiddling kernel: the one-word float64 kernel for
        float64-work widths, the two-word extended kernel for the 64-bit
        formats in longdouble.  It rounds by :meth:`_rule` wherever its
        LUTs do not serve."""
        wide = np.dtype(self.work_dtype) != np.dtype(np.float64)
        kernel = self._extended_kernel if wide else self._kernel
        return kernel(*self._kernel_args(), self._rule())

    def _rule(self) -> tuple:
        """The nearest entry of the full magnitude table for formats of at
        most 16 bits, else the binade quantum with the extreme magnitude
        lists, both saturating at minpos and maxpos; NaN and infinities
        (which arise only from division by an exact zero) round to NaR."""
        if self.bits <= 16:
            last = self._table[0][-1]
            return table_rule(*self._table, last, last, self._min_mag, nonfinite="nar")
        lo, hi, lo_table, hi_table = self._extremes
        base, qexps = self._quantum_exp_lut()
        return quantum_rule(
            lo_table, hi_table, base, qexps, self._min_mag, self._max_mag, lo, hi
        )

    def _quantum_exp_lut(self) -> tuple[int, np.ndarray]:
        """``(base, qexps)``: :meth:`_quantum_exp_array` of the binade of
        every ``frexp`` exponent ``e`` of a positive finite work value, at
        ``qexps[e - base]`` (``int64``), built once
        (``tests/test_scalar_rounding.py`` checks every entry against the
        scalar binade rule of ``tests/``)."""
        info = np.finfo(self.work_dtype)
        base = info.minexp - info.nmant + 1  # the exponent of the smallest subnormal
        if self._qexps is None:
            exps = np.arange(base - 1, info.maxexp, dtype=np.int64)
            self._qexps = self._quantum_exp_array(exps).astype(np.int64)
        return base, self._qexps

    @functools.cached_property
    def _extremes(self) -> tuple:
        """``(lo, hi, lo_table, hi_table)`` of a wide format: the bounds of
        :meth:`_extreme_bounds` and the ascending ``(magnitudes, codes)``
        lists decoded inwards from codes ``0…01`` and ``01…1`` until each
        bound is crossed (empty lists and bounds ``0``/``inf`` when the
        family has no extreme binades)."""
        wd = self.work_dtype
        bounds = self._extreme_bounds()
        if bounds is None:
            empty = (np.empty(0, dtype=wd), np.empty(0, dtype=np.int64))
            return wd(0.0), wd(np.inf), empty, empty
        lo, hi = bounds
        top = (1 << (self.bits - 1)) - 1
        return (
            lo,
            hi,
            self._decode_run(1, 1, top - 1, lambda v: v >= lo),
            self._decode_run(top, -1, top, lambda v: v <= hi),
        )

    def _decode_run(self, first: int, step: int, count: int, stop) -> tuple[np.ndarray, np.ndarray]:
        """Decode the ``count`` codes ``first, first + step, …`` in order up
        to the first value ``stop`` accepts (or :data:`_EXTREME_LIST_LIMIT`
        codes past the first), sorted by magnitude."""
        codes = first + step * np.arange(min(count, _EXTREME_LIST_LIMIT + 1), dtype=np.int64)
        mags = self.decode(codes)
        hits = np.flatnonzero(stop(mags))
        if hits.size:
            codes, mags = codes[: hits[0] + 1], mags[: hits[0] + 1]
        order = np.argsort(mags)
        return mags[order], codes[order]

    # ------------------------------------------------------------------ #
    # metadata
    # ------------------------------------------------------------------ #
    @property
    def max_value(self) -> float:
        """Largest finite magnitude (decode of code ``01…1``)."""
        return float(self._max_mag)

    @property
    def min_positive(self) -> float:
        """Smallest positive magnitude (decode of code ``0…01``)."""
        return float(self._min_mag)
