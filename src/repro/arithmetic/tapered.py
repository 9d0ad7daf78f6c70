"""The rounding skeleton shared by the tapered-precision formats.

Posits and takums differ only in their bit layout and in how many
significand bits each binade keeps.  Everything else is common to both
families and lives in :class:`TaperedFormat`: NaN and infinities (which
arise only from division by an exact zero) round to NaR, the single zero is
unsigned, a non-zero value never rounds to zero or NaR but saturates at the
smallest (code ``0…01``) or largest (code ``01…1``) magnitude, formats of
16 bits or fewer search the sorted list of all their magnitudes, wider ones
round to the quantum of the containing binade with magnitude lists for the
extreme binades, and the work precision, scalar cutoff and bit-kernel
wiring follow from the width.

A family supplies its bit layout (``decode_code``, ``_encode_scalar``), its
bit kernel classes and the binade rule (:meth:`TaperedFormat._quantum_exp`
and its vector twin), plus :meth:`TaperedFormat._extreme_bounds` when some
binades fall off that rule.  The bit kernels keep their own statement of
each binade rule (``_keep_bits``), so the kernel-vs-analytic sweeps compare
two independent derivations.
"""

from __future__ import annotations

import math
from abc import abstractmethod

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
from .bitkernels import extended_layout_supported, quantum_rule, table_rule

__all__ = ["TaperedFormat"]

#: how far the extreme magnitude lists walk inwards from either end of the
#: code range at most
_EXTREME_LIST_LIMIT = 4096

#: the exponent ``math.frexp`` returns for the smallest positive float64
_FREXP_MIN = -1073


class TaperedFormat(NumberFormat):
    """Base of the tapered-precision formats (posits and takums).

    Subclasses set the fields their :meth:`decode_code` reads before calling
    ``super().__init__(nbits, name)``, name their bit kernel classes in
    ``_kernel``/``_extended_kernel`` (built from :meth:`_kernel_args` plus
    the resolver) and implement the binade rule.
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
        self._full_table = self.bits <= 16
        self._magnitudes: np.ndarray | None = None
        self._codes: np.ndarray | None = None
        self._extremes: tuple | None = None
        self._qexps: np.ndarray | None = None
        self._scalar_state: tuple | None = None
        self._min_mag = self.decode_code(1)
        self._max_mag = self.decode_code((1 << (self.bits - 1)) - 1)
        # the longdouble scalar kernel pays NumPy scalar dispatch
        # (~4 us/element), which moves its break-even against the analytic
        # vector kernel down to ~8
        self.scalar_cutoff = (
            WIDE_SCALAR_CUTOFF if self.work_dtype is np.float64 else SCALAR_CUTOFF
        )

    # ------------------------------------------------------------------ #
    # family hooks
    # ------------------------------------------------------------------ #
    def _kernel_args(self) -> tuple:
        """Layout arguments of the family's bit kernel constructors."""
        return (self.bits,)

    @abstractmethod
    def _quantum_exp(self, exp: int) -> int:
        """Exponent of the rounding quantum in the binade ``[2^exp, 2^(exp+1))``
        (Python ints; the scalar kernels' binade rule)."""

    @abstractmethod
    def _quantum_exp_array(self, exp: np.ndarray) -> np.ndarray:
        """Vector twin of :meth:`_quantum_exp` on an ``int64`` array."""

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
        formats on 80-bit-longdouble hosts (``None`` on other longdouble
        layouts).  Its special binades round by :meth:`_finite_rule`, the
        analytic kernels' rule, and only NaN and infinities resolve through
        them, so either kernel is bit-identical to the analytic ground
        truth."""
        if np.dtype(self.work_dtype) == np.dtype(np.float64):
            kernel = self._kernel
        elif extended_layout_supported():
            kernel = self._extended_kernel
        else:
            return None
        return kernel(*self._kernel_args(), self._round_kernel_specials, self._finite_rule)

    def _finite_rule(self, kern) -> tuple:
        """The rule the bit kernel ``kern`` rounds finite special values
        with, the analytic kernels' own: the nearest entry of the full
        magnitude table (enumerated through ``kern``'s decode) for formats
        of at most 16 bits, else the binade quantum with the extreme
        magnitude lists, both saturating at minpos and maxpos."""
        self._ensure_magnitudes(kern)
        if self._full_table:
            last = self._magnitudes[-1]
            return table_rule(self._magnitudes, self._codes, last, last, self._min_mag)
        lo, hi, lo_table, hi_table = self._extremes
        base, qexps = self._quantum_exp_lut()
        return quantum_rule(
            lo_table, hi_table, base, qexps, self._min_mag, self._max_mag, lo, hi
        )

    def _quantum_exp_lut(self) -> tuple[int, np.ndarray]:
        """``(base, qexps)``: :meth:`_quantum_exp` of the binade of every
        ``frexp`` exponent ``e`` of a positive finite work value, at
        ``qexps[e - base]`` (``int64``), built once through the vector twin
        (``tests/test_scalar_rounding.py`` checks every entry against the
        scalar rule)."""
        info = np.finfo(self.work_dtype)
        base = info.minexp - info.nmant + 1  # the exponent of the smallest subnormal
        if self._qexps is None:
            exps = np.arange(base - 1, info.maxexp, dtype=np.int64)
            self._qexps = self._quantum_exp_array(exps).astype(np.int64)
        return base, self._qexps

    def _ensure_magnitudes(self, kern=None) -> None:
        if self._full_table:
            self._ensure_table(kern)
        elif self._extremes is None:
            self._extremes = self._extreme_lists()

    def _extreme_lists(self) -> tuple:
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
            self._decode_run(range(1, top), lambda v: v >= lo),
            self._decode_run(range(top, 0, -1), lambda v: v <= hi),
        )

    def _decode_run(self, codes, stop) -> tuple[np.ndarray, np.ndarray]:
        """Decode ``codes`` in order up to the first value ``stop`` accepts
        (or :data:`_EXTREME_LIST_LIMIT` codes past the first), sorted by
        magnitude."""
        mags, kept = [], []
        for code in codes:
            v = self.decode_code(code)
            mags.append(v)
            kept.append(code)
            if stop(v) or len(kept) > _EXTREME_LIST_LIMIT:
                break
        mags = np.asarray(mags, dtype=self.work_dtype)
        order = np.argsort(mags)
        return mags[order], np.asarray(kept, dtype=np.int64)[order]

    def _build_scalar_state(self) -> tuple:
        """Assemble the constants the scalar kernel needs, once per format.

        For float64 work precision the magnitude lists become plain Python
        lists and floats (``bisect`` plus float arithmetic beat NumPy scalar
        dispatch), and the binade rule becomes a list of quantum exponents
        indexed by ``math.frexp``'s exponent (one index instead of the
        rule's arithmetic per scalar); the longdouble formats keep
        ``longdouble`` arrays and scalars so the scalar arithmetic stays in
        extended precision.
        """
        self._ensure_magnitudes()
        if self._full_table:
            state = (self._magnitudes.tolist(), self._codes.tolist())
        else:
            lo, hi, (lo_mags, lo_codes), (hi_mags, hi_codes) = self._extremes
            bounds = (self._max_mag, self._min_mag, lo, hi)
            tables = (lo_mags, lo_codes, hi_mags, hi_codes)
            if self.work_dtype is np.float64:
                bounds = tuple(float(b) for b in bounds)
                qexps = self._quantum_exp_lut()[1].tolist()
                tables = tuple(t.tolist() for t in tables) + (qexps,)
            state = bounds + tables
        self._scalar_state = state
        return state

    # ------------------------------------------------------------------ #
    # value-space rounding
    # ------------------------------------------------------------------ #
    def round_scalar_analytic(self, value):
        """Scalar twin of :meth:`round_array_analytic` for one value.

        Pure-Python ``math.frexp``/``math.ldexp`` kernel, bit-identical to
        the vector kernel: same clamp to the largest magnitude, same
        binade-quantum rounding with ties to even, same extreme magnitude
        lists, same saturation.  The extended-precision formats run the
        same structure on NumPy longdouble scalars.  Verified by
        ``tests/test_scalar_rounding.py`` and
        ``tests/test_bitkernels_64bit.py``.
        """
        state = self._scalar_state
        if state is None:
            state = self._build_scalar_state()
        if self.work_dtype is np.float64:
            v = float(value)
            if v != v or v == math.inf or v == -math.inf:
                return math.nan  # NaR; infinities only arise from x/0
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
                maxpos, minpos, lo, hi, lo_mags, lo_codes, hi_mags, hi_codes, qexps = state
                safe = a if a < maxpos else maxpos
                if safe < lo:
                    mag = lo_mags[nearest_in_table_scalar(safe, lo_mags, lo_codes)]
                elif safe >= hi:
                    mag = hi_mags[nearest_in_table_scalar(safe, hi_mags, hi_codes)]
                else:
                    qexp = qexps[math.frexp(safe)[1] - _FREXP_MIN]
                    mag = float(round(math.ldexp(safe, -qexp))) * math.ldexp(1.0, qexp)
                if mag < minpos:
                    mag = minpos
                elif mag > maxpos:
                    mag = maxpos
            return -mag if v < 0.0 else mag
        wd = self.work_dtype
        v = value if isinstance(value, wd) else wd(value)
        if v != v or v == np.inf or v == -np.inf:
            return wd(np.nan)
        if v == 0.0:
            return wd(0.0)
        a = -v if v < 0.0 else v
        maxpos, minpos, lo, hi, lo_mags, lo_codes, hi_mags, hi_codes = state
        safe = a if a < maxpos else maxpos
        if safe < lo:
            mag = lo_mags[nearest_in_table_scalar(safe, lo_mags, lo_codes)]
        elif safe >= hi:
            mag = hi_mags[nearest_in_table_scalar(safe, hi_mags, hi_codes)]
        else:
            qexp = self._quantum_exp(int(np.frexp(safe)[1]) - 1)
            mag = np.rint(np.ldexp(safe, -qexp)) * np.ldexp(wd(1.0), qexp)
        if mag < minpos:
            mag = minpos
        elif mag > maxpos:
            mag = maxpos
        return -mag if v < 0.0 else mag

    def round_array_analytic(self, values) -> np.ndarray:
        """Vectorised ground-truth rounding.  Formats of <= 16 bits use an
        exact table of representable magnitudes; wider formats round to the
        quantum of the containing binade (:meth:`_quantum_exp_array`), with
        magnitude lists for the extreme binades.  Saturates at the
        smallest/largest magnitude, maps NaN and inf to NaR."""
        wd = self.work_dtype
        x = np.asarray(values, dtype=wd)
        self._ensure_magnitudes()
        finite = np.isfinite(x)
        zero_mask = x == 0
        a = np.abs(np.where(finite, x, 0.0))
        sign = np.where(np.signbit(x), wd(-1.0), wd(1.0))
        if self._full_table:
            # clamp to the largest magnitude first: far outside the table the
            # distances to the last two entries are indistinguishable in the
            # work precision and the tie rule could pick the wrong one
            clipped = np.minimum(a.astype(np.float64), self._magnitudes[-1])
            idx = nearest_in_table(clipped, self._magnitudes, self._codes)
            mag = self._magnitudes[idx].astype(wd)
            # saturate: never round a non-zero magnitude to zero
            mag = np.where((mag == 0) & ~zero_mask, wd(self._min_mag), mag)
        else:
            mag = self._round_magnitude_analytic(a, zero_mask)
        res = np.where(zero_mask, wd(0.0), sign * mag)
        # infinities arise only from division by exact zero in the work
        # precision; tapered formats map those to NaR like NaN
        return np.where(finite, res, wd(np.nan))

    def _round_magnitude_analytic(self, a, zero_mask) -> np.ndarray:
        wd = self.work_dtype
        one = wd(1.0)
        # clamp to the largest magnitude up front (rounding saturates, and
        # values far beyond it would make the nearest-table distances
        # indistinguishable in the work precision)
        safe = np.where(zero_mask, one, np.minimum(a, self._max_mag))
        _, e = np.frexp(safe)
        qexp = self._quantum_exp_array(e.astype(np.int64) - 1)
        mag = round_to_quantum(safe, np.ldexp(one, qexp.astype(np.int64)))
        lo, hi, lo_table, hi_table = self._extremes
        for extreme, (mags, codes) in ((safe < lo, lo_table), (safe >= hi, hi_table)):
            if extreme.any():
                mag[extreme] = mags[nearest_in_table(safe[extreme], mags, codes)]
        mag = np.clip(mag, self._min_mag, self._max_mag)
        return np.where(zero_mask, wd(0.0), mag)

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
