"""Integer bit-twiddling rounding engine shared by every emulated format.

Every emulated format rounds through one compiled kernel, built here from
two statements of the format's rounding:

* its *rule*: the format's own round-to-nearest-even, restated in C over
  tables the format hands the kernel when it is built (:func:`table_rule`
  for the formats of at most 16 bits, :func:`quantum_rule` for the wider
  tapered formats), with its non-finite policy (IEEE formats keep NaN and
  ±inf, posits and takums map them to NaR, E4M3 maps NaN to NaN and
  rounds ±inf by its overflow rule).  The rule alone rounds every value;
* its *binade rule* (``_keep_bits``), from which the kernel derives an
  integer lookup table (LUT) that rounds most values without the rule.

For every work binade, the number of work-significand bits a format
retains is a pure function of the exponent field (the mantissa length
taper of posits/takums, the constant significand of IEEE formats, the
gradual-underflow taper of IEEE subnormals).  A lookup table over the
**sign+exponent field** (4096 entries for float64 words, 65536 for the
80-bit extended words) therefore yields, per element, the truncation shift
``s`` and the rounding bias ``2^(s-1) - 1``; the rounding step is then the
classic integer RNE transform ``((u + bias + lsb) >> s) << s`` with
``lsb = (u >> s) & 1`` breaking ties towards the even retained word.  For
float64 work values the transform operates on the *full* word, sign bit
included: in the binades the LUT serves, the carry of a round-up can reach
the exponent field (that is exactly how a binade boundary rounds up) but
provably never the sign bit.

* The 64-bit posit/takum formats work in 80-bit x87 extended precision
  (``numpy.longdouble``), whose 16-byte memory layout is **two** uint64
  words: a full 64-bit significand with an explicit integer bit, and a
  sign + 15-bit-exponent word (the remaining six bytes are unspecified
  padding).  :class:`ExtendedBitKernel` runs the same RNE transform on the
  significand word alone — magnitudes round independently of the sign — and
  handles the binade-boundary carry explicitly: the add wraps exactly when
  the rounded significand is ``2^64``, in which case the result is
  significand ``2^63`` with the exponent word incremented.

* Binades where the representable values are **not** a uniform power-of-two
  grid — posit/takum extreme regimes, IEEE overflow and deep-subnormal
  binades, zeros, infinities and NaNs — are marked *special* in the LUT,
  and their values round by the rule.  Binades where the format grid is at
  least as *fine* as the work grid (possible when a 64-bit format degrades
  to float64 work precision on hosts without extended longdouble) are
  marked *identity* and copied through unchanged.

The Python classes here state each family's binade rule (``_keep_bits``)
and build the LUTs from it; the rounding itself runs in C (``_rounding.c``,
compiled on first use by :mod:`repro.arithmetic._build`), which reads the
LUTs and the rule's tables in place.  A kernel has two compiled entries:
the scalar :attr:`BitKernel.round_one`, and the array ``round_into``
behind :meth:`BitKernel.round`, which writes into a caller-provided
``out=`` buffer — the entry point `EmulatedContext` uses to round
operation results in place instead of allocating a second array per
elementary op.  The module's entries (``reduce``, the rounded sums of the
contexts' dot products, matrix-vector products and ``spmv``, the Arnoldi
expansion ``arnoldi``, and the projected eigensolver's ``tridiagonalize``
and ``ql``) take the kernel object :attr:`BitKernel.compiled` as an
argument.  No value leaves
the kernel unrounded.

Correctness invariants of the LUT-served ("main region") binades, checked by
the builders and the exhaustive/sweep tests in ``tests/test_bitkernels.py``:

1. *uniform grid*: all representable magnitudes in the binade are the
   multiples of one power-of-two quantum, so truncating the word is exact
   quantum rounding;
2. *carry safety*: ``2^(e+1)`` is representable (a round-up out of the top
   of the binade lands on a representable value);
3. *parity safety*: at least one fraction bit is retained (``keep >= 1``),
   so the retained word's LSB parity equals the parity of the quantized
   significand and ties resolve exactly as round-half-to-even on the
   quantum does.

The kernels hold no bit codec: each format family encodes and decodes
its own codes (``decode``/``encode`` of the format classes), and the
format hands the kernel its finished rule tuple.

The integer transform is off with the environment variable
``REPRO_DISABLE_BITKERNELS=1`` or at runtime with :func:`set_enabled` (the
library's one rounding opt-out): kernels are then built without their LUTs
and round every value by the rule alone, with the same results.  The
differential reference of ``tests/`` checks both positions.  The extended
kernels have no LUT on hosts whose ``long double`` is not the x87 slot;
there the rule alone rounds in that host's ``long double``.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

import numpy as np

from ..telemetry import core as _telemetry
from . import _build

__all__ = [
    "BitKernel",
    "IEEEBitKernel",
    "E4M3BitKernel",
    "PositBitKernel",
    "TakumBitKernel",
    "ExtendedBitKernel",
    "PositExtendedBitKernel",
    "TakumExtendedBitKernel",
    "extended_layout_supported",
    "extension",
    "quantum_rule",
    "table_rule",
    "set_enabled",
    "bitkernels_enabled",
]

_U = np.uint64

#: special-LUT codes: round by the rule / copy through
_SPECIAL_RULE = 1
_SPECIAL_IDENTITY = 2
#: exponent fields per NumPy pass of the LUT build
_LUT_BLOCK = 4096

_ENABLED = os.environ.get("REPRO_DISABLE_BITKERNELS", "").lower() not in (
    "1",
    "true",
    "yes",
)

#: the compiled extension: ``None`` until first needed
_extension = None

#: callables run after the switch flips; the formats register the drop of
#: the kernels they bound, so the flip reaches formats built before it
_switch_hooks: list[Callable[[], None]] = []


def extension():
    """The compiled extension module, loaded (and built) on first use.

    Raises :class:`ImportError` when it cannot be built (see
    :func:`repro.arithmetic._build.load`)."""
    global _extension
    if _extension is None:
        _extension = _build.load()
    return _extension


def set_enabled(enabled: bool) -> bool:
    """Globally enable/disable the integer transform; returns the previous
    state.

    Disabled, every kernel rounds by its format's rule alone
    (``REPRO_DISABLE_BITKERNELS=1`` has the same effect at start-up).  Takes
    effect on formats and contexts built before the call too.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    for hook in _switch_hooks:
        hook()
    return previous


def bitkernels_enabled() -> bool:
    """Whether the kernels round through their LUTs (the switch is on)."""
    return _ENABLED


def extended_layout_supported() -> bool:
    """Whether ``numpy.longdouble`` is the 80-bit x87 format in 16-byte slots.

    That is the two-word (significand word + sign/exponent word) memory
    layout the extended kernels operate on.  False where longdouble is plain
    float64 (Windows, most ARM builds), IEEE binary128, or the 12-byte ix86
    layout — there the extended kernels round by their rule alone (or, when
    longdouble degenerates to float64, the one-word float64 kernels serve).
    """
    return (
        np.finfo(np.longdouble).nmant == 63
        and np.dtype(np.longdouble).itemsize == 16
    )


def _nonfinite(policy: str) -> int:
    """The compiled constant of a non-finite policy: ``"keep"`` (a NaN keeps
    its bits, ±inf stays), ``"nar"`` (NaN and ±inf become +NaN) or
    ``"rule"`` (NaN becomes +NaN, ±inf rounds by the finite rule)."""
    return getattr(extension(), f"NONFINITE_{policy.upper()}")


def table_rule(magnitudes, codes, over, top, floor, nonfinite: str) -> tuple:
    """The rule of a format that rounds to the nearest entry of its
    ascending float64 ``magnitudes`` table (ties to the even entry of the
    parallel int64 ``codes``): a magnitude above ``over`` rounds to ``top``,
    a zero result becomes ``floor``, and the value keeps its sign; NaN and
    ±inf follow the ``nonfinite`` policy (see :func:`_nonfinite`)."""
    ext = extension()
    return (ext.RULE_TABLE, _nonfinite(nonfinite), magnitudes, codes, over, top, floor)


def quantum_rule(lo_table, hi_table, qexp_base, qexps, minpos, maxpos, lo, hi) -> tuple:
    """The rule of a wide tapered format: the magnitude, clamped to
    ``maxpos``, rounds to the nearest entry of the ``(magnitudes, codes)``
    table ``lo_table`` below ``lo``, of ``hi_table`` from ``hi`` up, and in
    between to the quantum ``2^qexps[e - qexp_base]`` of its binade (``e``
    its ``frexp`` exponent); the result is clamped to ``[minpos, maxpos]``,
    and NaN and ±inf become NaR (+NaN).  Tables and bounds are of the work
    dtype, ``qexps`` is int64 over every ``frexp`` exponent of the work
    dtype."""
    kind = extension().RULE_QUANTUM
    nar = _nonfinite("nar")
    return (kind, nar, *lo_table, *hi_table, qexps, qexp_base, minpos, maxpos, lo, hi)


class BitKernel:
    """Family-parameterized integer rounding kernel.

    Subclasses define the format family by implementing :meth:`_keep_bits`
    (how many work-significand bits survive in a given binade, or ``None``
    for binades the rule must round).  Construction loads the compiled
    library (:func:`extension`).

    Parameters
    ----------
    bits:
        Storage width of the emulated format.
    rule:
        The format's rule (:func:`table_rule` or :func:`quantum_rule`).
        With the switch on, the compiled kernel rounds the values of the
        special binades with it; with the switch off (or without a LUT
        layout), every value.

    Attributes
    ----------
    round_one:
        The compiled scalar entry: ``round_one(value)`` returns the rounded
        work-dtype scalar (``numpy.float64``, or ``numpy.longdouble`` for
        the extended kernels), or ``None`` when the value is not a float of
        the work layout.  Counts no telemetry.
    compiled:
        The compiled kernel object, which the module's entries take; its
        ``take_counts()`` drains the ``(calls, elements, handed_back,
        zeros)`` tallies of the passes made through it while telemetry is
        on; ``handed_back`` counts the non-zero values the rule rounded.
    """

    #: family tag used in reprs and dispatch diagnostics
    family = "abstract"
    #: whether the format has one unsigned zero (posit/takum: ``-0.0``
    #: rounds to ``+0.0``) or keeps the sign of zero (IEEE families)
    unsigned_zero = False

    #: work-word layout: exponent-field width, exponent bias and fraction
    #: bits of the word the kernel transforms, and the work dtype (float64
    #: by default; the extended kernels override all four for the 80-bit
    #: x87 layout)
    WORD_EXP_BITS = 11
    WORD_BIAS = 1023
    WORD_FRAC_BITS = 52
    work_dtype = np.float64

    def __init__(self, bits: int, rule: tuple):
        self.bits = int(bits)
        luts = (None, None, None)
        if _ENABLED and self._has_lut_layout():
            luts = self._luts()
        self._special = luts[2]
        self.compiled = extension().Kernel(
            *luts,
            self.work_dtype is np.longdouble,
            self.unsigned_zero,
            _telemetry.ENABLED_FLAG,
            rule,
        )
        self.round_one = self.compiled.round_one

    @staticmethod
    def _has_lut_layout() -> bool:
        """Whether the host stores the work dtype in the layout the LUTs
        index (always, for float64)."""
        return True

    def _luts(self) -> tuple:
        """The ``(shift, bias, special)`` lookup tables over the sign and
        exponent field of the work word, built from :meth:`_keep_bits` of
        blocks of ``_LUT_BLOCK`` binades at once (the block bounds the
        temporaries: the x87 layout has 32,768 fields).

        A binade that keeps at least as many bits as the work word (a
        64-bit format degraded to float64 work precision: every work value
        is already representable) copies through unchanged; so does
        ``keep == frac_bits``, where ``s = 0`` would degenerate the RNE
        transform (the lsb must not be added)."""
        exp_fields = 1 << self.WORD_EXP_BITS
        frac_bits = self.WORD_FRAC_BITS
        shift = np.ones(2 * exp_fields, dtype=_U)
        # written at the served fields only: the zero pages of the rest
        # stay unmapped
        bias = np.zeros(2 * exp_fields, dtype=_U)
        # the first and last fields (zeros/subnormals, inf/NaN) stay special
        special = np.full(2 * exp_fields, _SPECIAL_RULE, dtype=np.uint8)
        for lo in range(1, exp_fields - 1, _LUT_BLOCK):
            hi = min(lo + _LUT_BLOCK, exp_fields - 1)
            keep = self._keep_bits(np.arange(lo - self.WORD_BIAS, hi - self.WORD_BIAS))
            if np.any(keep < 0):
                raise ValueError(f"{type(self).__name__}._keep_bits returned a negative bit count")
            served = (keep >= 1) & (keep < frac_bits)
            fields = lo + np.flatnonzero(served)
            s = (frac_bits - keep[served]).astype(_U)
            codes = np.where(keep == 0, _SPECIAL_RULE, np.where(served, 0, _SPECIAL_IDENTITY))
            for half in (0, exp_fields):  # the sign half mirrors the positive half
                shift[half + fields] = s
                bias[half + fields] = (_U(1) << (s - _U(1))) - _U(1)
                special[half + lo : half + hi] = codes
        return shift, bias, special

    # ------------------------------------------------------------------ #
    # family hooks
    # ------------------------------------------------------------------ #
    def _keep_bits(self, e: np.ndarray) -> np.ndarray:
        """Retained significand bits for each binade ``2^e`` of the int64
        array ``e`` (0: special, the rule rounds it).

        Served values must satisfy the three main-region invariants in the
        module docstring (uniform grid, carry safety, parity safety).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # rounding
    # ------------------------------------------------------------------ #
    def round(self, values, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Round work-dtype ``values`` to the format in one compiled pass
        (``round_into``).

        Parameters
        ----------
        values:
            Work values (any shape; converted to :attr:`work_dtype`).
        out:
            Optional work-dtype array of the same shape to write the result
            into; may alias ``values`` or be a non-contiguous view.  The
            compiled entry refuses such operands with ``OperandError``
            before it writes anything, and they are rounded through a
            contiguous copy.

        Returns
        -------
        numpy.ndarray
            ``out`` if given, else a fresh array.
        """
        x = np.asarray(values, dtype=self.work_dtype)
        if out is None:
            out = np.empty(x.shape, dtype=self.work_dtype)
        try:
            self.compiled.round_into(x, out)
        except extension().OperandError:
            # non-contiguous, partially overlapping or foreign-dtype
            # operands: round a contiguous copy into a fresh buffer
            dst = np.empty(x.shape, dtype=self.work_dtype)
            self.compiled.round_into(np.ascontiguousarray(x), dst)
            np.copyto(out, dst)
        return out

    def __repr__(self) -> str:  # pragma: no cover - trivial
        if self._special is None:
            return f"<{type(self).__name__} {self.family!r} ({self.bits} bits, rule only)>"
        half = len(self._special) // 2
        served = int(np.count_nonzero(self._special[:half] == 0))
        return (
            f"<{type(self).__name__} {self.family!r} ({self.bits} bits, "
            f"{served}/{half} binades integer-served)>"
        )


class IEEEBitKernel(BitKernel):
    """Kernel for IEEE-754 style formats (sign / ``ebits`` / ``mbits``).

    Serves the normal range below the top binade at a constant shift and the
    gradual-underflow taper down to the last binade that retains a fraction
    bit.  The top binade (where a round-up must overflow to infinity), the
    deep-subnormal binades (``keep < 1``) and the specials are special: the
    rule rounds their values.
    """

    family = "ieee"

    def __init__(self, ebits: int, mbits: int, rule: tuple):
        self.mbits = int(mbits)
        bias = (1 << (ebits - 1)) - 1
        self.emin = 1 - bias
        self.emax = bias
        super().__init__(1 + ebits + mbits, rule)

    def _keep_bits(self, e: np.ndarray) -> np.ndarray:
        normal = (self.emin <= e) & (e < self.emax)
        taper = (self.emin - self.mbits < e) & (e < self.emin)  # gradual underflow
        return np.where(normal, self.mbits, np.where(taper, self.mbits + (e - self.emin), 0))


class E4M3BitKernel(IEEEBitKernel):
    """Kernel for the OFP8 E4M3 format (1-4-3, bias 7, no infinities).

    The rounding grid matches a 1-4-3 IEEE format except in the top binade,
    where the all-ones exponent still encodes normal values and overflow
    resolves to NaN (or saturates) — that binade is special, so the policy
    lives entirely in the format's rule.
    """

    family = "e4m3"

    def __init__(self, rule: tuple):
        # the top *encodable* binade is e = emax + 1 = 8 (exponent field 15
        # holds normals); its round-ups overflow to NaN/448, so the rule
        # rounds it and the inherited _keep_bits stopping at e = emax - 1
        # (like plain IEEE, whose top binade overflows to inf) is exactly
        # right here too
        super().__init__(4, 3, rule)


class PositBitKernel(BitKernel):
    """Kernel for posit formats (2022 standard layout, parametric ``es``).

    Serves every binade that retains at least one fraction bit; the extreme
    regimes — where the representable magnitudes stop forming a uniform
    grid — are special: the rule applies the extreme-region magnitude lists
    and minpos/maxpos saturation there.
    """

    family = "posit"
    unsigned_zero = True

    def __init__(self, nbits: int, es: int, rule: tuple):
        self.es = int(es)
        super().__init__(nbits, rule)

    def _keep_bits(self, e: np.ndarray) -> np.ndarray:
        k = e >> self.es
        regime_len = np.where(k >= 0, k + 2, 1 - k)
        frac_bits = self.bits - 1 - regime_len - self.es
        return np.where(frac_bits >= 1, frac_bits, 0)


class TakumBitKernel(BitKernel):
    """Kernel for linear takum formats (Hunhold 2024 layout).

    Serves every binade whose characteristic lies strictly inside
    ``[-255, 254]`` and retains at least one mantissa bit; the boundary
    binades (where rounding can leave the representable range and must
    saturate at minpos/maxval), the truncated-characteristic binades of very
    narrow takums, and the specials are special: the rule rounds their
    values.
    """

    family = "takum"
    unsigned_zero = True

    _C_MIN = -255
    _C_MAX = 254

    def _keep_bits(self, e: np.ndarray) -> np.ndarray:
        from .tapered import bit_length  # tapered builds its kernels from here

        # the characteristic's regime: bit_length(e + 1) - 1 for e >= 0,
        # bit_length(-e) - 1 below
        r = bit_length(np.where(e >= 0, e + 1, -e)) - 1
        p = self.bits - 5 - r
        return np.where((self._C_MIN < e) & (e < self._C_MAX) & (p >= 1), p, 0)


class ExtendedBitKernel(BitKernel):
    """Two-word rounding kernel for 80-bit extended (x87) work arrays.

    ``numpy.longdouble`` on x86 stores each value in 16 bytes: a uint64
    significand word with an **explicit** integer bit at position 63,
    followed by a word whose low 16 bits are the sign bit and the 15-bit
    biased exponent (bias 16383) — the remaining six bytes are unspecified
    padding that is masked on read and written as zeros on output.

    The RNE transform runs on the significand word alone (magnitude rounding
    is sign-independent; the parity of the retained word still decides
    ties).  Unlike the one-word float64 kernels, a round-up out of the top
    of a binade cannot carry into the exponent automatically: the uint64 add
    wraps exactly when the rounded significand is ``2^64`` (the bias plus
    tie bit never exceed ``2^(s-1)``, so the add wraps at most once and the
    wrapped, truncated word is provably 0), and the kernel then rewrites the
    element as significand ``2^63`` with the exponent word incremented —
    which never reaches the sign bit in a LUT-served binade.

    Subclasses combine this mixin with a format family
    (``class PositExtendedBitKernel(ExtendedBitKernel, PositBitKernel)``):
    the family contributes ``_keep_bits`` and the special-binade policy,
    this class contributes the word layout.  On hosts whose ``long double``
    is not the x87 slot the kernel has no LUT and rounds every value by the
    rule in that host's ``long double``.
    """

    WORD_EXP_BITS = 15
    WORD_BIAS = 16383
    WORD_FRAC_BITS = 63
    work_dtype = np.longdouble
    _has_lut_layout = staticmethod(extended_layout_supported)


class PositExtendedBitKernel(ExtendedBitKernel, PositBitKernel):
    """Posit kernel on the extended two-word layout (serves posit64)."""


class TakumExtendedBitKernel(ExtendedBitKernel, TakumBitKernel):
    """Takum kernel on the extended two-word layout (serves takum64)."""
