"""Integer bit-twiddling rounding engine shared by every emulated format.

The analytic vector kernels of the posit/takum/IEEE format families each run
a chain of ~25 NumPy float passes (``frexp``, ``floor_divide``, ``ldexp``,
``rint``, divisions, ``np.where`` ladders) per ``round_array`` call.  This
module replaces those chains with **one** family-parameterized integer
kernel that reads the work value as unsigned integer words and performs
round-to-nearest-even entirely in integer arithmetic:

* For every work binade, the number of work-significand bits a format
  retains is a pure function of the exponent field (the mantissa
  length taper of posits/takums, the constant significand of IEEE formats,
  the gradual-underflow taper of IEEE subnormals).  A lookup table over the
  **sign+exponent field** (4096 entries for float64 words, 65536 for the
  80-bit extended words) therefore yields, per element, the truncation
  shift ``s`` and the rounding bias ``2^(s-1) - 1``; the whole rounding
  step is then the classic integer RNE transform
  ``((u + bias + lsb) >> s) << s`` with ``lsb = (u >> s) & 1`` breaking
  ties towards the even retained word.  For float64 work values the
  transform operates on the *full* word, sign bit included: in the binades
  the LUT serves, the carry of a round-up can reach the exponent field
  (that is exactly how a binade boundary rounds up) but provably never the
  sign bit.

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
  binades, zeros, infinities and NaNs — are marked *special* in the LUT.
  Exact zeros there round inline; every other special value is handed back
  and resolved without the kernel (the format's scalar kernel for a few
  elements, its analytic kernel for many), which keeps the fast path
  bit-identical by construction.
  Binades where the format grid is at least as *fine* as the work grid
  (possible when a 64-bit format degrades to float64 work precision on
  hosts without extended longdouble) are marked *identity* and copied
  through unchanged.

The Python classes here state each family's binade rule (``_keep_bits``)
and build the LUTs from it; the transform itself runs in C
(``_rounding.c``, compiled on first use by :mod:`repro.arithmetic._build`),
which reads the LUTs in place.  A kernel has three compiled entries: the
scalar :attr:`BitKernel.round_one`, the array ``round_into`` behind
:meth:`BitKernel.round`, which writes into a caller-provided ``out=``
buffer — the entry point `EmulatedContext` uses to round operation results
in place instead of allocating a second array per elementary op — and the
pairwise reduction ``reduce_pairwise`` behind :meth:`BitKernel.reduce`,
which runs a whole rounded summation tree in one call.  Both array entries
share one hand-back protocol: a pass over the buffer (the whole buffer for
``round_into``, one tree level for ``reduce_pairwise``) leaves the values
it hands back unrounded in place, then gives them to one call of the
kernel's resolver and stores the results (x87 padding zeroed).  No Python
code sees the handed-back positions.

Correctness invariants of the LUT-served ("main region") binades, checked by
the builders and the exhaustive/sweep tests in ``tests/test_bitkernels.py``:

1. *uniform grid*: all representable magnitudes in the binade are the
   multiples of one power-of-two quantum, so truncating the word is exact
   quantum rounding;
2. *carry safety*: ``2^(e+1)`` is representable (a round-up out of the top
   of the binade lands on a representable value);
3. *parity safety*: at least one fraction bit is retained (``keep >= 1``),
   so the retained word's LSB parity equals the parity of the quantized
   significand and ties resolve exactly as the analytic
   ``rint``-ties-to-even does.

Encode/decode twins are provided per family: vectorised bit-field
construction replacing the per-element Python loops of the analytic
encoders, and vectorised decoding used (among others) by the narrow
formats to enumerate their magnitude lists.

The engine is off with the environment variable
``REPRO_DISABLE_BITKERNELS=1`` or at runtime with :func:`set_enabled` (the
library's one rounding opt-out); every format then rounds through its
analytic kernels (``round_scalar_analytic``/``round_array_analytic``), the
ground truth, with the same results.  The compiled library itself is
required either way: the projected eigensolver
(:mod:`repro.linalg.tridiagonal`) runs only in it.
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
    "native_reducer",
    "set_enabled",
    "bitkernels_enabled",
]

_U = np.uint64
_ONE = _U(1)
_MAG64 = _U(0x7FFFFFFFFFFFFFFF)
_MANT52 = _U(0x000FFFFFFFFFFFFF)

#: special-LUT codes: resolve through the analytic kernel / copy through
_SPECIAL_RESOLVE = 1
_SPECIAL_IDENTITY = 2

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
    """Globally enable/disable the bit kernels; returns the previous state.

    Intended for verification runs that want to force the analytic kernels
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
    """Whether the bit kernels round (the switch is on)."""
    return _ENABLED


def native_reducer():
    """The compiled pairwise reduction of the native dtypes,
    ``reduce_pairwise(values, indptr)``, or ``None`` when the bit kernels
    are off (see :meth:`BitKernel.reduce` for the tree it builds)."""
    return extension().reduce_pairwise if _ENABLED else None


def extended_layout_supported() -> bool:
    """Whether ``numpy.longdouble`` is the 80-bit x87 format in 16-byte slots.

    That is the two-word (significand word + sign/exponent word) memory
    layout the extended kernels operate on.  False where longdouble is plain
    float64 (Windows, most ARM builds), IEEE binary128, or the 12-byte ix86
    layout — those hosts keep the analytic fallback (or, when longdouble
    degenerates to float64, the one-word float64 kernels).
    """
    return (
        np.finfo(np.longdouble).nmant == 63
        and np.dtype(np.longdouble).itemsize == 16
    )


class BitKernel:
    """Family-parameterized integer round/encode/decode kernel.

    Subclasses define the format family by implementing :meth:`_keep_bits`
    (how many work-significand bits survive in a given binade, or ``None``
    for binades the analytic resolver must handle) plus the family's
    :meth:`decode` / :meth:`encode` bit-field layouts.  Construction loads
    the compiled library (:func:`extension`).

    Parameters
    ----------
    bits:
        Storage width of the emulated format.
    resolve:
        Callback rounding a work-dtype array without the kernel (the
        format's scalar or analytic kernel); applied to the elements the
        kernel hands back.

    Attributes
    ----------
    round_one:
        The compiled scalar entry: ``round_one(value)`` returns the rounded
        work-dtype scalar (``numpy.float64``, or ``numpy.longdouble`` for
        the extended kernels), or ``None`` when the value lies in a special
        binade (or is not a float of the work layout) and is handed back.
        Counts no telemetry.
    compiled:
        The compiled kernel object; its ``take_counts()`` drains the
        ``(calls, elements, handed_back, zeros)`` tallies of the passes of
        :meth:`round` and :meth:`reduce` made while telemetry is on.
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
    #: whether the family's vectorised decode/encode twins serve this
    #: kernel's word layout (the extended kernels have none: the 64-bit
    #: formats keep their per-element codecs)
    supports_codec = True

    def __init__(self, bits: int, resolve: Callable[[np.ndarray], np.ndarray]):
        self.bits = int(bits)
        self._resolve = resolve
        exp_fields = 1 << self.WORD_EXP_BITS
        frac_bits = self.WORD_FRAC_BITS
        shift = np.ones(2 * exp_fields, dtype=_U)
        bias = np.zeros(2 * exp_fields, dtype=_U)
        special = np.zeros(2 * exp_fields, dtype=np.uint8)
        for exp_field in range(exp_fields):
            keep = None
            if 0 < exp_field < exp_fields - 1:  # zeros/subnormals, inf/NaN
                keep = self._keep_bits(exp_field - self.WORD_BIAS)
            for idx in (exp_field, exp_field + exp_fields):  # mirror the sign half
                if keep is None:
                    special[idx] = _SPECIAL_RESOLVE
                elif keep >= frac_bits:
                    # the format grid is at least as fine as the work grid in
                    # this binade (a 64-bit format degraded to float64 work
                    # precision): every work value is already representable
                    # and copies through unchanged.  keep == frac_bits would
                    # need s = 0, where the RNE transform degenerates (lsb
                    # must not be added), so it lands here too.
                    special[idx] = _SPECIAL_IDENTITY
                else:
                    if keep < 1:
                        raise ValueError(
                            f"{type(self).__name__}: keep={keep} below the "
                            "parity-safe minimum of 1 for exponent "
                            f"{exp_field - self.WORD_BIAS}"
                        )
                    s = frac_bits - keep
                    shift[idx] = s
                    bias[idx] = (1 << (s - 1)) - 1
        self._shift = shift
        self._bias = bias
        self._special = special
        self.compiled = extension().Kernel(
            shift,
            bias,
            special,
            self.work_dtype is np.longdouble,
            self.unsigned_zero,
            _telemetry.ENABLED_FLAG,
        )
        self.round_one = self.compiled.round_one

    # ------------------------------------------------------------------ #
    # family hooks
    # ------------------------------------------------------------------ #
    def _keep_bits(self, e: int) -> Optional[int]:
        """Retained significand bits for binade ``2^e`` (``None``: special).

        Returned values must satisfy the three main-region invariants in the
        module docstring (uniform grid, carry safety, parity safety).
        """
        raise NotImplementedError

    def decode(self, codes) -> np.ndarray:
        """Vectorised decode of integer codes into float64 values."""
        raise NotImplementedError

    def encode(self, values) -> np.ndarray:
        """Vectorised encode of *representable* float64 values into codes."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # rounding
    # ------------------------------------------------------------------ #
    def round(self, values, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Round work-dtype ``values`` to the format, bit-identical to the
        analytic kernel, in one compiled pass (``round_into``): the values
        the pass hands back go to one call of the resolver, whose results
        the kernel stores in place.

        Parameters
        ----------
        values:
            Work values (any shape; converted to :attr:`work_dtype`).
        out:
            Optional work-dtype array of the same shape to write the result
            into; may alias ``values`` or be a non-contiguous view.  The
            compiled entry refuses such operands with ``OperandError``
            before it writes anything, and they are rounded through a
            contiguous copy; an exception of the resolver propagates.

        Returns
        -------
        numpy.ndarray
            ``out`` if given, else a fresh array.
        """
        x = np.asarray(values, dtype=self.work_dtype)
        if out is None:
            out = np.empty(x.shape, dtype=self.work_dtype)
        try:
            self.compiled.round_into(x, out, self._resolve)
        except extension().OperandError:
            # non-contiguous, partially overlapping or foreign-dtype
            # operands: round a contiguous copy into a fresh buffer
            dst = np.empty(x.shape, dtype=self.work_dtype)
            self.compiled.round_into(np.ascontiguousarray(x), dst, self._resolve)
            np.copyto(out, dst)
        return out

    def reduce(self, values, indptr=None) -> np.ndarray:
        """Rounded pairwise sums of ``values``, one compiled call.

        The segments are the rows along the last axis of ``values``
        (``indptr`` ``None``), or the CSR segments
        ``values[indptr[r]:indptr[r + 1]]`` of a 1-D ``values``.  Each tree
        level adds partial ``2i`` to partial ``2i + 1`` in every segment,
        rounds each sum as :meth:`round` would and carries an odd leftover
        unrounded; each level is one pass, so the sums it hands back go to
        one call of the resolver before the next level starts.  Returns a
        fresh 1-D work array with one sum per segment (zero for an empty
        one); ``values`` is only read.
        """
        return self.compiled.reduce_pairwise(values, indptr, self._resolve)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        half = len(self._special) // 2
        served = int(np.count_nonzero(self._special[:half] == 0))
        return (
            f"<{type(self).__name__} {self.family!r} ({self.bits} bits, "
            f"{served}/{half} binades integer-served)>"
        )


def _as_code_array(codes, bits: int) -> np.ndarray:
    codes = np.asarray(codes, dtype=_U)
    return codes & _U((1 << bits) - 1)


def _bit_length_u64(v: np.ndarray) -> np.ndarray:
    """Vectorised ``int.bit_length`` for uint64 values below 2**53.

    The float64 conversion is exact in that range, so the biased exponent
    field of the converted value is ``bit_length - 1`` for non-zero inputs.
    """
    f = v.astype(np.float64)
    bl = (f.view(np.int64) >> 52) - 1022  # exponent + 1
    return np.where(v == 0, np.int64(0), bl)


class IEEEBitKernel(BitKernel):
    """Kernel for IEEE-754 style formats (sign / ``ebits`` / ``mbits``).

    Serves the normal range below the top binade at a constant shift and the
    gradual-underflow taper down to the last binade that retains a fraction
    bit.  The top binade (where a round-up must overflow to infinity), the
    deep-subnormal binades (``keep < 1``) and the specials go to the
    resolver.
    """

    family = "ieee"

    def __init__(self, ebits: int, mbits: int, resolve):
        self.ebits = int(ebits)
        self.mbits = int(mbits)
        self.bias_f = (1 << (ebits - 1)) - 1
        self.emin = 1 - self.bias_f
        self.emax = self.bias_f
        super().__init__(1 + ebits + mbits, resolve)

    def _keep_bits(self, e: int) -> Optional[int]:
        if self.emin <= e < self.emax:
            return self.mbits
        if self.emin - self.mbits < e < self.emin:
            return self.mbits + (e - self.emin)  # gradual underflow taper
        return None

    # -------------------------------------------------------------- #
    def decode(self, codes) -> np.ndarray:
        c = _as_code_array(codes, self.bits)
        mbits, ebits = self.mbits, self.ebits
        sign = c >> _U(self.bits - 1)
        exp_field = (c >> _U(mbits)) & _U((1 << ebits) - 1)
        mant = c & _U((1 << mbits) - 1)
        # normals: rebias into the float64 exponent field, shift the mantissa
        vbits = ((exp_field + _U(1023 - self.bias_f)) << _U(52)) | (
            mant << _U(52 - mbits)
        )
        value = vbits.view(np.float64)  # fresh ufunc output: contiguous uint64
        # subnormals: exact small-integer scaling
        sub = mant.astype(np.float64) * float(np.ldexp(1.0, self.emin - mbits))
        value = np.where(exp_field == 0, sub, value)
        top = exp_field == _U((1 << ebits) - 1)
        value = np.where(top & (mant == 0), np.inf, value)
        value = np.where(sign == 1, -value, value)
        value = np.where(top & (mant != 0), np.nan, value)
        return value

    def encode(self, values) -> np.ndarray:
        v = np.ascontiguousarray(values, dtype=np.float64)
        u = v.view(_U).reshape(v.shape)
        mbits = self.mbits
        sign = u >> _U(63)
        m = u & _MAG64
        e = (m >> _U(52)).view(np.int64) - 1023
        # normal targets
        exp_field = np.clip(e + self.bias_f, 0, (1 << self.ebits) - 1)
        mant = (m & _MANT52) >> _U(52 - mbits)
        # subnormal targets: denormalise the full significand
        sub_shift = np.clip(52 - mbits + (self.emin - e), 0, 63).astype(_U)
        sub_mant = ((m & _MANT52) | (_ONE << _U(52))) >> sub_shift
        subnormal = e < self.emin
        mant = np.where(subnormal, sub_mant, mant)
        exp_field = np.where(subnormal, np.int64(0), exp_field)
        code = (
            (sign << _U(self.bits - 1))
            | (exp_field.astype(_U) << _U(mbits))
            | mant
        )
        zero = m == 0
        code = np.where(zero, sign << _U(self.bits - 1), code)
        inf_code = _U(((1 << self.ebits) - 1) << mbits)
        code = np.where(m == _U(0x7FF0000000000000), (sign << _U(self.bits - 1)) | inf_code, code)
        nan_code = _U(
            (1 << (self.bits - 1))
            | (((1 << self.ebits) - 1) << mbits)
            | (1 << (mbits - 1))
        )
        code = np.where(m > _U(0x7FF0000000000000), nan_code, code)
        return code.astype(_U)


class E4M3BitKernel(IEEEBitKernel):
    """Kernel for the OFP8 E4M3 format (1-4-3, bias 7, no infinities).

    The rounding grid matches a 1-4-3 IEEE format except in the top binade,
    where the all-ones exponent still encodes normal values and overflow
    resolves to NaN (or saturates) — that binade is special, so the policy
    lives entirely in the analytic resolver.
    """

    family = "e4m3"

    def __init__(self, resolve):
        # the top *encodable* binade is e = emax + 1 = 8 (exponent field 15
        # holds normals); its round-ups overflow to NaN/448, so it resolves
        # analytically and the inherited _keep_bits stopping at e = emax - 1
        # (like plain IEEE, whose top binade overflows to inf) is exactly
        # right here too
        super().__init__(4, 3, resolve)

    def decode(self, codes) -> np.ndarray:
        c = _as_code_array(codes, 8)
        sign = c >> _U(7)
        exp_field = (c >> _U(3)) & _U(0xF)
        mant = c & _U(0x7)
        vbits = ((exp_field + _U(1023 - self.bias_f)) << _U(52)) | (mant << _U(49))
        value = vbits.view(np.float64)  # fresh ufunc output: contiguous uint64
        sub = mant.astype(np.float64) * float(np.ldexp(1.0, -9))
        value = np.where(exp_field == 0, sub, value)
        value = np.where(sign == 1, -value, value)
        value = np.where((exp_field == _U(0xF)) & (mant == _U(0x7)), np.nan, value)
        return value

    def encode(self, values) -> np.ndarray:
        v = np.ascontiguousarray(values, dtype=np.float64)
        u = v.view(_U).reshape(v.shape)
        sign = u >> _U(63)
        m = u & _MAG64
        e = (m >> _U(52)).view(np.int64) - 1023
        exp_field = np.clip(e + self.bias_f, 0, 15)
        mant = (m & _MANT52) >> _U(49)
        sub_shift = np.clip(49 + (self.emin - e), 0, 63).astype(_U)
        sub_mant = ((m & _MANT52) | (_ONE << _U(52))) >> sub_shift
        subnormal = e < self.emin
        mant = np.where(subnormal, sub_mant, mant)
        exp_field = np.where(subnormal, np.int64(0), exp_field)
        code = (sign << _U(7)) | (exp_field.astype(_U) << _U(3)) | mant
        # E4M3 canonicalises -0.0 to the all-zeros code (no signed zero code)
        code = np.where(m == 0, _U(0), code)
        # canonical (only) NaN 0x7F; infinities cannot occur post-rounding
        code = np.where(m >= _U(0x7FF0000000000000), _U(0x7F), code)
        return code.astype(_U)


class PositBitKernel(BitKernel):
    """Kernel for posit formats (2022 standard layout, parametric ``es``).

    Serves every binade that retains at least one fraction bit (the
    ``k_lo..k_hi`` regime range of the analytic kernel); the extreme regimes
    — where the representable magnitudes stop forming a uniform grid — plus
    zeros and non-finite values go to the resolver, which applies the
    analytic extreme-region magnitude lists and minpos/maxpos saturation.
    """

    family = "posit"
    unsigned_zero = True

    def __init__(self, nbits: int, es: int, resolve):
        self.es = int(es)
        self._useed_exp = 1 << self.es
        super().__init__(nbits, resolve)

    def _keep_bits(self, e: int) -> Optional[int]:
        k = e // self._useed_exp
        regime_len = k + 2 if k >= 0 else 1 - k
        frac_bits = self.bits - 1 - regime_len - self.es
        return frac_bits if frac_bits >= 1 else None

    # -------------------------------------------------------------- #
    def decode(self, codes) -> np.ndarray:
        n = self.bits
        c = _as_code_array(codes, n)
        zero = c == 0
        nar = c == _U(1 << (n - 1))
        neg = (c >> _U(n - 1)) == _ONE
        body = np.where(neg, _U(1 << n) - c, c) & _U((1 << (n - 1)) - 1)
        first = (body >> _U(n - 2)) & _ONE
        inverted = np.where(first == _ONE, body ^ _U((1 << (n - 1)) - 1), body)
        run = np.int64(n - 1) - _bit_length_u64(inverted)
        k = np.where(first == _ONE, run - 1, -run)
        remaining = np.maximum(np.int64(n - 2) - run, 0)
        exp_bits = np.minimum(np.int64(self.es), remaining)
        exponent = (body >> (remaining - exp_bits).astype(_U)) & (
            (_ONE << exp_bits.astype(_U)) - _ONE
        )
        exponent = exponent.astype(np.int64) << (self.es - exp_bits)
        frac_bits = remaining - exp_bits
        frac = body & ((_ONE << frac_bits.astype(_U)) - _ONE)
        scale = k * self._useed_exp + exponent
        vbits = ((scale + 1023).astype(_U) << _U(52)) | (
            frac << (52 - frac_bits).astype(_U)
        )
        vbits = vbits | (neg.astype(_U) << _U(63))
        value = vbits.view(np.float64).reshape(c.shape)
        value = np.where(zero, 0.0, value)
        value = np.where(nar, np.nan, value)
        return value

    def encode(self, values) -> np.ndarray:
        n, es = self.bits, self.es
        v = np.ascontiguousarray(values, dtype=np.float64)
        u = v.view(_U).reshape(v.shape)
        m = u & _MAG64
        neg = (u >> _U(63)) == _ONE
        e = (m >> _U(52)).view(np.int64) - 1023
        k = np.floor_divide(e, self._useed_exp)
        exponent = (e - k * self._useed_exp).astype(_U)
        regime_len = np.where(k >= 0, k + 2, 1 - k)
        body_bits = n - 1
        # k >= 0: k+1 ones then a zero (regime run may fill the body at
        # maxpos); k < 0: -k zeros then a one
        regime_width = np.minimum(regime_len, body_bits).astype(_U)
        pattern_pos = ((_ONE << np.minimum(k + 1, body_bits).astype(_U)) - _ONE) << _ONE
        pattern_pos = np.where(regime_len > body_bits, (_ONE << _U(body_bits)) - _ONE, pattern_pos)
        regime_pattern = np.where(k >= 0, pattern_pos, _ONE)
        avail = (_U(body_bits) - regime_width).astype(np.int64)
        frac_bits = np.maximum(n - 1 - regime_len - es, 0)
        frac = (m & _MANT52) >> (52 - frac_bits).astype(_U)
        payload = (exponent << frac_bits.astype(_U)) | frac
        payload_width = np.int64(es) + frac_bits
        over = payload_width > avail
        payload = np.where(over, payload >> (payload_width - avail).astype(_U), payload)
        payload_width = np.where(over, avail, payload_width)
        body = (regime_pattern << avail.astype(_U)) | (
            payload << (avail - payload_width).astype(_U)
        )
        body = body & _U((1 << body_bits) - 1)
        code = np.where(neg, (_U(1 << n) - body) & _U((1 << n) - 1), body)
        code = np.where(m == 0, _U(0), code)
        code = np.where(m > _U(0x7FF0000000000000), _U(1 << (n - 1)), code)
        return code.astype(_U)


class TakumBitKernel(BitKernel):
    """Kernel for linear takum formats (Hunhold 2024 layout).

    Serves every binade whose characteristic lies strictly inside
    ``[-255, 254]`` and retains at least one mantissa bit; the boundary
    binades (where rounding can leave the representable range and must
    saturate at minpos/maxval), the truncated-characteristic binades of very
    narrow takums, and the specials go to the resolver.
    """

    family = "takum"
    unsigned_zero = True

    _C_MIN = -255
    _C_MAX = 254

    def _keep_bits(self, e: int) -> Optional[int]:
        if not self._C_MIN < e < self._C_MAX:
            return None
        r = (e + 1).bit_length() - 1 if e >= 0 else (-e).bit_length() - 1
        p = self.bits - 5 - r
        return p if p >= 1 else None

    # -------------------------------------------------------------- #
    def decode(self, codes) -> np.ndarray:
        n = self.bits
        c = _as_code_array(codes, n)
        zero = c == 0
        nar = c == _U(1 << (n - 1))
        sign = (c >> _U(n - 1)) & _ONE
        direction = (c >> _U(n - 2)) & _ONE
        regime = (c >> _U(n - 5)) & _U(0x7)
        r = np.where(direction == _ONE, regime, _U(7) - regime).astype(np.int64)
        tail_bits = n - 5
        tail = c & _U((1 << tail_bits) - 1)
        wide = tail_bits >= r  # characteristic fully present
        char_wide = np.where(
            r > 0, tail >> np.maximum(tail_bits - r, 0).astype(_U), _U(0)
        ).astype(np.int64)
        char_narrow = (tail.astype(np.int64)) << np.maximum(r - tail_bits, 0)
        characteristic = np.where(wide, char_wide, char_narrow)
        p = np.where(wide, tail_bits - r, 0)
        mant = np.where(
            wide & (p > 0), tail & ((_ONE << p.astype(_U)) - _ONE), _U(0)
        ).astype(np.int64)
        cval = np.where(
            direction == _ONE,
            (np.int64(1) << r) - 1 + characteristic,
            -(np.int64(2) << r) + 1 + characteristic,
        )
        # positive: (2^p + mant) * 2^(c - p)
        pos_bits = ((cval + 1023).astype(_U) << _U(52)) | (
            mant.astype(_U) << (52 - p).astype(_U)
        )
        # negative, mant == 0: -(2^-c); mant > 0: -(2^(p+1) - mant) * 2^(-c-1-p)
        neg_pow = ((1023 - cval).astype(_U) << _U(52))
        neg_frac = ((-cval - 1 + 1023).astype(_U) << _U(52)) | (
            ((np.int64(1) << p) - mant).astype(_U) << (52 - p).astype(_U)
        )
        vbits = np.where(sign == 0, pos_bits, np.where(mant == 0, neg_pow, neg_frac))
        vbits = vbits | (sign << _U(63))
        value = vbits.view(np.float64).reshape(c.shape)
        value = np.where(zero, 0.0, value)
        value = np.where(nar, np.nan, value)
        return value

    def encode(self, values) -> np.ndarray:
        n = self.bits
        v = np.ascontiguousarray(values, dtype=np.float64)
        u = v.view(_U).reshape(v.shape)
        m = u & _MAG64
        sign = (u >> _U(63)).astype(np.int64)
        e = (m >> _U(52)).view(np.int64) - 1023  # floor(log2 |v|), exact
        mant52 = (m & _MANT52).astype(np.int64)
        # (c, mantissa) from the logarithmic value l = (-1)^S (c + f/2^p)
        frac_zero = mant52 == 0
        c = np.where(sign == 0, e, np.where(frac_zero, -e, -e - 1))
        r = np.where(
            c >= 0,
            _bit_length_u64((c + 1).astype(_U)) - 1,
            _bit_length_u64((-c).astype(_U)) - 1,
        )
        tail_bits = n - 5
        p = tail_bits - r
        # mantissa field: f * 2^p for positives, (1 - f) * 2^p for negatives
        shift = np.clip(52 - p, 0, 63)
        mpos = mant52 >> shift
        mneg = np.where(frac_zero, np.int64(0), (np.int64(1) << np.maximum(p, 0)) - mpos)
        mfield = np.where(sign == 0, mpos, mneg)
        characteristic = np.where(
            c >= 0, c - ((np.int64(1) << r) - 1), c + (np.int64(2) << r) - 1
        )
        wide = p >= 0
        tail = np.where(
            wide,
            (characteristic << np.maximum(p, 0)) | mfield,
            characteristic >> np.maximum(r - tail_bits, 0),
        )
        direction = (c >= 0).astype(np.int64)
        regime = np.where(direction == 1, r, 7 - r)
        code = (
            (sign.astype(_U) << _U(n - 1))
            | (direction.astype(_U) << _U(n - 2))
            | (regime.astype(_U) << _U(n - 5))
            | (tail.astype(_U) & _U((1 << tail_bits) - 1))
        )
        code = np.where(m == 0, _U(0), code)
        # infinite inputs and NaN alike encode as NaR
        code = np.where(m >= _U(0x7FF0000000000000), _U(1 << (n - 1)), code)
        return code.astype(_U)


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
    this class contributes the word layout.  The family codecs only know
    the float64 word, so :attr:`supports_codec` is False and the 64-bit
    formats keep their per-element decode/encode.
    """

    WORD_EXP_BITS = 15
    WORD_BIAS = 16383
    WORD_FRAC_BITS = 63
    work_dtype = np.longdouble
    supports_codec = False

    def decode(self, codes) -> np.ndarray:
        raise NotImplementedError(
            "extended kernels have no vectorised codec; use the format's "
            "per-element decode"
        )

    def encode(self, values) -> np.ndarray:
        raise NotImplementedError(
            "extended kernels have no vectorised codec; use the format's "
            "per-element encode"
        )


class PositExtendedBitKernel(ExtendedBitKernel, PositBitKernel):
    """Posit kernel on the extended two-word layout (serves posit64)."""


class TakumExtendedBitKernel(ExtendedBitKernel, TakumBitKernel):
    """Takum kernel on the extended two-word layout (serves takum64)."""
