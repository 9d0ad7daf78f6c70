"""Abstract base class and shared helpers for machine-number formats.

A :class:`NumberFormat` describes a finite set of representable real values
(plus special values such as NaN/NaR and, for IEEE-style formats, signed
infinities).  The formats operate in *value space*: arrays hold work-precision
floating-point numbers (``float64`` or ``numpy.longdouble``) whose values are
exactly representable in the emulated format.  Rounding an arbitrary
work-precision array onto that set is the performance-critical primitive
(:meth:`NumberFormat.round_array`); bit-level encode/decode is provided for
storage, interchange and testing.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import weakref
from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from . import bitkernels as _bitkernels
from ..telemetry import core as _telemetry
from ..telemetry.metrics import metrics as _metrics

__all__ = [
    "NumberFormat",
    "RoundingInfo",
    "round_to_quantum",
    "nearest_in_table",
    "nearest_in_table_scalar",
    "SCALAR_CUTOFF",
    "WIDE_SCALAR_CUTOFF",
    "LONGDOUBLE_EXTENDED",
]

#: sentinel distinguishing 'bit kernel never built' from 'ineligible (None)'
_UNSET = object()

#: scalar-kernel cutoff of the 64-bit tapered formats in longdouble: their
#: analytic scalar kernel runs on NumPy longdouble scalars and pays NumPy
#: scalar dispatch (~4 us/element), which moves its break-even against the
#: analytic vector kernel down to ~8 elements
SCALAR_CUTOFF = 8

#: arrays up to this size round element-wise through the pure-Python
#: analytic scalar kernels (:meth:`NumberFormat.round_scalar_analytic`)
#: instead of the analytic vector kernels: when no bit kernel serves the
#: format, and for the infinities and NaN a bit kernel hands back.  The analytic
#: vector kernels pay ~25 NumPy dispatch round-trips (~35 us) regardless of
#: size while a scalar call costs ~1.5 us, so the break-even sits near 24
#: elements.
WIDE_SCALAR_CUTOFF = 24

#: whether ``numpy.longdouble`` carries more significand bits than float64
#: on this platform.  On Windows and most ARM builds longdouble *is*
#: float64; the 64-bit posit/takum formats then construct with a float64
#: work dtype (their one-word bit kernels serve them there, with identity
#: binades where the format grid is finer than float64's) instead of
#: pretending to an extended precision the platform cannot deliver.  The
#: tests that need genuine extended precision skip via the capability
#: marker in ``tests/conftest.py``; the forced-fallback tests simulate the
#: degraded platforms by monkeypatching this flag before constructing a
#: format.
LONGDOUBLE_EXTENDED = np.finfo(np.longdouble).nmant > np.finfo(np.float64).nmant


#: the analytic rounding paths :meth:`NumberFormat.round_array` tallies
#: in Python, in the order of their ``[calls, elements]`` pairs in a
#: dispatch cell (the ``bitkernel`` path is tallied by the compiled kernel)
_DISPATCH_PATHS = ("scalar_kernel", "analytic")

#: deferred dispatch tallies, ``format name -> cell``: one flat list of
#: ``[calls, elements]`` per path in :data:`_DISPATCH_PATHS` order.
#: ``round_array`` sits on the contexts' array hot path where even one
#: registry lookup (label canonicalisation + lock) per call blows the ≤2%
#: telemetry budget of ``benchmarks/bench_telemetry.py``; each format holds
#: its cell (:attr:`NumberFormat._dispatch_cell`), so a call costs two list
#: increments, and the registry drains the cells at read time (see
#: :meth:`repro.telemetry.MetricsRegistry.register_flusher`).
_dispatch_tally: dict[str, list] = {}

#: ``(format name, weak reference)`` of every bit kernel built: each keeps
#: its ``[calls, elements, handed_back, zeros]`` tallies in its compiled
#: object, which the flusher drains into the ``bitkernel`` dispatch path
#: and the ``bitkernel.*`` counters
_kernels: list[tuple[str, weakref.ref]] = []


def _flush_dispatch_tally(discard: bool = False) -> None:
    """Drain the deferred tallies into the registry (or drop on reset)."""
    for fmt_name, cell in _dispatch_tally.items():
        for i, path in enumerate(_DISPATCH_PATHS):
            calls, elements = cell[2 * i], cell[2 * i + 1]
            if calls and not discard:
                _metrics.counter("rounding.dispatch", format=fmt_name, path=path).inc(calls)
            if elements and not discard:
                _metrics.counter("rounding.elements", format=fmt_name, path=path).inc(elements)
            cell[2 * i] -= calls
            cell[2 * i + 1] -= elements
    live = []
    for fmt_name, ref in _kernels:
        kern = ref()
        if kern is None:
            continue
        live.append((fmt_name, ref))
        calls, elements, handed_back, zeros = kern.compiled.take_counts()
        if discard or not calls:
            continue
        _metrics.counter("rounding.dispatch", format=fmt_name, path="bitkernel").inc(calls)
        if elements:
            _metrics.counter("rounding.elements", format=fmt_name, path="bitkernel").inc(elements)
        for name, count in (
            ("bitkernel.elements", elements),
            ("bitkernel.lut_fallback", handed_back),
            ("bitkernel.zero_peeled", zeros),
        ):
            if count:
                _metrics.counter(name, family=kern.family, bits=kern.bits).inc(count)
    _kernels[:] = live


_metrics.register_flusher(_flush_dispatch_tally)

#: formats whose kernel is bound (:attr:`NumberFormat._bound_kernel`), by id
_bound: "weakref.WeakValueDictionary[int, NumberFormat]" = weakref.WeakValueDictionary()


def _unbind_kernels() -> None:
    """Drop every bound kernel, so the next call binds per the switch."""
    for fmt in list(_bound.values()):
        fmt.__dict__.pop("_bound_kernel", None)
        fmt.__dict__.pop("_round_one", None)
    _bound.clear()


_bitkernels._switch_hooks.append(_unbind_kernels)


def _hand_back(value) -> None:
    """Scalar entry of a format no bit kernel serves: hands every value
    back to the analytic scalar kernel."""
    return None


@dataclasses.dataclass
class RoundingInfo:
    """Diagnostics of a conversion into a target format.

    Attributes
    ----------
    overflowed:
        Number of finite non-zero inputs that became non-finite (infinity or
        NaN) because the magnitude exceeded the format's dynamic range.
    underflowed:
        Number of finite non-zero inputs that were flushed to zero because the
        magnitude fell below the smallest representable positive value.
    saturated:
        Number of finite non-zero inputs clamped to the largest/smallest
        representable magnitude (tapered formats saturate instead of
        overflowing).
    """

    overflowed: int = 0
    underflowed: int = 0
    saturated: int = 0

    @property
    def range_exceeded(self) -> bool:
        """True when the input's dynamic range did not fit the format."""
        return self.overflowed > 0 or self.underflowed > 0


def round_to_quantum(x: np.ndarray, quantum: np.ndarray) -> np.ndarray:
    """Round ``x`` to the nearest integer multiple of ``quantum``.

    Parameters
    ----------
    x:
        Values to round (any float dtype, broadcastable with ``quantum``).
    quantum:
        Per-element rounding grain.  Must consist of powers of two so that
        the division and multiplication are exact.

    Returns
    -------
    numpy.ndarray
        Nearest multiples; ties are resolved towards the even multiple
        (``numpy.rint`` semantics), which coincides with round-half-to-even
        on the retained significand bit.
    """
    return np.rint(x / quantum) * quantum


def nearest_in_table(
    a: np.ndarray,
    magnitudes: np.ndarray,
    codes: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Round non-negative values ``a`` to the nearest entry of ``magnitudes``.

    Parameters
    ----------
    a:
        Non-negative finite values (any float dtype).
    magnitudes:
        Sorted (ascending) array of representable non-negative magnitudes.
    codes:
        Optional array of integer codes parallel to ``magnitudes``; when
        given, exact ties between two neighbouring magnitudes are resolved
        towards the entry with an even code (ties-to-even encoding), otherwise
        ties resolve towards the smaller magnitude.

    Returns
    -------
    numpy.ndarray
        Array of indices into ``magnitudes``.
    """
    a = np.asarray(a)
    hi = np.searchsorted(magnitudes, a, side="left")
    hi = np.clip(hi, 0, len(magnitudes) - 1)
    lo = np.clip(hi - 1, 0, len(magnitudes) - 1)
    d_hi = np.abs(magnitudes[hi] - a)
    d_lo = np.abs(a - magnitudes[lo])
    take_lo = d_lo < d_hi
    tie = d_lo == d_hi
    if codes is not None:
        lo_even = (codes[lo] % 2) == 0
        take_lo = take_lo | (tie & lo_even)
    else:
        take_lo = take_lo | tie
    return np.where(take_lo, lo, hi)


def nearest_in_table_scalar(a, magnitudes, codes=None) -> int:
    """Scalar twin of :func:`nearest_in_table` for one non-negative value.

    Parameters
    ----------
    a:
        One non-negative finite value (Python float or work-dtype scalar).
    magnitudes:
        Sorted (ascending) sequence of representable non-negative magnitudes
        (a plain list for float64 work precision, a NumPy array for
        ``longdouble`` so that the distance arithmetic keeps the extended
        precision).
    codes:
        Optional parallel sequence of integer codes; ties resolve towards the
        even code exactly as in the vector kernel, otherwise towards the
        smaller magnitude.

    Returns
    -------
    int
        Index of the nearest entry.  Every comparison mirrors the vector
        kernel operation for operation (Python floats are the same IEEE
        doubles NumPy uses), so the result is bit-identical.
    """
    last = len(magnitudes) - 1
    hi = bisect.bisect_left(magnitudes, a)
    if hi > last:
        hi = last
    lo = hi - 1 if hi > 0 else 0
    d_hi = abs(magnitudes[hi] - a)
    d_lo = abs(a - magnitudes[lo])
    if d_lo < d_hi:
        return lo
    if d_lo == d_hi and (codes[lo] % 2 == 0 if codes is not None else True):
        return lo
    return hi


class NumberFormat(ABC):
    """A machine-number format emulated in software.

    Subclasses must provide the bit layout (``decode_code`` and
    ``_encode_scalar``) and a vectorised :meth:`round_array_analytic`; the
    tapered formats get the latter from
    :class:`~repro.arithmetic.tapered.TaperedFormat`.  All formats share
    the conventions:

    * NaN in value space represents the format's NaN/NaR,
    * ``numpy.inf`` is only produced by formats that have infinities,
    * rounding is round-to-nearest with ties to the even code.

    :meth:`round_array` has one rule.  Arrays of every size round through
    the format's compiled integer bit kernel
    (:mod:`repro.arithmetic.bitkernels`), bound once per format
    (:attr:`_bound_kernel`); the contexts round scalars through its scalar
    entry (:attr:`_round_one`).  Formats no bit kernel serves round through
    their analytic kernels: arrays of up to :attr:`scalar_cutoff` elements
    element-wise through the pure-Python scalar kernel
    (:meth:`round_scalar_analytic`), larger ones through the vectorised
    :meth:`round_array_analytic` ground truth.  The bit kernels also serve
    :meth:`encode` and :meth:`decode`.  The kernels are verified
    bit-identical to the analytic ones by the sweeps in
    ``tests/test_scalar_rounding.py`` and ``tests/test_bitkernels.py``
    (every value and every tie of every format up to 16 bits).

    The format alone decides how a value rounds; the one opt-out is
    ``REPRO_DISABLE_BITKERNELS=1`` (or, at runtime,
    :func:`repro.arithmetic.set_bitkernels_enabled`), which turns the bit
    kernels off process-wide so every format rounds through its analytic
    kernels.
    """

    #: short identifier, e.g. ``"posit16"``
    name: str = "abstract"
    #: storage width in bits
    bits: int = 0
    #: work dtype used in value space (float64 or longdouble)
    work_dtype: type = np.float64
    #: whether the format has signed infinities
    has_infinity: bool = False
    #: whether out-of-range magnitudes saturate (tapered formats) instead of
    #: overflowing to infinity/NaN
    saturating: bool = False
    #: largest array the analytic path rounds element-wise through the
    #: scalar kernel (when no bit kernel serves the format, and for the
    #: infinities and NaN a bit kernel hands back); 0 disables the scalar dispatch
    #: (formats whose vector kernel is a plain dtype cast)
    scalar_cutoff: int = WIDE_SCALAR_CUTOFF

    @functools.cached_property
    def _dispatch_cell(self) -> list:
        """This format's dispatch tally cell (shared by formats of one name)."""
        return _dispatch_tally.setdefault(self.name, [0] * (2 * len(_DISPATCH_PATHS)))

    # ------------------------------------------------------------------ #
    # integer bit-twiddling backend
    # ------------------------------------------------------------------ #
    def _build_bitkernel(self):
        """Construct the family's :class:`~repro.arithmetic.bitkernels.BitKernel`
        (``None`` by default: no integer kernel serves this format)."""
        return None

    def bitkernel(self):
        """The active integer bit kernel for this format, or ``None``.

        Built lazily once per format instance; gated on the global
        :func:`repro.arithmetic.bitkernels.set_enabled` switch.  The format
        picks the kernel flavour in :meth:`_build_bitkernel`: float64-work
        formats get the one-word kernels, the extended-precision 64-bit
        posit/takum formats get the two-word kernels operating on the
        80-bit longdouble memory layout (``None`` on hosts whose longdouble
        is neither that layout nor plain float64).
        """
        if not _bitkernels.bitkernels_enabled():
            return None
        kern = self.__dict__.get("_bitkernel_obj", _UNSET)
        if kern is _UNSET:
            kern = self._build_bitkernel()
            self._bitkernel_obj = kern
            if kern is not None:
                _kernels.append((self.name, weakref.ref(kern)))
        return kern

    @functools.cached_property
    def _bound_kernel(self):
        """The bit kernel :meth:`round_array` rounds through, bound on first
        use (``None``: the analytic kernels round).  Flipping the bit-kernel
        switch drops the binding, so the next call binds per the switch."""
        _bound[id(self)] = self
        return self.bitkernel()

    @functools.cached_property
    def _round_one(self):
        """The compiled scalar entry of :attr:`_bound_kernel`: the rounded
        work-dtype scalar, or ``None`` for a value the analytic scalar
        kernel must round (an infinity or NaN; every value when no bit
        kernel is bound)."""
        kern = self._bound_kernel
        return _hand_back if kern is None else kern.round_one

    def _enumerate_magnitudes(self, kern=None) -> tuple[np.ndarray, np.ndarray]:
        """Every finite non-negative magnitude of the format, ascending, and
        its code (``int64``): the magnitude lists the finite rule and the
        scalar and analytic kernels of the narrow formats search.

        Decodes the sign-clear half of the code space, where every family
        keeps its non-negative values, through the vectorised decode of
        ``kern`` (default: :meth:`bitkernel`) when a bit kernel serves the
        format (a handful of integer passes), otherwise code by code
        through :meth:`decode_code`; the exhaustive decode sweeps of
        ``tests/test_bitkernels.py`` prove the two equal.
        """
        codes = np.arange(1 << (self.bits - 1), dtype=np.int64)
        if kern is None:
            kern = self.bitkernel()
        if kern is not None and kern.supports_codec:
            values = np.asarray(kern.decode(codes.astype(np.uint64)), dtype=np.float64)
        else:
            values = np.array([float(self.decode_code(c)) for c in codes.tolist()])
        finite = np.isfinite(values)
        mags, codes = values[finite], codes[finite]
        order = np.argsort(mags)
        return mags[order], codes[order]

    def _ensure_table(self, kern=None) -> None:
        """Enumerate the magnitude table (``_magnitudes``, ``_codes``) once.

        A bit kernel being built passes itself (``kern``): its finite rule
        reads the table, which it enumerates through its own decode.
        Otherwise the format's kernel is built first (enumerating the table
        for its rule), and the table is decoded without it only when no
        kernel serves the format.
        """
        if self._magnitudes is None and kern is None:
            self.bitkernel()
        if self._magnitudes is None:
            self._magnitudes, self._codes = self._enumerate_magnitudes(kern)

    # ------------------------------------------------------------------ #
    # bit-level interface
    # ------------------------------------------------------------------ #
    @abstractmethod
    def decode_code(self, code: int) -> float:
        """Decode a single integer code into its work-precision value.

        NaN/NaR codes decode to ``nan``; infinity codes (if any) to ``inf``.
        """

    def decode(self, codes) -> np.ndarray:
        """Vectorised decode of an array of integer codes.

        Parameters
        ----------
        codes:
            Integer codes (any shape; converted to ``uint64``).

        Returns
        -------
        numpy.ndarray
            Work-precision values, same shape as ``codes``.  Served by the
            bit kernel's vectorised decode when one serves this format,
            otherwise by a per-element :meth:`decode_code` loop.
        """
        kern = self.bitkernel()
        if kern is not None and kern.supports_codec:
            return kern.decode(codes)
        codes = np.asarray(codes, dtype=np.uint64)
        out = np.empty(codes.shape, dtype=self.work_dtype)
        flat = codes.ravel()
        res = out.ravel()
        for i in range(flat.size):
            res[i] = self.decode_code(int(flat[i]))
        return out

    def encode(self, values) -> np.ndarray:
        """Encode work-precision values into integer codes (nearest).

        Parameters
        ----------
        values:
            Work-precision values (any shape).

        Returns
        -------
        numpy.ndarray
            ``uint64`` codes, same shape as ``values``; each value is first
            rounded through :meth:`round_array`, then encoded (non-canonical
            NaNs collapse to the canonical NaN/NaR code).
        """
        kern = self.bitkernel()
        if kern is not None and kern.supports_codec:
            return kern.encode(self.round_array(values))
        return self.encode_analytic(values)

    def encode_analytic(self, values) -> np.ndarray:
        """Analytic (kernel-free) implementation of :meth:`encode`: round
        through :meth:`round_array_analytic`, then emit each element's code
        through :meth:`_encode_scalar`.  Returns ``uint64`` codes of the
        same shape as ``values``."""
        rounded = self.round_array_analytic(np.asarray(values, dtype=self.work_dtype))
        out = np.zeros(rounded.shape, dtype=np.uint64)
        res = out.ravel()
        for i, v in enumerate(rounded.ravel()):
            res[i] = self._encode_scalar(v)
        return out

    @abstractmethod
    def _encode_scalar(self, v) -> int:
        """Code of one work-precision value that is already representable
        in the format (NaN encodes as the canonical NaN/NaR code)."""

    # ------------------------------------------------------------------ #
    # value-space interface
    # ------------------------------------------------------------------ #
    def round_array(self, values, *, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Round an array of work-precision values to the nearest
        representable values of this format (returned in work precision).

        Parameters
        ----------
        values:
            Work-precision values (any shape).
        out:
            Optional pre-allocated work-dtype array of the same shape the
            result is written into; ``out`` may alias ``values``, which is
            how the contexts round operation results in place instead of
            allocating a second array per elementary op.  Returned when
            given.  Keyword-only under the unified signature contract
            (``docs/api.md``).

        Arrays of every size round through the compiled bit kernel
        (:mod:`repro.arithmetic.bitkernels`), which tallies its own
        telemetry.  Without one (no kernel for the format, or the kernels
        globally disabled), arrays of up to
        :attr:`scalar_cutoff` elements round element-wise through the
        pure-Python scalar kernel and larger ones through the vectorised
        :meth:`round_array_analytic` ground truth.
        """
        kern = self._bound_kernel
        if kern is not None:
            return kern.round(values, out)
        values = np.asarray(values, dtype=self.work_dtype)
        if _telemetry.ENABLED:
            cell = self._dispatch_cell
            path = 0 if values.size <= self.scalar_cutoff else 2
            cell[path] += 1
            cell[path + 1] += values.size
        return self._round_kernel_specials(values, out)

    def _round_kernel_specials(self, values: np.ndarray, out=None) -> np.ndarray:
        """Round ``values`` without a bit kernel (into ``out`` when given):
        element-wise through the scalar kernel up to :attr:`scalar_cutoff`
        elements, the scalar/analytic break-even, else through
        :meth:`round_array_analytic`.  Rounds the arrays of formats no
        kernel serves (and every array with the bit-kernel switch off),
        where most calls carry only a few elements and one analytic call
        (~40 us fixed) costs far more than the scalar loop.  A bound bit
        kernel rounds every finite value itself (its finite rule restates
        these kernels in C) and hands only infinities and NaN to this
        resolver."""
        if values.size <= self.scalar_cutoff:
            return self._round_small_array(values, out=out)
        res = self.round_array_analytic(values)
        if out is None:
            return res
        out[...] = res
        return out

    def _round_small_array(self, values: np.ndarray, out=None) -> np.ndarray:
        """Round a tiny array element-wise through the scalar kernel."""
        if out is None:
            out = np.empty(values.shape, dtype=self.work_dtype)
        flat = out.flat  # flatiter: assignment works for any memory layout
        kernel = self.round_scalar_analytic
        for i, v in enumerate(values.flat):
            flat[i] = kernel(v)
        return out

    @abstractmethod
    def round_array_analytic(self, values) -> np.ndarray:
        """Analytic (kernel-free) implementation of :meth:`round_array`.

        Kept as the bit-level ground truth that the bit kernels and the
        scalar kernels are verified against; also resolves the infinities
        and NaN the bit kernels hand back, and serves large arrays of
        formats without a bit kernel."""

    def round_scalar_analytic(self, value):
        """Scalar twin of :meth:`round_array_analytic` for one value.

        Parameters
        ----------
        value:
            One work-precision value (Python float or work-dtype scalar).

        Returns
        -------
        A work-precision scalar (Python float for float64 formats, a
        ``numpy.longdouble`` scalar for extended-precision formats),
        bit-identical to what the vector kernel produces for the same input.

        The default implementation falls back to the vector kernel; every
        format family overrides it with a pure-Python
        (``math.frexp``/``math.ldexp``) kernel that skips NumPy dispatch.
        """
        return self.round_array_analytic(
            np.asarray([value], dtype=self.work_dtype)
        )[0]

    def round_scalar(self, value: float) -> float:
        """Round a single scalar without an ndarray round-trip.

        Always the format's :meth:`round_scalar_analytic`.  Returns a
        Python float (wide extended-precision formats lose the sub-float64
        bits here; use :meth:`round_scalar_analytic` to keep the work
        precision).
        """
        return float(self.round_scalar_analytic(value))

    # ------------------------------------------------------------------ #
    # metadata
    # ------------------------------------------------------------------ #
    @property
    @abstractmethod
    def max_value(self) -> float:
        """Largest finite representable magnitude."""

    @property
    @abstractmethod
    def min_positive(self) -> float:
        """Smallest positive representable magnitude."""

    @property
    def machine_epsilon(self) -> float:
        """Distance between 1 and the next representable value above 1.

        Memoised on the instance: formats without a closed form probe the
        value via repeated :meth:`round_array` calls, which would otherwise
        re-run on every access.
        """
        eps = self.__dict__.get("_machine_epsilon")
        if eps is None:
            eps = float(self._compute_machine_epsilon())
            self._machine_epsilon = eps
        return eps

    def _compute_machine_epsilon(self) -> float:
        """Probe the spacing above 1.0; overridden with closed forms by the
        concrete formats."""
        one = np.asarray([1.0], dtype=self.work_dtype)
        nxt = self.round_array(one * (1.0 + 2.0 ** (-self.bits)))
        if float(nxt[0]) > 1.0:
            return float(nxt[0]) - 1.0
        # search upward in coarse steps until a representable value above one
        # is found (always terminates: 2.0 is representable in every format)
        step = 2.0 ** (-self.bits)
        while True:
            step *= 2.0
            cand = self.round_array(np.asarray([1.0 + step], dtype=self.work_dtype))
            if float(cand[0]) > 1.0:
                return float(cand[0]) - 1.0

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<{type(self).__name__} {self.name!r} ({self.bits} bits)>"

    def __eq__(self, other) -> bool:
        return isinstance(other, NumberFormat) and other.name == self.name

    def __hash__(self) -> int:
        return hash(self.name)
