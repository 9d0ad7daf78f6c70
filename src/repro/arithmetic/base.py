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
import warnings
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
    "MAX_TABLE_BITS",
    "SCALAR_CUTOFF",
    "WIDE_SCALAR_CUTOFF",
    "LONGDOUBLE_EXTENDED",
    "require_extended_longdouble",
]

#: widest format the lookup-table engine will enumerate (2^15 positive
#: codes).  Lives here rather than in :mod:`repro.arithmetic.tables` so the
#: dispatch in :meth:`NumberFormat.round_scalar` can skip the table lookup
#: for formats that can never be table-served; re-exported by ``tables``.
MAX_TABLE_BITS = 16

#: memoised reference to repro.arithmetic.tables.table_for (set on first use;
#: the tables module imports this one, so a top-level import would be a cycle)
_TABLE_FOR = None

#: sentinel distinguishing 'bit kernel never built' from 'ineligible (None)'
_UNSET = object()

#: arrays up to this size round element-wise in pure Python when a lookup
#: table is available (a ``bisect`` over the table beats ~10 NumPy dispatch
#: round-trips on tiny arrays, the regime of the solvers' scalar Givens/QL
#: operations).  Re-exported by :mod:`repro.arithmetic.tables`.
SCALAR_CUTOFF = 8

#: arrays up to this size round element-wise through the pure-Python
#: analytic scalar kernels (:meth:`NumberFormat.round_scalar_analytic`) for
#: formats the table engine cannot serve (posit/takum/IEEE wider than 16
#: bits).  The wide vector kernels pay ~25 NumPy dispatch round-trips
#: (~35 us) regardless of size while a scalar call costs ~1.5 us, so the
#: break-even sits near 24 elements.
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

_LONGDOUBLE_WARNED = False


#: deferred dispatch tallies, ``(format, path) -> [calls, elements]``.
#: ``round_array`` sits on the contexts' array hot path where even one
#: registry lookup (label canonicalisation + lock) per call blows the ≤2%
#: telemetry budget of ``benchmarks/bench_telemetry.py``; a plain-dict
#: increment costs ~0.2µs and the registry drains the tally at read time
#: (see :meth:`repro.telemetry.MetricsRegistry.register_flusher`).
_dispatch_tally: dict[tuple[str, str], list] = {}


def _count_dispatch(fmt: "NumberFormat", path: str, n: int) -> None:
    """Tally one vector rounding dispatch decision (caller checks ENABLED)."""
    key = (fmt.name, path)
    entry = _dispatch_tally.get(key)
    if entry is None:
        entry = _dispatch_tally[key] = [0, 0]
    entry[0] += 1
    entry[1] += n


def _flush_dispatch_tally(discard: bool = False) -> None:
    """Drain the deferred tallies into the registry (or drop on reset)."""
    for (fmt_name, path), entry in _dispatch_tally.items():
        calls, elements = entry[0], entry[1]
        if calls and not discard:
            _metrics.counter("rounding.dispatch", format=fmt_name, path=path).inc(calls)
        if elements and not discard:
            _metrics.counter("rounding.elements", format=fmt_name, path=path).inc(elements)
        entry[0] -= calls
        entry[1] -= elements


_metrics.register_flusher(_flush_dispatch_tally)


def require_extended_longdouble(format_name: str) -> bool:
    """Check the extended-precision capability for ``format_name``.

    Returns ``True`` when ``numpy.longdouble`` is wider than float64; emits
    a single ``RuntimeWarning`` and returns ``False`` otherwise.

    Retained for external callers that want the loud capability probe; the
    64-bit posit/takum formats no longer call it — they degrade cleanly to
    a float64 work dtype (served bit-exactly by the one-word kernels)
    instead of warning about a precision they silently lost.
    """
    global _LONGDOUBLE_WARNED
    if LONGDOUBLE_EXTENDED:
        return True
    if not _LONGDOUBLE_WARNED:
        _LONGDOUBLE_WARNED = True
        warnings.warn(
            f"numpy.longdouble on this platform is plain float64, so the "
            f"extended-precision work arithmetic of {format_name!r} (and the "
            "other 64-bit posit/takum formats) loses precision below the "
            "52nd significand bit; 64-bit emulated results will not be "
            "bit-accurate here.  Use an x86 Linux/macOS build for the "
            "64-bit format experiments.",
            RuntimeWarning,
            stacklevel=3,
        )
    return False


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

    Subclasses must provide bit-level ``decode_code``/representable-value
    enumeration and a vectorised :meth:`round_array_analytic`.  All formats
    share the conventions:

    * NaN in value space represents the format's NaN/NaR,
    * ``numpy.inf`` is only produced by formats that have infinities,
    * rounding is round-to-nearest with ties to the even code.

    Formats of up to 16 bits that declare :meth:`table_semantics` are served
    by the shared lookup-table engine (:mod:`repro.arithmetic.tables`) for
    :meth:`round_array`, :meth:`encode` and :meth:`decode`; the analytic
    implementations remain the ground truth the tables are verified against.

    Formats the table engine cannot serve (wider than 16 bits) may declare a
    pure-Python scalar kernel instead (:attr:`has_scalar_kernel` /
    :meth:`round_scalar_analytic`): :meth:`round_array` then routes arrays of
    up to :attr:`scalar_cutoff` elements — the regime of the solvers'
    elementwise Givens/QL operations — through the scalar kernel, which
    skips the ~25 NumPy dispatch round-trips of the vector kernels.  The
    scalar kernels are verified bit-identical to :meth:`round_array_analytic`
    by the sweeps in ``tests/test_scalar_rounding.py``.

    Both fast backends can be bypassed for verification, from coarse to
    fine: the ``REPRO_DISABLE_ROUNDING_TABLES=1`` environment variable and
    :func:`repro.arithmetic.tables.set_enabled` disable the table engine
    process-wide, and ``get_context(name, use_tables=False)`` forces one
    context onto the analytic *vector* kernels for arrays and scalars
    alike, bypassing the scalar kernels as well (``use_tables=True``
    forces the tables even when globally disabled).
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
    #: whether :meth:`round_scalar_analytic` implements a fast scalar kernel
    #: (as opposed to the default fallback through the vector kernel)
    has_scalar_kernel: bool = False
    #: largest array size :meth:`round_array` routes through the scalar
    #: kernel when no lookup table serves the format; 0 disables the scalar
    #: dispatch (formats whose vector kernel is a plain dtype cast)
    scalar_cutoff: int = WIDE_SCALAR_CUTOFF
    #: the same cutoff when an integer bit kernel serves the format: the
    #: kernel's fixed dispatch cost (~20 us) undercuts the analytic vector
    #: chain (~80 us), which moves the scalar-loop break-even down from ~24
    #: to ~12 elements
    bitkernel_scalar_cutoff: int = 12

    # ------------------------------------------------------------------ #
    # lookup-table backend
    # ------------------------------------------------------------------ #
    def table_semantics(self):
        """Describe this format to the shared lookup-table rounding engine.

        Returns a :class:`repro.arithmetic.tables.TableSemantics` for formats
        the engine can serve, ``None`` (the default) otherwise.
        """
        return None

    def _rounding_table(self):
        """The active :class:`~repro.arithmetic.tables.ValueTable`, if any."""
        # tables imports this module, so the reference is resolved lazily —
        # but only once: this sits on the per-scalar rounding path, where a
        # per-call ``from . import tables`` is measurable
        global _TABLE_FOR
        if _TABLE_FOR is None:
            from .tables import table_for as _table_for

            _TABLE_FOR = _table_for
        return _TABLE_FOR(self)

    @property
    def table_backed(self) -> bool:
        """Whether the lookup-table engine currently serves this format."""
        return self._rounding_table() is not None

    # ------------------------------------------------------------------ #
    # integer bit-twiddling backend
    # ------------------------------------------------------------------ #
    #: whether the bit kernel should replace the lookup-table *rounding*
    #: path at vector sizes (set by formats whose table kernel is a
    #: 2^15-entry searchsorted, which the integer kernel beats; the 8-bit
    #: direct-indexed table stays faster and keeps the table path)
    prefer_bitkernel_rounding = False

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
        return kern

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
            lookup-table engine when it covers this format, otherwise by a
            per-element :meth:`decode_code` loop.
        """
        table = self._rounding_table()
        if table is not None:
            return table.decode_values(codes)
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
        table = self._rounding_table()
        if table is not None:
            # round through whichever backend this format prefers (the 16-bit
            # IEEE formats keep the cheaper analytic quantum rounding), then
            # encode the representable results through the table
            return table.encode_representable(self.round_array(values))
        kern = self.bitkernel()
        if kern is not None and kern.supports_codec:
            return kern.encode(self.round_array(values))
        return self.encode_analytic(values)

    @abstractmethod
    def encode_analytic(self, values) -> np.ndarray:
        """Analytic (table-free) implementation of :meth:`encode`."""

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

        Dispatches by (format width, array size):

        * tiny arrays (the solvers' elementwise Givens/QL regime) round
          element-wise through the scalar paths — the lookup-table
          ``bisect`` kernel or the format's pure-Python scalar kernel;
        * table-served formats (<= 16 bits) route through the lookup-table
          engine whenever it prefers the size, unless the format marks
          :attr:`prefer_bitkernel_rounding` (the 16-bit tapered formats,
          whose 2^15-entry ``searchsorted`` loses to the integer kernel);
        * formats with an integer bit kernel
          (:mod:`repro.arithmetic.bitkernels`) route through it;
        * everything else falls through to the vectorised
          :meth:`round_array_analytic` ground truth.
        """
        table = self._rounding_table()
        values = np.asarray(values, dtype=self.work_dtype)
        n = values.size
        if table is not None:
            if table.prefers_rounding(n) and not (
                self.prefer_bitkernel_rounding
                and n > SCALAR_CUTOFF
                and self.bitkernel() is not None
            ):
                if _telemetry.ENABLED:
                    _count_dispatch(self, "table", n)
                return table.round_values(values, out=out)
            kern = self.bitkernel()
        else:
            kern = self.bitkernel()
            if self.has_scalar_kernel and n <= (
                self.scalar_cutoff if kern is None else self.bitkernel_scalar_cutoff
            ):
                if _telemetry.ENABLED:
                    _count_dispatch(self, "scalar_kernel", n)
                return self._round_small_array(values, out=out)
        if kern is not None:
            if _telemetry.ENABLED:
                _count_dispatch(self, "bitkernel", n)
            return kern.round(values, out=out)
        if _telemetry.ENABLED:
            _count_dispatch(self, "analytic", n)
        res = self.round_array_analytic(values)
        if out is not None:
            out[...] = res
            return out
        return res

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
        """Analytic (table-free) implementation of :meth:`round_array`.

        Kept as the bit-level ground truth that the lookup-table engine and
        the scalar kernels are verified against; also serves large arrays of
        formats wider than 16 bits."""

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

        The default implementation falls back to the vector kernel; formats
        that set :attr:`has_scalar_kernel` override it with a pure-Python
        (``math.frexp``/``math.ldexp``) kernel that skips NumPy dispatch.
        """
        return self.round_array_analytic(
            np.asarray([value], dtype=self.work_dtype)
        )[0]

    def round_scalar(self, value: float) -> float:
        """Round a single scalar without an ndarray round-trip.

        Routes through the lookup-table scalar path when the table engine
        serves this format, through :meth:`round_scalar_analytic` when a
        scalar kernel exists, and falls back to the vector kernel otherwise.
        Returns a Python float (wide extended-precision formats lose the
        sub-float64 bits here; use :meth:`round_scalar_analytic` to keep the
        work precision).
        """
        if self.bits <= MAX_TABLE_BITS:
            table = self._rounding_table()
            if table is not None:
                return table.round_one(float(value))
        return float(self.round_scalar_analytic(value))

    def convert(self, values) -> tuple[np.ndarray, RoundingInfo]:
        """Convert ``values`` into the format, reporting range diagnostics.

        Used when casting an input matrix into the target arithmetic; the
        returned :class:`RoundingInfo` feeds the ∞σ ("dynamic range of matrix
        entries exceeded") failure flag of the experiments.
        """
        values = np.asarray(values, dtype=self.work_dtype)
        rounded = self.round_array(values)
        finite_nonzero = np.isfinite(values) & (values != 0)
        overflowed = int(np.count_nonzero(finite_nonzero & ~np.isfinite(rounded)))
        underflowed = int(np.count_nonzero(finite_nonzero & (rounded == 0)))
        saturated = 0
        if self.saturating:
            max_mag = self.max_value
            min_mag = self.min_positive
            saturated_high = np.count_nonzero(
                finite_nonzero & (np.abs(rounded) == max_mag) & (np.abs(values) > max_mag)
            )
            saturated_low = np.count_nonzero(
                finite_nonzero & (np.abs(rounded) == min_mag) & (np.abs(values) < min_mag)
            )
            saturated = int(saturated_high + saturated_low)
        return rounded, RoundingInfo(overflowed, underflowed, saturated)

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
