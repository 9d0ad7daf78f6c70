"""Abstract base class and shared helpers for machine-number formats.

A :class:`NumberFormat` describes a finite set of representable real values
(plus special values such as NaN/NaR and, for IEEE-style formats, signed
infinities).  The formats operate in *value space*: arrays hold work-precision
floating-point numbers (``float64`` or ``numpy.longdouble``) whose values are
exactly representable in the emulated format.  Rounding an arbitrary
work-precision array onto that set is the performance-critical primitive
(:meth:`NumberFormat.round_array`).  Each family states its bit layout
once, as a vectorised :meth:`NumberFormat.decode`/:meth:`NumberFormat.encode`
pair over integer codes and work-precision values of every width and work
dtype; the formats of at most 16 bits also enumerate the magnitude table
their rounding rule searches through it (:attr:`NumberFormat._table`).
"""

from __future__ import annotations

import dataclasses
import functools
import weakref
from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from . import bitkernels as _bitkernels
from ..telemetry.metrics import metrics as _metrics

__all__ = [
    "NumberFormat",
    "RoundingInfo",
    "LONGDOUBLE_EXTENDED",
]

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

#: ``(format name, weak reference)`` of every bit kernel built: each keeps
#: its ``[calls, elements, handed_back, zeros]`` tallies in its compiled
#: object, which the flusher drains into the ``bitkernel`` dispatch path
#: and the ``bitkernel.*`` counters
_kernels: list[tuple[str, weakref.ref]] = []


def _flush_dispatch_tally(discard: bool = False) -> None:
    """Drain the kernels' tallies into the registry (or drop on reset)."""
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


class NumberFormat(ABC):
    """A machine-number format emulated in software.

    Subclasses must provide the bit layout (:meth:`decode` and
    :meth:`encode`) and the compiled kernel (:meth:`_build_bitkernel`).
    All formats share the conventions:

    * NaN in value space represents the format's NaN/NaR,
    * ``numpy.inf`` is only produced by formats that have infinities,
    * rounding is round-to-nearest with ties to the even code.

    :meth:`round_array` has one rule.  Arrays of every size round through
    the format's compiled kernel (:mod:`repro.arithmetic.bitkernels`),
    bound once per format (:attr:`_bound_kernel`); the contexts round
    scalars through its scalar entry (:attr:`_round_one`).  The kernel
    rounds every value itself, NaN and infinities included.  The kernels
    are verified bit-identical to the differential reference of ``tests/``
    by the sweeps in ``tests/test_scalar_rounding.py`` and
    ``tests/test_bitkernels.py`` (every value and every tie of every format
    up to 16 bits).

    The format alone decides how a value rounds; the one opt-out is
    ``REPRO_DISABLE_BITKERNELS=1`` (or, at runtime,
    :func:`repro.arithmetic.set_bitkernels_enabled`), which turns the
    kernels' integer transform off process-wide, so every format rounds by
    its rule alone, with the same results.
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

    # ------------------------------------------------------------------ #
    # the compiled kernel
    # ------------------------------------------------------------------ #
    @abstractmethod
    def _build_bitkernel(self):
        """Construct the family's :class:`~repro.arithmetic.bitkernels.BitKernel`
        (``None`` only for the formats that round by a dtype cast)."""

    def bitkernel(self):
        """The format's compiled kernel for the position of the switch
        (:func:`repro.arithmetic.bitkernels.set_enabled`): with its integer
        lookup tables when on, by the format's rule alone when off.

        Built lazily once per format instance and switch position.  The
        format picks the kernel flavour in :meth:`_build_bitkernel`:
        float64-work formats get the one-word kernels, the
        extended-precision 64-bit posit/takum formats the two-word kernels
        of the 80-bit longdouble memory layout (by the rule alone on hosts
        whose longdouble is not that layout).
        """
        built = self.__dict__.setdefault("_kernels_built", {})
        enabled = _bitkernels.bitkernels_enabled()
        if enabled not in built:
            kern = built[enabled] = self._build_bitkernel()
            if kern is not None:
                _kernels.append((self.name, weakref.ref(kern)))
        return built[enabled]

    @functools.cached_property
    def _bound_kernel(self):
        """The kernel :meth:`round_array` rounds through, bound on first
        use.  Flipping the switch drops the binding, so the next call binds
        per the switch."""
        _bound[id(self)] = self
        return self.bitkernel()

    @functools.cached_property
    def _round_one(self):
        """The compiled scalar entry of :attr:`_bound_kernel`: the rounded
        work-dtype scalar of any float of the work layout (``None`` for
        other inputs, which callers convert first)."""
        return self._bound_kernel.round_one

    @functools.cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """Every finite non-negative magnitude of the format, ascending, and
        its code (``int64``): the magnitude table the rule of the formats of
        at most 16 bits searches, decoded once from the sign-clear half of
        the code space, where every family keeps its non-negative values."""
        codes = np.arange(1 << (self.bits - 1), dtype=np.int64)
        values = self.decode(codes)
        finite = np.isfinite(values)
        mags, codes = values[finite], codes[finite]
        order = np.argsort(mags)
        return mags[order], codes[order]

    # ------------------------------------------------------------------ #
    # bit-level interface
    # ------------------------------------------------------------------ #
    @abstractmethod
    def decode(self, codes) -> np.ndarray:
        """Decode integer codes into their work-precision values.

        Parameters
        ----------
        codes:
            Integer codes (any shape; converted to ``uint64`` and masked to
            the format's width).

        Returns
        -------
        numpy.ndarray
            Work-precision values, same shape as ``codes``; NaN/NaR codes
            decode to ``+nan``, infinity codes (if any) to ``±inf``.
        """

    @abstractmethod
    def encode(self, values) -> np.ndarray:
        """Encode work-precision values into integer codes (nearest).

        Parameters
        ----------
        values:
            Work-precision values (any shape).

        Returns
        -------
        numpy.ndarray
            ``uint64`` codes, same shape as ``values``: each value is first
            rounded through :meth:`round_array`, then encoded; every NaN
            encodes as the format's canonical NaN/NaR code.
        """

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

        Arrays of every size round through the compiled kernel
        (:mod:`repro.arithmetic.bitkernels`), which tallies its own
        telemetry.
        """
        return self._bound_kernel.round(values, out)

    def round_scalar(self, value: float) -> float:
        """Round a single scalar without an ndarray round-trip, through the
        compiled scalar entry.  Returns a Python float (wide
        extended-precision formats lose the sub-float64 bits here; the
        contexts' ``round_scalar`` keeps the work precision)."""
        res = self._round_one(value)
        if res is None:
            res = self._round_one(self.work_dtype(value))
        return float(res)

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
