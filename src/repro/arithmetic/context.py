"""Compute contexts: every elementary operation rounds to a target format.

The numerical experiments of the paper run a *type-generic* Arnoldi
implementation where each scalar operation (add, multiply, divide, square
root, ...) is performed in the arithmetic under evaluation.  In this library
the same effect is achieved with a :class:`ComputeContext`:

* a :class:`NativeContext` uses a hardware dtype (``float32``, ``float64`` or
  ``numpy.longdouble`` for the extended-precision reference) directly;
* an :class:`EmulatedContext` stores values in a work dtype but rounds the
  result of every elementary operation to the nearest value of a
  :class:`~repro.arithmetic.base.NumberFormat` (bfloat16, OFP8, posit, takum,
  ...).

Vector and matrix kernels (dot products, dense and sparse matrix-vector
products) are built from the rounded elementary operations.  Accumulations
use a pairwise (tree) reduction by default — each partial sum is rounded — so
the whole kernel is expressible with a logarithmic number of vectorised
passes; a strictly sequential accumulation order is available for the
accumulation-order ablation study.

Scalar operands bypass ndarrays entirely: the elementary operations detect
them, compute in the work precision (Python floats for float64 contexts,
NumPy scalars for float32/longdouble) and round through ``round_scalar`` —
each format's pure-Python analytic scalar kernel.  This is the regime of
the solvers' Givens/QL operations, where NumPy dispatch on 1-element
arrays used to dominate wide-format wall time.
"""

from __future__ import annotations

import dataclasses
import math
from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from .base import NumberFormat, RoundingInfo
from .registry import get_format
from ..telemetry import core as _telemetry
from ..telemetry.metrics import metrics as _metrics

#: operand types the elementary operations treat as scalars
_SCALAR_TYPES = (float, int, np.floating, np.integer)


def _is_scalar(x) -> bool:
    """Whether ``x`` is a scalar operand (Python number, NumPy scalar or
    0-d array) that the elementary operations can keep out of ndarray
    round-trips."""
    return isinstance(x, _SCALAR_TYPES) or (isinstance(x, np.ndarray) and x.ndim == 0)


__all__ = [
    "ComputeContext",
    "ContextSpec",
    "NativeContext",
    "EmulatedContext",
    "ReferenceContext",
    "get_context",
    "DynamicRangeError",
]

#: rounding-kernel selections of an emulated context: ``"fast"`` picks the
#: format's scalar and bit kernels, ``"analytic"`` forces the analytic
#: vector kernels (the ground truth the fast kernels are verified against)
_KERNELS = ("fast", "analytic")


def _check_kernels(kernels: str) -> None:
    if kernels not in _KERNELS:
        raise ValueError(f"kernels must be one of {_KERNELS}, got {kernels!r}")


@dataclasses.dataclass(frozen=True)
class ContextSpec:
    """Declarative description of a compute context.

    Replaces the loose ``(name, accumulation=..., kernels=..., ...)``
    keyword plumbing between the CLI, the experiment runner and
    :func:`get_context`: one frozen, picklable value names the arithmetic
    *and* how it is evaluated, and can be passed wherever a format name is
    accepted (``get_context(spec)``, ``partialschur(..., ctx=spec)``).

    Attributes
    ----------
    format:
        Format or context name (``"posit16"``, ``"float64"``,
        ``"reference"``, ...).
    accumulation:
        Reduction order of the rounded kernels (``"pairwise"`` or
        ``"sequential"``).
    kernels:
        Rounding kernels of an emulated context, ``"fast"`` (default) or
        ``"analytic"`` (see :class:`EmulatedContext`).  Ignored by native
        contexts.
    count_ops:
        Whether the context tallies rounded elementary operations.
    """

    format: str = "float64"
    accumulation: str = "pairwise"
    kernels: str = "fast"
    count_ops: bool = True

    def __post_init__(self):
        _check_kernels(self.kernels)

    def build(self) -> "ComputeContext":
        """Construct the described compute context."""
        return get_context(self)

    def with_format(self, name: str) -> "ContextSpec":
        """This spec with the format swapped (runner convenience)."""
        return dataclasses.replace(self, format=name)


class DynamicRangeError(ValueError):
    """Raised when the dynamic range of input data exceeds a number format.

    This corresponds to the ∞σ failure marker of the paper: the input matrix
    cannot even be represented in the target arithmetic (entries overflow to
    infinity/NaN or flush to zero).
    """

    def __init__(self, message: str, info: Optional[RoundingInfo] = None):
        super().__init__(message)
        self.info = info


class ComputeContext(ABC):
    """Interface of a rounding arithmetic used by the solvers.

    All kernels operate on NumPy arrays whose dtype is :attr:`dtype` and whose
    values are exactly representable in the context's arithmetic.  Methods
    never modify their inputs.
    """

    #: identifier (format name or dtype name)
    name: str = "abstract"
    #: NumPy dtype used for storage in value space
    dtype: type = np.float64
    #: bit width of the emulated arithmetic
    bits: int = 64
    #: accumulation strategy: "pairwise" or "sequential"
    accumulation: str = "pairwise"

    def __init__(self, accumulation: str = "pairwise", count_ops: bool = True):
        if accumulation not in ("pairwise", "sequential"):
            raise ValueError("accumulation must be 'pairwise' or 'sequential'")
        self.accumulation = accumulation
        self.count_ops = count_ops
        self.op_count: int = 0
        # ops already flushed into the telemetry registry (publish_op_count)
        self._published_ops: int = 0

    # ------------------------------------------------------------------ #
    # primitives
    # ------------------------------------------------------------------ #
    @abstractmethod
    def round(self, values, *, out=None):
        """Round work-precision values to the context's arithmetic.

        Array inputs return an ndarray of :attr:`dtype`; scalar and 0-d
        inputs return a work-dtype *scalar* (via :meth:`round_scalar`), so
        scalars never round-trip through ndarrays.  ``asarray`` inherits
        the same convention.

        ``out`` (keyword-only) is an optional pre-allocated array of
        :attr:`dtype` the result is written into; it may alias ``values``
        and is left untouched by scalar inputs.  The elementwise operations
        exploit this to round their work-precision result in place instead
        of allocating a second array per op.
        """

    def round_scalar(self, value):
        """Round one work-precision scalar into the context.

        Scalar twin of :meth:`round`: takes a Python/NumPy scalar and
        returns a work-dtype scalar without any ndarray round-trip.  This is
        the path the elementary operations use for scalar operands (the
        solvers' Givens/QL regime).  The default implementation falls back
        to the array kernel; subclasses override it with direct scalar
        dispatch.
        """
        return self.round(np.asarray([value], dtype=self.dtype))[0]

    def asarray(self, values) -> np.ndarray:
        """Convert arbitrary data into the context (rounding each entry).

        Scalar inputs come back as work-dtype scalars, everything else as
        an ndarray of :attr:`dtype` (the :meth:`round` convention).
        """
        return self.round(np.asarray(values, dtype=self.dtype))

    def zeros(self, shape) -> np.ndarray:
        """An all-zeros array of the context's storage dtype."""
        return np.zeros(shape, dtype=self.dtype)

    # ------------------------------------------------------------------ #
    # operator-API constructors (repro.arithmetic.farray)
    # ------------------------------------------------------------------ #
    # The wrapper classes are installed as class attributes when
    # repro.arithmetic.farray is imported — a per-call ``from .farray
    # import ...`` would cost more than wrapping itself on the solvers'
    # scalar paths.
    _farray_cls = None
    _fscalar_cls = None

    @classmethod
    def _operator_classes(cls):
        if cls._farray_cls is None:  # context imported without the package
            from . import farray  # noqa: F401  (registers the classes)
        return cls._farray_cls, cls._fscalar_cls

    def array(self, values):
        """Round arbitrary input into the context and bind it as an
        :class:`~repro.arithmetic.farray.FArray` (the operator API).

        Scalar (0-d) input comes back as an
        :class:`~repro.arithmetic.farray.FScalar` instead — the wrapper
        convention everywhere is that 0-d results are scalars.
        """
        farray_cls, fscalar_cls = self._operator_classes()
        values = np.asarray(values, dtype=self.dtype)
        if values.ndim == 0:
            return fscalar_cls(self, self.round_scalar(values[()]))
        return farray_cls(self, self.round(values))

    def scalar(self, value):
        """Round one value into the context and bind it as an
        :class:`~repro.arithmetic.farray.FScalar`."""
        _, fscalar_cls = self._operator_classes()
        return fscalar_cls(self, self.round_scalar(value))

    def wrap(self, data):
        """Bind already-representable data as an
        :class:`~repro.arithmetic.farray.FArray` *without* rounding.

        This is the in-solver fast path; the caller guarantees every entry
        is a value of the context (use :meth:`array` otherwise).
        """
        cls = self._farray_cls
        if cls is None:
            cls, _ = self._operator_classes()
        return cls(self, data)

    def wrap_scalar(self, value):
        """Bind one already-representable scalar as an
        :class:`~repro.arithmetic.farray.FScalar` *without* rounding."""
        cls = self._fscalar_cls
        if cls is None:
            _, cls = self._operator_classes()
        return cls(self, value)

    def _tally(self, n: int) -> None:
        if self.count_ops:
            self.op_count += int(n)

    def publish_op_count(self) -> int:
        """Flush the context-local op tally into the telemetry registry.

        :attr:`op_count` is deliberately per-instance and unsynchronised —
        incrementing a process-wide registry per elementary operation would
        dominate the scalar hot path.  Instead the solvers and the
        experiment runner call this at phase boundaries: the *delta* since
        the previous flush is added to the ``ops.rounded`` counter (labelled
        by context name), so totals survive context re-entry and re-created
        contexts instead of silently resetting with each instance.

        Returns the flushed delta (0 when nothing new was tallied).  The
        local tally keeps working with telemetry disabled; the publication
        cursor still advances, so enabling mid-run only publishes ops
        tallied after that point.
        """
        delta = self.op_count - self._published_ops
        self._published_ops = self.op_count
        if delta and _telemetry.ENABLED:
            _metrics.counter("ops.rounded", format=self.name).inc(delta)
        return delta

    # ------------------------------------------------------------------ #
    # elementwise operations (each result is rounded once)
    # ------------------------------------------------------------------ #
    # Scalar operands take a pure-scalar path: the work-precision operation
    # runs on Python floats (float64 contexts) or NumPy scalars (float32 /
    # longdouble, whose arithmetic must stay in the work precision) and the
    # result is rounded through ``round_scalar`` — no ndarray round-trip.
    # This is the regime of the solvers' elementwise Givens/QL operations,
    # where NumPy dispatch on 1-element arrays dominates the arithmetic.

    # The ``_scalar_*`` twins implement exactly the scalar branch of each
    # operation.  The operator API (:mod:`repro.arithmetic.farray`) calls
    # them directly — an :class:`~repro.arithmetic.farray.FScalar` already
    # knows its payload is a scalar, so skipping the dynamic detection here
    # offsets the cost of the wrapper object.  Add, sub and mul skip the
    # cast of an operand that already is the work dtype (an exact copy that
    # costs ~0.5 us on a longdouble).

    def _scalar_add(self, a, b):
        if self.count_ops:
            self.op_count += 1
        if self.dtype is np.float64:
            return self.round_scalar(float(a) + float(b))
        dt = self.dtype
        return self.round_scalar(
            (a if type(a) is dt else dt(a)) + (b if type(b) is dt else dt(b))
        )

    def _scalar_sub(self, a, b):
        if self.count_ops:
            self.op_count += 1
        if self.dtype is np.float64:
            return self.round_scalar(float(a) - float(b))
        dt = self.dtype
        return self.round_scalar(
            (a if type(a) is dt else dt(a)) - (b if type(b) is dt else dt(b))
        )

    def _scalar_mul(self, a, b):
        if self.count_ops:
            self.op_count += 1
        if self.dtype is np.float64:
            return self.round_scalar(float(a) * float(b))
        dt = self.dtype
        return self.round_scalar(
            (a if type(a) is dt else dt(a)) * (b if type(b) is dt else dt(b))
        )

    def _scalar_div(self, a, b):
        if self.count_ops:
            self.op_count += 1
        if self.dtype is np.float64:
            fb = float(b)
            if fb == 0.0:
                # IEEE inf/nan semantics (plus the RuntimeWarning the
                # vector path would emit) instead of ZeroDivisionError
                return self.round_scalar(float(np.divide(float(a), fb)))
            return self.round_scalar(float(a) / fb)
        return self.round_scalar(np.divide(self.dtype(a), self.dtype(b)))

    def _scalar_sqrt(self, a):
        if self.count_ops:
            self.op_count += 1
        if self.dtype is np.float64:
            fa = float(a)
            # math.sqrt raises on negative input where the vector kernel
            # yields NaN; NaN inputs propagate through math.sqrt fine
            return self.round_scalar(
                math.sqrt(fa) if fa >= 0.0 or fa != fa else math.nan
            )
        return self.round_scalar(np.sqrt(self.dtype(a)))

    # The array branches of the elementwise operations compute the
    # work-precision result (one fresh ufunc output, or the caller's ``out``
    # buffer) and round *into that same buffer* whenever the rounding
    # backend can exploit it (:meth:`_round_work_inplace`): with the
    # ``out=``-aware backends this halves the allocations of every rounded
    # op, and a caller-provided ``out`` is honoured unconditionally.

    def _round_work_inplace(self) -> bool:
        """Whether the ops should hand their fresh work buffer to ``round``.

        True when the vector rounding backend writes into ``out`` natively
        (hardware casts, integer bit kernels); False when it would have to
        append a full-array copy to honour ``out`` (analytic vector
        kernels), where rounding into a fresh array is strictly cheaper.
        Purely a performance hint: an *explicit* caller ``out=`` is always
        honoured regardless.
        """
        return True

    def add(self, a, b, *, out=None):
        """Rounded elementwise ``a + b`` (scalars stay scalars).

        ``out`` (keyword-only) receives the rounded result when the
        operands form an *array* operation, and may alias an operand — the
        in-place accumulation path of the operator API.  All-scalar
        operands return a work-dtype scalar and leave ``out`` untouched
        (scalars never round-trip through ndarrays).  This contract is
        shared by every rounded operation of every context; see
        ``docs/api.md``.
        """
        if _is_scalar(a) and _is_scalar(b):
            return self._scalar_add(a, b)
        self._tally(np.broadcast(a, b).size)
        work = np.add(a, b, dtype=self.dtype, out=out)
        if out is None and not self._round_work_inplace():
            return self.round(work)
        return self.round(work, out=work)

    def sub(self, a, b, *, out=None):
        """Rounded elementwise ``a - b`` (scalars stay scalars)."""
        if _is_scalar(a) and _is_scalar(b):
            return self._scalar_sub(a, b)
        self._tally(np.broadcast(a, b).size)
        work = np.subtract(a, b, dtype=self.dtype, out=out)
        if out is None and not self._round_work_inplace():
            return self.round(work)
        return self.round(work, out=work)

    def mul(self, a, b, *, out=None):
        """Rounded elementwise ``a * b`` (scalars stay scalars)."""
        if _is_scalar(a) and _is_scalar(b):
            return self._scalar_mul(a, b)
        self._tally(np.broadcast(a, b).size)
        work = np.multiply(a, b, dtype=self.dtype, out=out)
        if out is None and not self._round_work_inplace():
            return self.round(work)
        return self.round(work, out=work)

    def div(self, a, b, *, out=None):
        """Rounded elementwise ``a / b`` (scalars stay scalars)."""
        if _is_scalar(a) and _is_scalar(b):
            return self._scalar_div(a, b)
        self._tally(np.broadcast(a, b).size)
        work = np.divide(a, b, dtype=self.dtype, out=out)
        if out is None and not self._round_work_inplace():
            return self.round(work)
        return self.round(work, out=work)

    def sqrt(self, a, *, out=None):
        """Rounded elementwise square root (scalars stay scalars)."""
        if _is_scalar(a):
            return self._scalar_sqrt(a)
        self._tally(np.size(a))
        work = np.sqrt(np.asarray(a, dtype=self.dtype), out=out)
        if out is None and not self._round_work_inplace():
            return self.round(work)
        return self.round(work, out=work)

    def neg(self, a, *, out=None):
        """Exact negation (sign flips are exact in every supported format)."""
        if _is_scalar(a):
            return -self.dtype(a)
        return np.negative(np.asarray(a, dtype=self.dtype), out=out)

    def abs(self, a, *, out=None):
        """Exact magnitude (representable whenever the value is)."""
        if _is_scalar(a):
            return abs(self.dtype(a))
        return np.abs(np.asarray(a, dtype=self.dtype), out=out)

    def hypot(self, a, b, *, out=None):
        """Overflow-safe ``sqrt(a^2 + b^2)`` from rounded elementary operations.

        The naive composition squares its operands, which leaves the dynamic
        range of narrow formats for perfectly representable inputs (E4M3
        overflows to NaN above ``sqrt(448)``; posits/takums saturate and
        silently return a wrong magnitude).  Like :meth:`norm2`, the
        computation is scaled by ``scale = max(|a|, |b|)``:
        ``scale * sqrt(1 + (min/max)^2)``, where the intermediate quantities
        stay within ``[1, 2]``.  The division of the larger operand by
        ``scale`` is exactly 1 in every format, so it is elided; the result
        is bit-identical to dividing both operands the way :meth:`norm2`
        does, at five rounded operations instead of seven.
        """
        if _is_scalar(a) and _is_scalar(b):
            aa = self.abs(a)
            ab = self.abs(b)
            if aa != aa or ab != ab:  # NaN operands propagate
                return self.dtype(np.nan)
            scale, small = (aa, ab) if aa >= ab else (ab, aa)
            if scale == 0:
                return self.dtype(0.0)
            if scale == np.inf:
                return self.dtype(np.inf)
            t = self._scalar_div(small, scale)
            return self._scalar_mul(
                scale,
                self._scalar_sqrt(self._scalar_add(1.0, self._scalar_mul(t, t))),
            )
        aa = np.abs(np.asarray(a, dtype=self.dtype))
        ab = np.abs(np.asarray(b, dtype=self.dtype))
        scale = np.maximum(aa, ab)
        small = np.minimum(aa, ab)
        # a zero (or NaN) scale divides by 1 instead; the final product then
        # restores the exact 0 (or propagates the NaN) unchanged.  An
        # infinite scale takes t = 0 so the result is inf, not inf/inf = NaN
        safe = np.where(scale > 0, scale, self.dtype(1.0))
        small = np.where(np.isinf(scale), self.dtype(0.0), small)
        t = self.div(small, safe)
        return self.mul(
            scale, self.sqrt(self.add(self.dtype(1.0), self.mul(t, t))), out=out
        )

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def reduce_sum(self, values: np.ndarray, axis: int = -1) -> np.ndarray:
        """Sum along ``axis`` with per-addition rounding.

        The pairwise strategy reduces adjacent pairs level by level (a
        balanced tree, matching Julia's pairwise summation); the sequential
        strategy accumulates left to right.  Only the first reduction level
        allocates — the caller's array is never modified — and the
        remaining levels run in place on that buffer
        (:meth:`_reduce_last_axis_inplace`), so an m-way reduction costs one
        buffer instead of ``log2(m)`` of them.
        """
        v = np.asarray(values, dtype=self.dtype)
        v = np.moveaxis(v, axis, -1)
        m = v.shape[-1]
        if m == 0:
            return np.zeros(v.shape[:-1], dtype=self.dtype)
        if m == 1:
            return v[..., 0]
        if self.accumulation == "pairwise":
            half = m // 2
            buf = self.add(v[..., 0 : 2 * half : 2], v[..., 1 : 2 * half : 2])
            if m % 2:
                buf = np.concatenate([buf, v[..., -1:]], axis=-1)
            return self._reduce_last_axis_inplace(buf)
        if v.ndim == 1:
            acc = v[0]
            for j in range(1, m):
                acc = self.add(acc, v[j])
            return acc
        buf = self.add(v[..., 0], v[..., 1])
        for j in range(2, m):
            self.add(buf, v[..., j], out=buf)
        return buf

    def _reduce_last_axis_inplace(self, buf: np.ndarray) -> np.ndarray:
        """Reduce an *owned* buffer along its last axis, mutating it.

        ``buf`` must be a work-dtype array this context allocated itself
        (the rounded-products buffer of :meth:`dot`/:meth:`gemv`/
        :meth:`gemm`, or the first pairwise level of :meth:`reduce_sum`) —
        callers donate it and must not rely on its contents afterwards.

        Pairwise levels pair live partials in place on a doubling stride:
        at stride ``step`` the partials sit at positions ``j * step``, each
        ``add`` writes the even slots, and an odd leftover at
        ``(count - 1) * step`` is already on the doubled stride, so the
        pairing order — and therefore every intermediate rounding — is
        identical to reducing into freshly concatenated buffers.  The
        sequential strategy accumulates into the first slot (1-D keeps the
        pure-scalar loop of the scalar hot path).
        """
        m = buf.shape[-1]
        if m == 0:
            return np.zeros(buf.shape[:-1], dtype=self.dtype)
        if m > 1:
            if self.accumulation == "pairwise":
                step, count = 1, m
                while count > 1:
                    half = count // 2
                    even = buf[..., 0 : 2 * half * step : 2 * step]
                    odd = buf[..., step : 2 * half * step : 2 * step]
                    self.add(even, odd, out=even)
                    count = half + (count & 1)
                    step *= 2
            elif buf.ndim == 1:
                acc = buf[0]
                for j in range(1, m):
                    acc = self.add(acc, buf[j])
                return acc
            else:
                acc = buf[..., 0]
                for j in range(1, m):
                    self.add(acc, buf[..., j], out=acc)
        if buf.ndim == 1:
            return buf[0]
        # a view of column 0 would pin the whole donated buffer alive
        return np.ascontiguousarray(buf[..., 0])

    def dot(self, x, y):
        """Inner product with rounded products and rounded accumulation.

        The rounded-products buffer is donated to the in-place reduction,
        so the whole contraction allocates once.
        """
        return self._reduce_last_axis_inplace(self.mul(x, y))

    def norm2(self, x):
        """Euclidean norm built from rounded operations.

        The computation is scaled by the largest entry magnitude (as Julia's
        generic ``norm`` and LAPACK's ``dnrm2`` do) so that the norm of a
        representable vector does not spuriously overflow or underflow in
        narrow formats whose squares would leave the dynamic range.
        """
        x = np.asarray(x, dtype=self.dtype)
        if x.size == 0:
            return self.dtype(0.0)
        scale = np.max(np.abs(x))
        if not np.isfinite(scale):
            return self.dtype(np.nan) if np.isnan(scale) else self.dtype(np.inf)
        if float(scale) == 0.0:
            return self.dtype(0.0)
        xs = self.div(x, scale)
        return self.mul(scale, self.sqrt(self.dot(xs, xs)))

    def norm2_naive(self, x):
        """Unscaled Euclidean norm ``sqrt(dot(x, x))`` (ablation variant)."""
        return self.sqrt(self.dot(x, x))

    def axpy(self, alpha, x, y, out=None):
        """``y + alpha * x`` with per-operation rounding.

        Without ``out`` the product buffer is reused as the sum's output,
        so the whole update costs one allocation.  With ``out`` the update
        is fully fused — the product is computed straight into ``out`` and
        the sum rounds in place, touching memory once per element with no
        temporary at all.  ``out`` may alias ``x`` or ``y`` elementwise
        (e.g. ``axpy(a, x, y, out=y)``); when it aliases ``y`` the product
        falls back to a fresh buffer so the addend is not clobbered before
        it is read.
        """
        if (
            out is not None
            and isinstance(out, np.ndarray)
            and not _is_scalar(x)
            and not np.may_share_memory(out, np.asarray(y))
        ):
            t = self.mul(alpha, x, out=out)
            return self.add(y, t, out=out)
        t = self.mul(alpha, x)
        if isinstance(t, np.ndarray):
            return self.add(y, t, out=t if out is None else out)
        res = self.add(y, t)
        if out is None or not isinstance(res, np.ndarray):
            return res
        out[...] = res
        return out

    def scale(self, alpha, x):
        """``alpha * x`` elementwise."""
        return self.mul(alpha, x)

    def rotate_columns(self, c, s, x, y):
        """Givens rotation of two vectors: ``[c*x - s*y, s*x + c*y]``.

        Returns the stacked pair as one ``(2, *x.shape)`` array.  ``c`` and
        ``s`` are scalars, or ``(k,)`` vectors that broadcast over the last
        axis of ``x`` and ``y`` (``(n, k)`` column blocks: ``k`` rotations
        of disjoint column pairs in one call, as the QL eigenvector update
        applies a wave of Givens steps).  The six rounded operations of the
        unfused spelling (``c*x - s*y`` and ``s*x + c*y``) run in two
        rounding calls: one broadcast multiply forms the four products
        ``[[c*x, s*y], [s*x, c*y]]`` and rounds them together, then one
        subtract and one add form both results from those products, with
        the same operands in the same order, and round them together.
        Rounding is elementwise, so every value and the ``6 * x.size`` op
        tally are those of the six-op spelling; only the per-call dispatch
        cost is paid twice instead of six times.  (Rounding returns the same
        word at any stack size, but when both operands of a product or sum
        are NaN, the NaN NumPy returns depends on its loop, so a NaN's sign
        bit can differ from the unfused spelling's.)
        """
        x = np.asarray(x, dtype=self.dtype)
        y = np.asarray(y, dtype=self.dtype)
        self._tally(6 * x.size)
        coef = np.array([[c, s], [s, c]], dtype=self.dtype)
        coef = coef.reshape((2, 2) + (1,) * (x.ndim - coef.ndim + 2) + coef.shape[2:])
        prods = np.multiply(coef, np.stack((x, y)))
        inplace = self._round_work_inplace()
        prods = self.round(prods, out=prods) if inplace else self.round(prods)
        res = np.empty((2,) + x.shape, dtype=self.dtype)
        np.subtract(prods[0, 0], prods[0, 1], out=res[0])
        np.add(prods[1, 0], prods[1, 1], out=res[1])
        return self.round(res, out=res) if inplace else self.round(res)

    # ------------------------------------------------------------------ #
    # dense kernels
    # ------------------------------------------------------------------ #
    def gemv(self, M, x):
        """Dense matrix-vector product ``M @ x`` (rows reduced independently)."""
        M = np.asarray(M, dtype=self.dtype)
        x = np.asarray(x, dtype=self.dtype)
        if M.shape[1] == 0:
            return np.zeros(M.shape[0], dtype=self.dtype)
        prods = self.mul(M, x[np.newaxis, :])
        return self._reduce_last_axis_inplace(prods)

    def gemv_t(self, M, x):
        """Dense transposed matrix-vector product ``M.T @ x``."""
        M = np.asarray(M, dtype=self.dtype)
        x = np.asarray(x, dtype=self.dtype)
        if M.shape[0] == 0:
            return np.zeros(M.shape[1], dtype=self.dtype)
        prods = self.mul(M.T, x[np.newaxis, :])
        return self._reduce_last_axis_inplace(prods)

    def gemm(self, A, B):
        """Dense matrix-matrix product with per-operation rounding.

        Intended for the small projected problems of the Krylov-Schur
        iteration (dimensions of a few dozen).
        """
        A = np.asarray(A, dtype=self.dtype)
        B = np.asarray(B, dtype=self.dtype)
        if A.shape[1] != B.shape[0]:
            raise ValueError("gemm dimension mismatch")
        if A.shape[1] == 0:
            return np.zeros((A.shape[0], B.shape[1]), dtype=self.dtype)
        prods = self.mul(A[:, :, np.newaxis], B[np.newaxis, :, :])
        return self._reduce_last_axis_inplace(np.moveaxis(prods, 1, -1))

    # ------------------------------------------------------------------ #
    # sparse kernel
    # ------------------------------------------------------------------ #
    def spmv(self, matrix, x):
        """Sparse CSR matrix-vector product with per-operation rounding.

        ``matrix`` must expose ``data``, ``indices``, ``indptr`` and ``shape``
        (the CSR substrate of :mod:`repro.sparse`), with ``data`` already
        converted into the context.
        """
        x = np.asarray(x, dtype=self.dtype)
        nrows = matrix.shape[0]
        data = np.asarray(matrix.data, dtype=self.dtype)
        if data.size == 0:
            return np.zeros(nrows, dtype=self.dtype)
        prods = self.mul(data, x[matrix.indices])
        return self._segmented_reduce(prods, matrix.indptr, nrows)

    def _segmented_reduce(self, vals, indptr, nrows) -> np.ndarray:
        counts = np.diff(indptr).astype(np.int64)
        out = np.zeros(nrows, dtype=self.dtype)
        if vals.size == 0:
            return out
        if self.accumulation == "sequential":
            starts = np.asarray(indptr[:-1], dtype=np.int64)
            acc_rows = np.nonzero(counts > 0)[0]
            out[acc_rows] = vals[starts[acc_rows]]
            k = 1
            while True:
                rows = np.nonzero(counts > k)[0]
                if rows.size == 0:
                    break
                out[rows] = self.add(out[rows], vals[starts[rows] + k])
                k += 1
            return out
        # pairwise segmented reduction
        vals = np.array(vals, dtype=self.dtype, copy=True)
        counts = counts.copy()
        while counts.max(initial=0) > 1:
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            rowid = np.repeat(np.arange(nrows), counts)
            local = np.arange(vals.size) - starts[rowid]
            count_per_elem = counts[rowid]
            is_left = (local % 2 == 0) & (local + 1 < count_per_elem)
            is_single = (local % 2 == 0) & (local + 1 >= count_per_elem)
            keep = is_left | is_single
            left_idx = np.nonzero(is_left)[0]
            merged = self.add(vals[left_idx], vals[left_idx + 1])
            new_vals = vals[keep].copy()
            positions = np.cumsum(keep)[left_idx] - 1
            new_vals[positions] = merged
            vals = new_vals
            counts = (counts + 1) // 2
        nonempty = np.nonzero(counts == 1)[0]
        out[nonempty] = vals
        return out

    # ------------------------------------------------------------------ #
    # conversion of input data
    # ------------------------------------------------------------------ #
    def convert_matrix(self, matrix):
        """Convert a CSR matrix into the context.

        Returns the converted matrix together with a
        :class:`~repro.arithmetic.base.RoundingInfo` describing overflow /
        underflow of the entries (the paper's ∞σ condition).
        """
        data, info = self.convert_values(np.asarray(matrix.data))
        return matrix.with_data(data), info

    def convert_values(self, values) -> tuple[np.ndarray, RoundingInfo]:
        """Convert raw values into the context, reporting range diagnostics."""
        values = np.asarray(values, dtype=self.dtype)
        rounded = self.round(values)
        finite_nonzero = np.isfinite(values) & (values != 0)
        overflowed = int(np.count_nonzero(finite_nonzero & ~np.isfinite(rounded)))
        underflowed = int(np.count_nonzero(finite_nonzero & (rounded == 0)))
        return rounded, RoundingInfo(overflowed, underflowed, 0)

    # ------------------------------------------------------------------ #
    # numerical metadata
    # ------------------------------------------------------------------ #
    @property
    @abstractmethod
    def machine_epsilon(self) -> float:
        """Unit roundoff scale of the arithmetic (spacing above 1.0)."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<{type(self).__name__} {self.name!r}>"


class NativeContext(ComputeContext):
    """Context backed directly by a hardware floating-point dtype."""

    def __init__(self, dtype, name: Optional[str] = None, **kwargs):
        super().__init__(**kwargs)
        self.dtype = np.dtype(dtype).type
        self.name = name or np.dtype(dtype).name
        self.bits = np.dtype(dtype).itemsize * 8

    def round(self, values, *, out=None):
        """Hardware dtypes round by conversion (a cast is the rounding);
        scalar inputs return dtype scalars.  ``out`` receives the converted
        values when given (no-op when it aliases an already-converted
        ``values``)."""
        if _is_scalar(values):
            return self.dtype(values)
        arr = np.asarray(values, dtype=self.dtype)
        if out is not None and out is not arr:
            out[...] = arr
            return out
        return arr

    def round_scalar(self, value):
        """Hardware dtypes round by conversion; returns a dtype scalar."""
        return self.dtype(value)

    @property
    def machine_epsilon(self) -> float:
        """Spacing above 1.0 of the hardware dtype (``numpy.finfo`` eps)."""
        return float(np.finfo(self.dtype).eps)


class ReferenceContext(NativeContext):
    """Extended-precision reference context.

    The paper computes reference solutions in ``float128``; this environment
    substitutes ``numpy.longdouble`` (80-bit extended precision on x86, 64-bit
    significand), which retains a comfortable accuracy margin over the widest
    formats under test.  See DESIGN.md, substitution 3.
    """

    def __init__(self, **kwargs):
        super().__init__(np.longdouble, name="reference", **kwargs)


class EmulatedContext(ComputeContext):
    """Context that rounds every elementary result to a software format.

    Scalars and tiny arrays round through the format's pure-Python scalar
    kernel, larger arrays through its integer bit kernel or, when there is
    none, the analytic vector kernel (the dispatch matrix is documented in
    ``docs/architecture.md``).

    Parameters
    ----------
    fmt:
        Target :class:`~repro.arithmetic.base.NumberFormat` or registry
        name.
    kernels:
        ``"fast"`` (default) rounds through the dispatch above;
        ``"analytic"`` forces the analytic *vector* kernels for arrays and
        scalars alike, bypassing the scalar and bit kernels, so either fast
        path can be verified against the ground truth.
    """

    def __init__(self, fmt: NumberFormat | str, kernels: str = "fast", **kwargs):
        super().__init__(**kwargs)
        _check_kernels(kernels)
        if isinstance(fmt, str):
            fmt = get_format(fmt)
        self.format = fmt
        self.dtype = fmt.work_dtype
        self.name = fmt.name
        self.bits = fmt.bits
        self.kernels = kernels
        self._machine_epsilon: Optional[float] = None
        self._inplace_rounding: Optional[bool] = None

    def _round_work_inplace(self) -> bool:
        """Whether this format's vector rounding writes into ``out`` natively.

        True when the dispatch lands on an integer bit kernel at vector
        sizes; False for the analytic kernels (``kernels="analytic"``,
        formats without a bit kernel), which would pay a copy to honour
        ``out``.  Cached: the answer only depends on the context
        configuration (a later global kernel toggle may stale it, which
        costs at most one copy per op, never correctness).
        """
        flag = self._inplace_rounding
        if flag is None:
            flag = self.kernels == "fast" and self.format.bitkernel() is not None
            self._inplace_rounding = flag
        return flag

    def round(self, values, *, out=None):
        """Round values to the format through the selected kernels (scalar
        inputs return work-dtype scalars via :meth:`round_scalar`).  ``out``
        (keyword-only, may alias ``values``) receives the rounded array —
        the in-place path the elementwise operations use."""
        if _is_scalar(values):
            return self.round_scalar(values)
        values = np.asarray(values, dtype=self.dtype)
        if self.kernels == "analytic":
            res = self.format.round_array_analytic(values)
            if out is not None:
                out[...] = res
                return out
            return res
        return self.format.round_array(values, out=out)

    def round_scalar(self, value):
        """Round one scalar to the format without an ndarray round-trip.

        Honours the same kernel selection as :meth:`round`:
        ``kernels="analytic"`` forces the analytic vector kernel, the
        default the format's scalar kernel (or its vector fallback).
        Returns a work-dtype scalar (``longdouble`` formats keep their
        extended precision).
        """
        fmt = self.format
        if self.kernels == "analytic":
            # verification mode: force the vector analytic ground truth,
            # bypassing the scalar kernels as well (so a suspect fast path
            # can actually be isolated)
            return fmt.round_array_analytic(np.asarray([value], dtype=self.dtype))[0]
        if fmt.has_scalar_kernel:
            res = fmt.round_scalar_analytic(value)
            return res if type(res) is self.dtype else self.dtype(res)
        return fmt.round_array(np.asarray([value], dtype=self.dtype))[0]

    @property
    def machine_epsilon(self) -> float:
        """Spacing above 1.0 of the emulated format (memoised: the fallback
        probe in NumberFormat rounds repeatedly and this property sits on
        hot solver paths — tolerances, eps floors)."""
        if self._machine_epsilon is None:
            self._machine_epsilon = float(self.format.machine_epsilon)
        return self._machine_epsilon


def get_context(name: str | ContextSpec, kernels: str = "fast", **kwargs) -> ComputeContext:
    """Build the compute context for a format name or :class:`ContextSpec`.

    ``float32`` and ``float64`` use hardware arithmetic; ``reference`` (also
    accepted as ``float128`` or ``longdouble``) uses the extended-precision
    reference; every other registered format is emulated.  ``kernels``
    selects the rounding kernels of emulated contexts (``"fast"``, or
    ``"analytic"`` to force the analytic kernels for verification).

    A :class:`ContextSpec` bundles the format name with the evaluation
    options; it cannot be combined with loose keyword arguments.
    """
    if isinstance(name, ContextSpec):
        if kernels != "fast" or kwargs:
            raise TypeError(
                "get_context(ContextSpec) already carries the evaluation "
                "options; pass them inside the spec instead of as keywords"
            )
        spec = name
        name = spec.format
        kernels = spec.kernels
        kwargs = {"accumulation": spec.accumulation, "count_ops": spec.count_ops}
    _check_kernels(kernels)
    lowered = name.lower()
    if lowered in ("reference", "float128", "longdouble"):
        return ReferenceContext(**kwargs)
    if lowered == "float64":
        return NativeContext(np.float64, name="float64", **kwargs)
    if lowered == "float32":
        return NativeContext(np.float32, name="float32", **kwargs)
    return EmulatedContext(get_format(name), kernels=kernels, **kwargs)
