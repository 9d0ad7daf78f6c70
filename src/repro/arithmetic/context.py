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
use a pairwise (tree) reduction by default — each partial sum is rounded —
and a strictly sequential accumulation order is available for the
accumulation-order ablation study; either order is one call of the compiled
reduction, in every context and in both positions of the bit-kernel switch.

Scalar operands bypass ndarrays entirely: the elementary operations detect
them, compute in the work precision on work-dtype NumPy scalars and round
through ``round_scalar`` — the compiled scalar entry of the format's bit
kernel.  The solvers' own loops run in the compiled entries of
:mod:`repro.arithmetic._rounding`; these methods are the rounded kernels
the solvers call between them, and the operations behind the operator API
(:mod:`repro.arithmetic.farray`).
"""

from __future__ import annotations

import dataclasses
import math
from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from . import bitkernels as _bitkernels
from .base import NumberFormat, RoundingInfo
from .registry import get_format
from ..telemetry import core as _telemetry
from ..telemetry.metrics import metrics as _metrics

#: operand types the elementary operations treat as scalars
_SCALAR_TYPES = (float, int, np.floating, np.integer)


def _is_scalar(x) -> bool:
    """Whether ``x`` is a scalar operand (Python number, NumPy scalar or
    0-d array) that the elementary operations can keep out of ndarray
    round-trips.  Plain ndarrays, the common operand of the array
    branches, are answered by the first test."""
    if type(x) is np.ndarray:
        return x.ndim == 0
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

@dataclasses.dataclass(frozen=True)
class ContextSpec:
    """Declarative description of a compute context.

    Replaces the loose ``(name, accumulation=...)`` keyword plumbing
    between the CLI, the experiment runner and :func:`get_context`: one
    frozen, picklable value names the arithmetic *and* its reduction order,
    and can be passed wherever a format name is accepted
    (``get_context(spec)``, ``partialschur(..., ctx=spec)``).  How a value
    rounds is the format's own business (see
    :meth:`~repro.arithmetic.base.NumberFormat.round_array`), and every
    context tallies its rounded operations in :attr:`ComputeContext.op_count`.

    Attributes
    ----------
    format:
        Format or context name (``"posit16"``, ``"float64"``,
        ``"reference"``, ...).
    accumulation:
        Reduction order of the rounded kernels (``"pairwise"`` or
        ``"sequential"``).
    """

    format: str = "float64"
    accumulation: str = "pairwise"

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
    #: ``(smallest, largest)`` magnitude a saturating arithmetic clamps
    #: out-of-range values to, or ``None`` when it underflows to zero and
    #: overflows instead
    saturation_range: Optional[tuple[float, float]] = None

    def __init__(self, accumulation: str = "pairwise"):
        if accumulation not in ("pairwise", "sequential"):
            raise ValueError("accumulation must be 'pairwise' or 'sequential'")
        self.accumulation = accumulation
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

    @abstractmethod
    def round_scalar(self, value):
        """Round one work-precision scalar into the context.

        Scalar twin of :meth:`round`: takes a Python/NumPy scalar and
        returns a work-dtype scalar without any ndarray round-trip.  This is
        the path the elementary operations use for scalar operands.
        """

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
    # operator-API constructors (repro.arithmetic.farray, which imports
    # this module)
    # ------------------------------------------------------------------ #
    def array(self, values):
        """Round arbitrary input into the context and bind it as an
        :class:`~repro.arithmetic.farray.FArray` (the operator API).

        Scalar (0-d) input comes back as an
        :class:`~repro.arithmetic.farray.FScalar` instead — the wrapper
        convention everywhere is that 0-d results are scalars.
        """
        from .farray import FArray, FScalar

        values = np.asarray(values, dtype=self.dtype)
        if values.ndim == 0:
            return FScalar(self, self.round_scalar(values[()]))
        return FArray(self, self.round(values))

    def scalar(self, value):
        """Round one value into the context and bind it as an
        :class:`~repro.arithmetic.farray.FScalar`."""
        from .farray import FScalar

        return FScalar(self, self.round_scalar(value))

    def wrap(self, data):
        """Bind already-representable data as an
        :class:`~repro.arithmetic.farray.FArray` *without* rounding.

        The caller guarantees every entry is a value of the context (use
        :meth:`array` otherwise).
        """
        from .farray import FArray

        return FArray(self, data)

    def wrap_scalar(self, value):
        """Bind one already-representable scalar as an
        :class:`~repro.arithmetic.farray.FScalar` *without* rounding."""
        from .farray import FScalar

        return FScalar(self, value)

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
    # runs on work-dtype NumPy scalars (an operand that already is the work
    # dtype is not cast: an exact copy that costs ~0.5 us on a longdouble)
    # and the result is rounded through ``round_scalar`` — no ndarray
    # round-trip.  NumPy scalar division keeps IEEE semantics: division by
    # zero gives inf/NaN with a RuntimeWarning, never ZeroDivisionError.

    # The ``_scalar_*`` twins are the one implementation of a rounded scalar
    # op: the scalar branch of each operation below, and every arithmetic
    # operator of :class:`~repro.arithmetic.farray.FScalar` (which already
    # knows its payload is a scalar and skips the detection).

    def _scalar_add(self, a, b):
        self.op_count += 1
        dt = self.dtype
        return self.round_scalar((a if type(a) is dt else dt(a)) + (b if type(b) is dt else dt(b)))

    def _scalar_sub(self, a, b):
        self.op_count += 1
        dt = self.dtype
        return self.round_scalar((a if type(a) is dt else dt(a)) - (b if type(b) is dt else dt(b)))

    def _scalar_mul(self, a, b):
        self.op_count += 1
        dt = self.dtype
        return self.round_scalar((a if type(a) is dt else dt(a)) * (b if type(b) is dt else dt(b)))

    def _scalar_div(self, a, b):
        self.op_count += 1
        dt = self.dtype
        return self.round_scalar((a if type(a) is dt else dt(a)) / (b if type(b) is dt else dt(b)))

    def _scalar_sqrt(self, a):
        self.op_count += 1
        if self.dtype is np.float64:
            fa = float(a)
            # math.sqrt raises on negative input where the vector kernel
            # yields NaN; NaN inputs propagate through math.sqrt fine
            return self.round_scalar(
                math.sqrt(fa) if fa >= 0.0 or fa != fa else math.nan
            )
        return self.round_scalar(np.sqrt(self.dtype(a)))

    # The array branch of every elementwise operation is one ufunc into one
    # buffer (a fresh C-contiguous output, or the caller's ``out``, which
    # may alias an operand) and one in-place rounding of that buffer
    # through :meth:`_round_work`: one allocation per op at most, and none
    # with ``out``.

    @abstractmethod
    def _round_work(self, work: np.ndarray) -> None:
        """Round an op's work-dtype result buffer in place."""

    def _round_ufunc(self, ufunc, out, *operands):
        if out is None:  # (an explicit out=None costs the ufunc ~0.2 us)
            work = ufunc(*operands, dtype=self.dtype, order="C")
        else:
            work = ufunc(*operands, out=out, dtype=self.dtype)
        self.op_count += work.size
        self._round_work(work)
        return work

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
        return self._round_ufunc(np.add, out, a, b)

    def sub(self, a, b, *, out=None):
        """Rounded elementwise ``a - b`` (scalars stay scalars)."""
        if _is_scalar(a) and _is_scalar(b):
            return self._scalar_sub(a, b)
        return self._round_ufunc(np.subtract, out, a, b)

    def mul(self, a, b, *, out=None):
        """Rounded elementwise ``a * b`` (scalars stay scalars)."""
        if _is_scalar(a) and _is_scalar(b):
            return self._scalar_mul(a, b)
        return self._round_ufunc(np.multiply, out, a, b)

    def div(self, a, b, *, out=None):
        """Rounded elementwise ``a / b`` (scalars stay scalars)."""
        if _is_scalar(a) and _is_scalar(b):
            return self._scalar_div(a, b)
        return self._round_ufunc(np.divide, out, a, b)

    def sqrt(self, a, *, out=None):
        """Rounded elementwise square root (scalars stay scalars)."""
        if _is_scalar(a):
            return self._scalar_sqrt(a)
        return self._round_ufunc(np.sqrt, out, a)

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
            dt = self.dtype
            aa = abs(dt(a))
            ab = abs(dt(b))
            if aa != aa or ab != ab:  # NaN operands propagate
                return dt(np.nan)
            scale, small = (aa, ab) if aa >= ab else (ab, aa)
            if scale == 0:
                return dt(0.0)
            if scale == np.inf:
                return dt(np.inf)
            # the five ops of the ``_scalar_*`` spelling, one rounding each
            rs = self.round_scalar
            t = rs(small / scale)
            u = rs(dt(1.0) + rs(t * t))  # in [1, 2]: math.sqrt is safe
            root = rs(math.sqrt(float(u)) if dt is np.float64 else np.sqrt(u))
            self.op_count += 5
            return rs(scale * root)
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
        strategy accumulates left to right.  The caller's array is only
        read (see :meth:`_reduce_last_axis`).
        """
        v = np.moveaxis(np.asarray(values, dtype=self.dtype), axis, -1)
        return self._reduce_last_axis(v)

    @abstractmethod
    def compiled_rounding(self):
        """The kernel the compiled entries of
        :mod:`repro.arithmetic._rounding` (``reduce``, ``arnoldi``,
        ``tridiagonalize`` and ``ql``) round through in this context: the compiled kernel of the format, or ``None``, which
        rounds nothing (the storage dtype is the rounding).  Looked up on
        every call, so the bit-kernel switch takes effect between calls."""

    def _reduce_last_axis(self, buf: np.ndarray) -> np.ndarray:
        """Rounded reduction of ``buf`` along its last axis, in one call of
        the compiled reduction.

        ``buf`` is only read, and the result never aliases it.

        Pairwise levels pair adjacent partials: each level adds partial
        ``2i`` to partial ``2i + 1``, rounds every sum, and carries an odd
        leftover into the next level unrounded; the sequential strategy
        adds column ``j`` of every row to its running sum (a 1-D ``buf``
        takes one scalar op per addition).  Every level or column rounds
        the sums of all rows in one rounding pass, so the pairing, every
        intermediate rounding and the op tally (``m - 1`` per row) are
        those of reducing each row alone.
        """
        sums = _bitkernels.extension().reduce(
            buf, None, self.accumulation == "sequential", self.compiled_rounding()
        )
        m = buf.shape[-1]
        if m > 1:
            self.op_count += sums.size * (m - 1)
        return sums[0] if buf.ndim == 1 else sums.reshape(buf.shape[:-1])

    def dot(self, x, y):
        """Inner product with rounded products and rounded accumulation."""
        return self._reduce_last_axis(self.mul(x, y))

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

    def axpy(self, alpha, x, y, out=None):
        """``y + alpha * x`` with per-operation rounding: :meth:`mul`, then
        :meth:`add` (``out`` as there)."""
        return self.add(y, self.mul(alpha, x), out=out)

    def rotate_columns(self, c, s, x, y):
        """Givens rotation of two vectors: ``[c*x - s*y, s*x + c*y]``.

        Returns the stacked pair as one ``(2, *x.shape)`` array: the six
        rounded ops of the spelling, in that order, tallied ``6 * x.size``.
        ``c`` and ``s`` are scalars, or arrays that broadcast against
        ``x`` and ``y`` as :meth:`mul` does.
        """
        return np.stack((
            self.sub(self.mul(c, x), self.mul(s, y)),
            self.add(self.mul(s, x), self.mul(c, y)),
        ))

    # ------------------------------------------------------------------ #
    # dense kernels
    # ------------------------------------------------------------------ #
    def gemv(self, M, x):
        """Dense matrix-vector product ``M @ x`` (rows reduced independently)."""
        M = np.asarray(M, dtype=self.dtype)
        x = np.asarray(x, dtype=self.dtype)
        if M.shape[1] == 0:
            return np.zeros(M.shape[0], dtype=self.dtype)
        return self._reduce_last_axis(self.mul(M, x[np.newaxis, :]))

    def gemv_t(self, M, x):
        """Dense transposed matrix-vector product ``M.T @ x``."""
        M = np.asarray(M, dtype=self.dtype)
        x = np.asarray(x, dtype=self.dtype)
        if M.shape[0] == 0:
            return np.zeros(M.shape[1], dtype=self.dtype)
        return self._reduce_last_axis(self.mul(M.T, x[np.newaxis, :]))

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
        # products laid out (i, j, l) so the contraction is the last axis
        return self._reduce_last_axis(self.mul(A[:, np.newaxis, :], B.T[np.newaxis, :, :]))

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
        return self._segmented_reduce(prods, matrix.indptr)

    def _segmented_reduce(self, vals, indptr) -> np.ndarray:
        """Rounded sum of each CSR segment ``vals[indptr[r]:indptr[r + 1]]``
        (zero for an empty row), in the order of :meth:`_reduce_last_axis`,
        in one call of the compiled reduction.  Every step rounds the sums
        of all rows in one pass: a pairwise level, or one column of the
        sequential accumulation (``nnz`` minus the non-empty rows ops)."""
        counts = np.diff(indptr)
        self.op_count += int(counts.sum()) - int(np.count_nonzero(counts))
        return _bitkernels.extension().reduce(
            vals, indptr, self.accumulation == "sequential", self.compiled_rounding()
        )

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
        """Convert raw values into the context, reporting range diagnostics.

        Counts the finite non-zero inputs that overflowed to a non-finite
        value, underflowed to zero, or (saturating arithmetic) were clamped
        to an end of :attr:`saturation_range`.
        """
        values = np.asarray(values, dtype=self.dtype)
        rounded = self.round(values)
        finite_nonzero = np.isfinite(values) & (values != 0)
        overflowed = int(np.count_nonzero(finite_nonzero & ~np.isfinite(rounded)))
        underflowed = int(np.count_nonzero(finite_nonzero & (rounded == 0)))
        saturated = 0
        if self.saturation_range is not None:
            lo, hi = self.saturation_range
            got, raw = np.abs(rounded), np.abs(values)
            clamped = ((got == hi) & (raw > hi)) | ((got == lo) & (raw < lo))
            saturated = int(np.count_nonzero(finite_nonzero & clamped))
        return rounded, RoundingInfo(overflowed, underflowed, saturated)

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
        with np.errstate(over="ignore"):  # overflow to +-inf is the rounding
            if _is_scalar(values):
                return self.dtype(values)
            arr = np.asarray(values, dtype=self.dtype)
        if out is not None and out is not arr:
            out[...] = arr
            return out
        return arr

    def _round_work(self, work: np.ndarray) -> None:
        """A work buffer of the hardware dtype is already rounded: the
        ``dtype=`` of the op's ufunc was the rounding."""

    def round_scalar(self, value):
        """Hardware dtypes round by conversion; returns a dtype scalar."""
        return value if type(value) is self.dtype else self.dtype(value)

    def compiled_rounding(self):
        """The storage dtype is the rounding: no kernel."""
        return None

    @property
    def machine_epsilon(self) -> float:
        """Spacing above 1.0 of the hardware dtype (``numpy.finfo`` eps)."""
        return float(np.finfo(self.dtype).eps)


class ReferenceContext(NativeContext):
    """Extended-precision reference context.

    The paper computes reference solutions in ``float128``; this environment
    substitutes ``numpy.longdouble`` (80-bit extended precision on x86, 64-bit
    significand), which retains a comfortable accuracy margin over the widest
    formats under test.  See docs/experiments.md, "Substitutions", item 3.
    """

    def __init__(self, **kwargs):
        super().__init__(np.longdouble, name="reference", **kwargs)


class EmulatedContext(ComputeContext):
    """Context that rounds every elementary result to a software format.

    Every rounding goes to the format's compiled kernel, which alone decides
    how a value rounds: arrays through
    :meth:`~repro.arithmetic.base.NumberFormat.round_array`, scalars through
    its compiled scalar entry.  The dispatch matrix is documented in
    ``docs/architecture.md``; the one opt-out is the process-wide bit-kernel
    switch (``REPRO_DISABLE_BITKERNELS`` /
    :func:`repro.arithmetic.set_bitkernels_enabled`), under which the kernel
    rounds by the format's rule alone.

    Parameters
    ----------
    fmt:
        Target :class:`~repro.arithmetic.base.NumberFormat` or registry
        name.  float32 and float64 round by a cast and have native contexts
        (:func:`get_context`); they are refused here.
    """

    def __init__(self, fmt: NumberFormat | str, **kwargs):
        super().__init__(**kwargs)
        if isinstance(fmt, str):
            fmt = get_format(fmt)
        if fmt.bitkernel() is None:
            raise ValueError(
                f"{fmt.name} rounds by a cast: use get_context({fmt.name!r}), a native context"
            )
        self.format = fmt
        self.dtype = fmt.work_dtype
        self.name = fmt.name
        self.bits = fmt.bits
        if fmt.saturating:
            self.saturation_range = (fmt.min_positive, fmt.max_value)
        self._machine_epsilon: Optional[float] = None

    def round(self, values, *, out=None):
        """Round values to the format (scalar inputs return work-dtype
        scalars via :meth:`round_scalar`).  ``out`` (keyword-only, may
        alias ``values``) receives the rounded array — the in-place path
        the elementwise operations use."""
        if _is_scalar(values):
            return self.round_scalar(values)
        return self.format.round_array(values, out=out)

    def _round_work(self, work: np.ndarray) -> None:
        """Round a work buffer in place through the format's array entry,
        which reads its kernel binding on every call (the bit-kernel switch
        still takes effect between calls)."""
        self.format.round_array(work, out=work)

    def compiled_rounding(self):
        """The compiled kernel of the format's bound bit kernel (as
        :meth:`round_scalar` and :meth:`_round_work` round through)."""
        return self.format._bound_kernel.compiled

    def round_scalar(self, value):
        """Round one scalar through the compiled scalar entry of the
        format's bit kernel, without an ndarray round-trip; a value that is
        not a float of the work layout (an int, a float32) is converted
        first.  Returns a work-dtype scalar (``longdouble`` formats keep
        their extended precision)."""
        res = self.format._round_one(value)
        if res is None:
            res = self.format._round_one(self.dtype(value))
        return res

    @property
    def machine_epsilon(self) -> float:
        """Spacing above 1.0 of the emulated format (memoised: the fallback
        probe in NumberFormat rounds repeatedly and this property sits on
        hot solver paths — tolerances, eps floors)."""
        if self._machine_epsilon is None:
            self._machine_epsilon = float(self.format.machine_epsilon)
        return self._machine_epsilon


def get_context(name: str | ContextSpec, **kwargs) -> ComputeContext:
    """Build the compute context for a format name or :class:`ContextSpec`.

    ``float32`` and ``float64`` use hardware arithmetic; ``reference`` (also
    accepted as ``float128`` or ``longdouble``) uses the extended-precision
    reference; every other registered format is emulated.

    A :class:`ContextSpec` bundles the format name with the reduction
    order; it cannot be combined with loose keyword arguments.
    """
    if isinstance(name, ContextSpec):
        if kwargs:
            raise TypeError(
                "get_context(ContextSpec) already carries the evaluation "
                "options; pass them inside the spec instead of as keywords"
            )
        kwargs = {"accumulation": name.accumulation}
        name = name.format
    lowered = name.lower()
    if lowered in ("reference", "float128", "longdouble"):
        return ReferenceContext(**kwargs)
    if lowered == "float64":
        return NativeContext(np.float64, name="float64", **kwargs)
    if lowered == "float32":
        return NativeContext(np.float32, name="float32", **kwargs)
    return EmulatedContext(get_format(name), **kwargs)
