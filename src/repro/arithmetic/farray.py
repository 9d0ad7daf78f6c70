"""Context-bound operator API: :class:`FArray` and :class:`FScalar`.

The paper's experiments hinge on a *type-generic* solver whose every
elementary operation rounds in the arithmetic under evaluation.  The explicit
:class:`~repro.arithmetic.context.ComputeContext` methods express this as
``ctx.sub(w, ctx.gemv(V, h))`` — correct, but it obscures the numerics.  The
wrappers in this module bind a NumPy array (or a work-dtype scalar) to a
context so that the same computation reads ``w - V @ h``: every operator
routes through the corresponding context method, which performs the operation
in the work precision and rounds the result once.

Design rules (these are what make the API safe to use in the solvers):

* **Bit identity** — each operator maps 1:1 onto one context call, in source
  order, so an operator-form kernel produces *exactly* the trajectory of its
  explicit-context spelling (proven in ``tests/test_operator_equivalence.py``).
* **One implementation per operation** — operators add no arithmetic of
  their own: they unwrap their operand and call the context method, so a
  rounded scalar op exists once, in the context's ``_scalar_*`` twins, and
  :class:`FScalar` operands never become 1-element ndarrays (the regime of
  the solvers' Givens/QL operations).
* **No silent leaks** — NumPy ufuncs and dispatched functions applied to a
  bound value raise :class:`PrecisionLeakError` instead of silently computing
  an unrounded result.  Reading values *out* is always explicit: ``.data``,
  ``.value``, ``float(...)`` or ``np.asarray(...)``.

Constructing bound values:

* ``ctx.array(values)`` / ``ctx.scalar(value)`` round arbitrary input into
  the context and wrap it;
* ``ctx.wrap(data)`` / ``ctx.wrap_scalar(value)`` wrap data that is already
  representable (no rounding) — the fast path used inside the solvers;
* :func:`precision` is a small context manager yielding a bound namespace::

      with precision("posit16") as p:
          x = p.array([1.0, 2.0, 3.0])
          print(float(x.norm2()))
"""

from __future__ import annotations

import contextlib

import numpy as np

from .context import ComputeContext, get_context

__all__ = [
    "FArray",
    "FScalar",
    "PrecisionLeakError",
    "ContextMismatchError",
    "BoundNamespace",
    "precision",
]

#: plain-number operand types accepted next to a bound value
_NUMBERS = (float, int, np.floating, np.integer)
#: every unbound operand type the elementwise operators accept
_OPERANDS = _NUMBERS + (np.ndarray,)

_new = object.__new__


class PrecisionLeakError(TypeError):
    """A NumPy operation would have bypassed the per-operation rounding.

    Raised by the ``__array_ufunc__`` / ``__array_function__`` guards of
    :class:`FArray` and :class:`FScalar` when an unrounded NumPy kernel is
    applied to a context-bound value (e.g. ``np.add(x, y)`` instead of
    ``x + y``).  Unwrap explicitly with ``.data`` / ``.value`` /
    ``np.asarray(...)`` if work-precision NumPy math is intended.
    """


def _leak(obj, name):
    raise PrecisionLeakError(
        f"NumPy operation {name!r} on a context-bound "
        f"{type(obj).__name__} would bypass {obj.ctx.name!r} rounding; "
        "use the bound operators/methods, or unwrap explicitly with "
        "'.data'/'.value' for work-precision glue code"
    )


class ContextMismatchError(PrecisionLeakError):
    """Operands of one operation are bound to *different* compute contexts.

    Mixing bindings (``posit16 + bfloat16``) is always a bug: values of one
    arithmetic are not representable in another, so there is no correct
    rounding for the result.  The error names both formats; convert
    deliberately by unwrapping (``.data`` / ``.value``) and re-binding
    through ``ctx.array`` / ``ctx.scalar``.

    Subclasses :class:`PrecisionLeakError` (and therefore ``TypeError``), so
    existing handlers keep working.
    """

    def __init__(self, left_name: str, right_name: str):
        super().__init__(
            f"operands are bound to different compute contexts "
            f"({left_name!r} vs {right_name!r}); values of {left_name!r} are "
            f"not representable in {right_name!r} — unwrap with "
            "'.data'/'.value' and re-bind through ctx.array/ctx.scalar to "
            "convert deliberately"
        )
        #: format/context names of the two operands, for programmatic use
        self.left_name = left_name
        self.right_name = right_name


#: ufuncs with a rounded context equivalent the guard reroutes to
_UFUNC_BINARY = {
    np.add: "add",
    np.subtract: "sub",
    np.multiply: "mul",
    np.true_divide: "div",
}
#: unary ufuncs with a context equivalent (neg/abs exact, sqrt rounded)
_UFUNC_UNARY = {np.negative: "neg", np.absolute: "abs", np.sqrt: "sqrt"}
#: predicate/comparison/sign-transfer ufuncs with exact results
_UFUNC_EXACT = frozenset(
    {
        np.isfinite,
        np.isnan,
        np.isinf,
        np.sign,
        np.copysign,
        np.equal,
        np.not_equal,
        np.less,
        np.less_equal,
        np.greater,
        np.greater_equal,
    }
)


def _operand(ctx, other):
    """Unwrap one operand of an operation on a value bound to ``ctx``.

    The single operand rule of every operator and method: a bound value
    hands over its payload (raising :class:`ContextMismatchError` when it is
    bound elsewhere), anything else passes through unchanged for the caller
    to accept or refuse.
    """
    t = type(other)
    if t is FScalar or t is FArray:
        if other.ctx is not ctx:
            raise ContextMismatchError(ctx.name, other.ctx.name)
        return other.value if t is FScalar else other.data
    return other


def _matmul(ctx, a, b):
    """``a @ b`` on unwrapped arrays: ``gemv``/``gemv_t``/``gemm``/``dot``."""
    if a.ndim == 2:
        return _wrap(ctx, ctx.gemv(a, b) if b.ndim == 1 else ctx.gemm(a, b))
    if b.ndim == 2:
        return _wrap(ctx, ctx.gemv_t(b, a))  # x @ M == M^T x
    return _wrap(ctx, ctx.dot(a, b))


def _route_ufunc(bound, ufunc, method, inputs, kwargs):
    """NEP-13 entry point shared by :class:`FArray` and :class:`FScalar`.

    NumPy routes *all* mixed binary operators (``ndarray + FArray``,
    ``np.float64(2) / FScalar``, ...) through the right-hand operand's
    ``__array_ufunc__``, so this is both the guard and the interoperability
    shim: ufuncs with a rounded context equivalent are rerouted through the
    context (the result stays bound), exact queries (``np.isfinite``,
    comparisons, ``np.copysign``) are answered on the raw values, and
    anything else — the unrounded operations that would silently leak work
    precision — raises :class:`PrecisionLeakError`.
    """
    ctx = bound.ctx
    # anything beyond a plain call — reductions, out= targets, where= masks,
    # casting/dtype overrides — has no rounded equivalent: fail loudly
    # instead of silently ignoring the modifier
    if method != "__call__" or any(v is not None for v in kwargs.values()):
        _leak(bound, f"{ufunc.__name__}.{method}" if method != "__call__" else ufunc.__name__)
    raw = [_operand(ctx, x) for x in inputs]
    name = _UFUNC_BINARY.get(ufunc)
    if name is not None and len(raw) == 2:
        return _wrap(ctx, getattr(ctx, name)(raw[0], raw[1]))
    if ufunc in _UFUNC_EXACT:
        out = ufunc(*raw)
        # copysign/sign preserve representability; predicates are plain
        return _wrap(ctx, out) if out.dtype == ctx.dtype else out
    name = _UFUNC_UNARY.get(ufunc)
    if name is not None and len(raw) == 1:
        return _wrap(ctx, getattr(ctx, name)(raw[0]))
    if ufunc is np.matmul and len(raw) == 2:
        return _matmul(ctx, raw[0], raw[1])
    _leak(bound, ufunc.__name__)


def _scalar(ctx, value):
    """Bind a work-dtype scalar context result as an :class:`FScalar`."""
    s = _new(FScalar)
    s.ctx = ctx
    s.value = value
    return s


def _wrap(ctx, out):
    """Wrap a context-method result: ndarray -> FArray, scalar -> FScalar.

    0-d ndarrays count as scalars, matching the contexts' own convention
    (their reductions may hand back 0-d views).
    """
    if isinstance(out, np.ndarray):
        if out.ndim:
            arr = _new(FArray)
            arr.ctx = ctx
            arr.data = out
            return arr
        out = out[()]
    s = _new(FScalar)
    s.ctx = ctx
    s.value = out
    return s


class FScalar:
    """A work-dtype scalar bound to a :class:`ComputeContext`.

    Arithmetic operators (``+ - * / ** -x abs``) are the context's scalar
    operations (one work-precision op and one
    :meth:`ComputeContext.round_scalar` each) — results are again
    :class:`FScalar`, never 1-element ndarrays.  Comparisons are exact (no
    rounding) and return plain booleans.

    The public attributes are :attr:`ctx` (the binding) and :attr:`value`
    (the underlying work-dtype scalar, the explicit way out).
    """

    __slots__ = ("ctx", "value")

    def __init__(self, ctx: ComputeContext, value):
        self.ctx = ctx
        self.value = value if isinstance(value, ctx.dtype) else ctx.dtype(value)

    # ------------------------------------------------------------------ #
    # arithmetic operators (each is exactly one rounded context call)
    # ------------------------------------------------------------------ #
    # Scalar operands go to the context's ``_scalar_*`` twins, which own the
    # work-precision operation, the op tally and the one ``round_scalar``
    # call; array operands go to the elementwise op and come back as an
    # FArray.  The FScalar-FScalar test comes first and the result is built
    # inline: that is the solvers' Givens/QL regime.  A reflected operator
    # never sees a bound operand (the bound left operand's own operator
    # takes it), so it needs no unwrap.

    def __add__(self, other):
        c = self.ctx
        o = other.value if type(other) is FScalar and other.ctx is c else _operand(c, other)
        if isinstance(o, _NUMBERS):
            r = _new(FScalar)
            r.ctx = c
            r.value = c._scalar_add(self.value, o)
            return r
        return _wrap(c, c.add(self.value, o)) if isinstance(o, np.ndarray) else NotImplemented

    def __radd__(self, other):
        c = self.ctx
        if isinstance(other, _NUMBERS):
            r = _new(FScalar)
            r.ctx = c
            r.value = c._scalar_add(other, self.value)
            return r
        return _wrap(c, c.add(other, self.value)) if isinstance(other, np.ndarray) else NotImplemented

    def __sub__(self, other):
        c = self.ctx
        o = other.value if type(other) is FScalar and other.ctx is c else _operand(c, other)
        if isinstance(o, _NUMBERS):
            r = _new(FScalar)
            r.ctx = c
            r.value = c._scalar_sub(self.value, o)
            return r
        return _wrap(c, c.sub(self.value, o)) if isinstance(o, np.ndarray) else NotImplemented

    def __rsub__(self, other):
        c = self.ctx
        if isinstance(other, _NUMBERS):
            r = _new(FScalar)
            r.ctx = c
            r.value = c._scalar_sub(other, self.value)
            return r
        return _wrap(c, c.sub(other, self.value)) if isinstance(other, np.ndarray) else NotImplemented

    def __mul__(self, other):
        c = self.ctx
        o = other.value if type(other) is FScalar and other.ctx is c else _operand(c, other)
        if isinstance(o, _NUMBERS):
            r = _new(FScalar)
            r.ctx = c
            r.value = c._scalar_mul(self.value, o)
            return r
        return _wrap(c, c.mul(self.value, o)) if isinstance(o, np.ndarray) else NotImplemented

    def __rmul__(self, other):
        c = self.ctx
        if isinstance(other, _NUMBERS):
            r = _new(FScalar)
            r.ctx = c
            r.value = c._scalar_mul(other, self.value)
            return r
        return _wrap(c, c.mul(other, self.value)) if isinstance(other, np.ndarray) else NotImplemented

    def __truediv__(self, other):
        c = self.ctx
        o = other.value if type(other) is FScalar and other.ctx is c else _operand(c, other)
        if isinstance(o, _NUMBERS):
            r = _new(FScalar)
            r.ctx = c
            r.value = c._scalar_div(self.value, o)
            return r
        return _wrap(c, c.div(self.value, o)) if isinstance(o, np.ndarray) else NotImplemented

    def __rtruediv__(self, other):
        c = self.ctx
        if isinstance(other, _NUMBERS):
            r = _new(FScalar)
            r.ctx = c
            r.value = c._scalar_div(other, self.value)
            return r
        return _wrap(c, c.div(other, self.value)) if isinstance(other, np.ndarray) else NotImplemented

    def __neg__(self):
        return _scalar(self.ctx, self.ctx.neg(self.value))

    def __pos__(self):
        return self

    def __abs__(self):
        return _scalar(self.ctx, self.ctx.abs(self.value))

    def __pow__(self, exponent):
        if exponent == 2:  # the only power the kernels need: one rounded mul
            return _scalar(self.ctx, self.ctx._scalar_mul(self.value, self.value))
        return NotImplemented

    # ------------------------------------------------------------------ #
    # rounded methods
    # ------------------------------------------------------------------ #
    def sqrt(self) -> "FScalar":
        """Rounded square root (one context operation)."""
        return _scalar(self.ctx, self.ctx._scalar_sqrt(self.value))

    # ------------------------------------------------------------------ #
    # exact queries (no rounding involved)
    # ------------------------------------------------------------------ #
    def isfinite(self) -> bool:
        """Whether the value is finite (exact query, plain bool)."""
        return bool(np.isfinite(self.value))

    def __float__(self) -> float:
        return float(self.value)

    def __array__(self, dtype=None, copy=None):
        # explicit read-out (np.asarray(s) -> 0-d work-dtype array);
        # arithmetic ufuncs still go through the guard
        return np.array(self.value, dtype=dtype)

    def __bool__(self) -> bool:
        return bool(self.value)

    def __eq__(self, other):
        if isinstance(other, FScalar):
            other = other.value
        if isinstance(other, _NUMBERS):
            return bool(self.value == other)
        return NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __lt__(self, other):
        if isinstance(other, FScalar):
            other = other.value
        if isinstance(other, _NUMBERS):
            return bool(self.value < other)
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, FScalar):
            other = other.value
        if isinstance(other, _NUMBERS):
            return bool(self.value <= other)
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, FScalar):
            other = other.value
        if isinstance(other, _NUMBERS):
            return bool(self.value > other)
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, FScalar):
            other = other.value
        if isinstance(other, _NUMBERS):
            return bool(self.value >= other)
        return NotImplemented

    __hash__ = None  # mutable-context-bound values are not hashable

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"FScalar({self.value!r}, ctx={self.ctx.name!r})"

    # ------------------------------------------------------------------ #
    # leak guard / NumPy interoperability
    # ------------------------------------------------------------------ #
    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        return _route_ufunc(self, ufunc, method, inputs, kwargs)

    def __array_function__(self, func, types, args, kwargs):
        _leak(self, getattr(func, "__name__", str(func)))


class FArray:
    """An ndarray bound to a :class:`ComputeContext`.

    Operators and methods route through the context's rounded kernels:
    ``+ - * /`` are the elementwise operations, ``@`` dispatches to
    ``gemv``/``gemv_t``/``gemm``/``dot`` (and to the rounded ``spmv`` when
    the left operand is a CSR matrix), :meth:`dot`/:meth:`norm2`/:meth:`sum`
    are the rounded reductions.  Indexing preserves the binding: slices come
    back as bound *views* (writes through them are visible in the parent,
    exactly like NumPy), scalar reads come back as :class:`FScalar`.

    The constructor wraps ``data`` without rounding (it trusts the caller —
    this is the in-solver fast path); use :meth:`ComputeContext.array` to
    round arbitrary input into the context first.
    """

    __slots__ = ("ctx", "data")

    def __init__(self, ctx: ComputeContext, data):
        self.ctx = ctx
        self.data = np.asarray(data, dtype=ctx.dtype)

    # ------------------------------------------------------------------ #
    # shape & views
    # ------------------------------------------------------------------ #
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "FArray":
        return _wrap(self.ctx, self.data.T)

    def copy(self) -> "FArray":
        return _wrap(self.ctx, self.data.copy())

    def __len__(self) -> int:
        return len(self.data)

    def __bool__(self) -> bool:
        # mirror ndarray semantics: a multi-element truth value is ambiguous
        # (default object truthiness would silently take the true branch)
        return bool(self.data)

    def __getitem__(self, key):
        out = self.data[key]
        if type(out) is np.ndarray:
            if out.ndim:
                r = _new(FArray)
                r.ctx = self.ctx
                r.data = out
                return r
            out = out[()]
        s = _new(FScalar)
        s.ctx = self.ctx
        s.value = out
        return s

    def __setitem__(self, key, value):
        if type(value) is FScalar or type(value) is FArray:
            value = _operand(self.ctx, value)
        else:
            # unbound values are rounded into the context on the way in, so
            # assignment cannot smuggle unrepresentable values past the
            # operators (rounding is the identity on representable data)
            value = self.ctx.round(np.asarray(value, dtype=self.ctx.dtype))
        self.data[key] = value

    def __iter__(self):
        for i in range(len(self.data)):
            yield self[i]

    # ------------------------------------------------------------------ #
    # elementwise operators (one rounded context call each)
    # ------------------------------------------------------------------ #
    def __add__(self, other):
        c, o = self.ctx, _operand(self.ctx, other)
        return _wrap(c, c.add(self.data, o)) if isinstance(o, _OPERANDS) else NotImplemented

    def __radd__(self, other):
        c = self.ctx
        return _wrap(c, c.add(other, self.data)) if isinstance(other, _OPERANDS) else NotImplemented

    def __sub__(self, other):
        c, o = self.ctx, _operand(self.ctx, other)
        return _wrap(c, c.sub(self.data, o)) if isinstance(o, _OPERANDS) else NotImplemented

    def __rsub__(self, other):
        c = self.ctx
        return _wrap(c, c.sub(other, self.data)) if isinstance(other, _OPERANDS) else NotImplemented

    def __mul__(self, other):
        c, o = self.ctx, _operand(self.ctx, other)
        return _wrap(c, c.mul(self.data, o)) if isinstance(o, _OPERANDS) else NotImplemented

    def __rmul__(self, other):
        c = self.ctx
        return _wrap(c, c.mul(other, self.data)) if isinstance(other, _OPERANDS) else NotImplemented

    def __truediv__(self, other):
        c, o = self.ctx, _operand(self.ctx, other)
        return _wrap(c, c.div(self.data, o)) if isinstance(o, _OPERANDS) else NotImplemented

    def __rtruediv__(self, other):
        c = self.ctx
        return _wrap(c, c.div(other, self.data)) if isinstance(other, _OPERANDS) else NotImplemented

    def __neg__(self):
        return _wrap(self.ctx, self.ctx.neg(self.data))

    def __pos__(self):
        return self

    def __abs__(self):
        return _wrap(self.ctx, self.ctx.abs(self.data))

    # ------------------------------------------------------------------ #
    # in-place operators (allocation-free: the work-precision operation
    # writes into this array's buffer and the context rounds it there)
    # ------------------------------------------------------------------ #
    def _inplace(self, op, other):
        od = _operand(self.ctx, other)
        if not isinstance(od, _OPERANDS):
            return NotImplemented
        if self.data.ndim == 0:
            # the contexts' all-scalar branch treats a 0-d buffer as a
            # scalar operand, returns the rounded scalar and ignores
            # ``out`` — write the result back explicitly instead of
            # silently dropping the update
            self.data[...] = op(self.data, od)
        else:
            op(self.data, od, out=self.data)
        return self

    def __iadd__(self, other):
        return self._inplace(self.ctx.add, other)

    def __isub__(self, other):
        return self._inplace(self.ctx.sub, other)

    def __imul__(self, other):
        return self._inplace(self.ctx.mul, other)

    def __itruediv__(self, other):
        return self._inplace(self.ctx.div, other)

    # ------------------------------------------------------------------ #
    # matrix products
    # ------------------------------------------------------------------ #
    def __matmul__(self, other):
        o = _operand(self.ctx, other)
        return _matmul(self.ctx, self.data, o) if isinstance(o, np.ndarray) else NotImplemented

    def __rmatmul__(self, other):
        c = self.ctx
        if hasattr(other, "indptr") and hasattr(other, "indices"):
            # CSR substrate: the rounded sparse kernel
            return _wrap(c, c.spmv(other, self.data))
        return _matmul(c, other, self.data) if isinstance(other, np.ndarray) else NotImplemented

    # ------------------------------------------------------------------ #
    # rounded reductions & methods
    # ------------------------------------------------------------------ #
    def sqrt(self) -> "FArray":
        """Rounded elementwise square root."""
        return _wrap(self.ctx, self.ctx.sqrt(self.data))

    def dot(self, other) -> "FScalar":
        """Rounded inner product (products and accumulation both round)."""
        return _wrap(self.ctx, self.ctx.dot(self.data, _operand(self.ctx, other)))

    def norm2(self) -> "FScalar":
        """Overflow-safe rounded Euclidean norm (:meth:`ComputeContext.norm2`)."""
        return _wrap(self.ctx, self.ctx.norm2(self.data))

    def axpy(self, alpha, x) -> "FArray":
        """Fused rounded update ``self + alpha * x``.

        Element-for-element identical to ``self + alpha * x`` written as
        two operator calls, but the product buffer doubles as the sum's
        output (:meth:`ComputeContext.axpy`), halving the memory traffic of
        the dominant solver update.  ``alpha`` may be a scalar or
        :class:`FScalar`; ``x`` an :class:`FArray` or ndarray.
        """
        c = self.ctx
        return _wrap(c, c.axpy(_operand(c, alpha), _operand(c, x), self.data))

    def sum(self, axis: int | None = None):
        """Rounded sum (:meth:`ComputeContext.reduce_sum` underneath).

        ``axis=None`` (default) reduces over all elements, as ``np.sum``
        does; an integer axis reduces along it.
        """
        if axis is None:
            out = self.ctx.reduce_sum(self.data.reshape(-1), axis=-1)
        else:
            out = self.ctx.reduce_sum(self.data, axis=axis)
        return _wrap(self.ctx, out)

    # ------------------------------------------------------------------ #
    # exact queries (no rounding involved)
    # ------------------------------------------------------------------ #
    def isfinite(self) -> np.ndarray:
        """Elementwise finiteness as a plain boolean ndarray (exact query)."""
        return np.isfinite(self.data)

    def all_finite(self) -> bool:
        """Whether every entry is finite (exact query, plain bool)."""
        return bool(np.all(np.isfinite(self.data)))

    def __eq__(self, other):
        if type(other) is FArray:
            other = other.data
        elif type(other) is FScalar:
            other = other.value
        if isinstance(other, _OPERANDS):
            return self.data == other
        return NotImplemented

    def __ne__(self, other):
        if type(other) is FArray:
            other = other.data
        elif type(other) is FScalar:
            other = other.value
        if isinstance(other, _OPERANDS):
            return self.data != other
        return NotImplemented

    __hash__ = None

    def __array__(self, dtype=None, copy=None):
        # explicit read-out (np.asarray(x)); arithmetic ufuncs still raise
        if dtype is None and not copy:
            return self.data
        # copy=None means copy-if-needed (NumPy 2 semantics) — forward it
        return np.array(self.data, dtype=dtype, copy=copy)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"FArray({self.data!r}, ctx={self.ctx.name!r})"

    # ------------------------------------------------------------------ #
    # leak guard / NumPy interoperability
    # ------------------------------------------------------------------ #
    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        return _route_ufunc(self, ufunc, method, inputs, kwargs)

    def __array_function__(self, func, types, args, kwargs):
        _leak(self, getattr(func, "__name__", str(func)))


class BoundNamespace:
    """NumPy-style namespace bound to one compute context.

    Yielded by :func:`precision`; exposes the bound constructors plus every
    attribute of the underlying context (``p.machine_epsilon``,
    ``p.format``, ...).
    """

    __slots__ = ("ctx",)

    def __init__(self, ctx: ComputeContext):
        self.ctx = ctx

    def array(self, values) -> FArray:
        """Round arbitrary input into the context and bind it."""
        return self.ctx.array(values)

    def scalar(self, value) -> FScalar:
        """Round one value into the context and bind it."""
        return self.ctx.scalar(value)

    def zeros(self, shape) -> FArray:
        """A bound all-zeros array (zero is exact in every format)."""
        return _wrap(self.ctx, self.ctx.zeros(shape))

    def eye(self, n: int) -> FArray:
        """A bound identity matrix (0 and 1 are exact in every format)."""
        return _wrap(self.ctx, np.eye(n, dtype=self.ctx.dtype))

    def __getattr__(self, name):
        return getattr(self.ctx, name)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<BoundNamespace {self.ctx.name!r}>"


@contextlib.contextmanager
def precision(spec, **kwargs):
    """Bind a precision for a block of NumPy-style rounded code.

    ``spec`` is a format name, a :class:`ContextSpec` or an existing
    :class:`ComputeContext`; extra keyword arguments are forwarded to
    :func:`~repro.arithmetic.context.get_context` when a new context is
    built.  Yields a :class:`BoundNamespace`::

        from repro.arithmetic import precision

        with precision("posit16") as p:
            x = p.array([3.0, 4.0])
            assert float(x.norm2()) == 5.0
    """
    if isinstance(spec, ComputeContext):
        ctx = spec
    else:
        ctx = get_context(spec, **kwargs)
    yield BoundNamespace(ctx)


# register the wrapper classes with the contexts (ctx.array/scalar/wrap
# construct them without re-importing this module per call)
ComputeContext._farray_cls = FArray
ComputeContext._fscalar_cls = FScalar
