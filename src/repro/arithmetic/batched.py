"""Stacked multi-format execution: a first-class format axis.

The paper's central experiment runs the *same* Krylov-Schur solve once per
number format.  The sequential engine pays the Python-level dispatch of
every rounded elementary operation (the Givens/QL scalar regime) once per
format.  This module introduces a batched execution model in which a stack
of ``(n_formats, ...)`` trajectories advances in lockstep:

* :class:`BatchSpec` binds an *ordered* list of
  :class:`~repro.arithmetic.context.ContextSpec` values and partitions them
  into work-dtype *lanes* (float64, float32, longdouble) — per-row work-dtype
  promotion is handled at this boundary, so every lane computes in exactly
  the dtype its sequential contexts would have used;
* :class:`BatchedContext` owns one context per batch row and exposes the
  same rounded-operation vocabulary as
  :class:`~repro.arithmetic.context.ComputeContext`, operating on stacked
  arrays whose leading axis is the format axis.  Every element of a result
  is rounded by *its own row's* context: each leading-axis entry goes
  through that row's ``round_scalar`` (one value per row) or ``round``
  (anything larger), the same compiled kernel the sequential engine binds
  once per format;
* :class:`BatchedFArray` is the operator-form wrapper over a stacked array
  (the batched sibling of :class:`~repro.arithmetic.farray.FArray`).

Bit identity is the design contract, exactly as for the operator API: for
each batch row, every batched operation performs the *same* work-precision
computation and the *same* rounding as the sequential context would, so the
per-format trajectories of the lockstep solvers
(:mod:`repro.core.lockstep`) are bit-identical to the sequential engine
(proven in ``tests/test_lockstep.py``).  Two properties make this possible:

1. IEEE elementwise operations are deterministic: ``np.add`` on a stacked
   float64 row computes the same bits as the sequential scalar path's
   ``float(a) + float(b)``;
2. every row rounds through its own sequential context, and a format's
   scalar and array entries agree value for value (proven in the
   bit-kernel test suite).
"""

from __future__ import annotations

import numpy as np

from .context import ComputeContext, ContextSpec, NativeContext, get_context

__all__ = ["BatchSpec", "BatchedContext", "BatchedFArray"]


def _as_spec(spec) -> ContextSpec:
    if isinstance(spec, ContextSpec):
        return spec
    if isinstance(spec, str):
        return ContextSpec(format=spec)
    raise TypeError(f"expected ContextSpec or format name, got {type(spec).__name__}")


class BatchSpec:
    """An ordered list of context specs forming one format axis.

    The order is the row order of every stacked array; results are reported
    in the same order.  All specs must agree on ``accumulation`` (mixing
    reduction orders in one lockstep sweep would make the shared index
    bookkeeping ambiguous).

    Rows may also be given as already-built
    :class:`~repro.arithmetic.context.ComputeContext` instances;
    :meth:`build_contexts` then returns those exact instances, so a caller
    (the experiment runner) keeps ownership of per-row state such as the
    rounded-op tally.
    """

    def __init__(self, specs):
        items = list(specs)
        if not items:
            raise ValueError("BatchSpec needs at least one context spec")
        prebuilt: list = []
        canonical: list = []
        for s in items:
            if isinstance(s, ComputeContext):
                prebuilt.append(s)
                canonical.append(ContextSpec(format=s.name, accumulation=s.accumulation))
            else:
                prebuilt.append(None)
                canonical.append(_as_spec(s))
        accumulations = {s.accumulation for s in canonical}
        if len(accumulations) > 1:
            raise ValueError(
                "all batched specs must share one accumulation strategy, got "
                f"{sorted(accumulations)}"
            )
        self.specs = tuple(canonical)
        self._prebuilt = prebuilt
        self.accumulation = self.specs[0].accumulation

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    @property
    def formats(self) -> tuple:
        return tuple(s.format for s in self.specs)

    def build_contexts(self) -> list:
        """One sequential compute context per row, in row order.

        Rows given as prebuilt contexts come back as those instances."""
        return [
            ctx if ctx is not None else get_context(s)
            for ctx, s in zip(self._prebuilt, self.specs)
        ]

    def lanes(self):
        """Partition the rows into work-dtype lanes.

        Returns ``[(contexts, indices), ...]`` where ``indices`` are the
        positions of the lane's rows in the original order.  Each lane is
        dtype-uniform, so a :class:`BatchedContext` can be built per lane
        and the per-row work-dtype promotion happens exactly here — at the
        batch boundary, never inside a kernel.
        """
        contexts = self.build_contexts()
        groups: dict = {}
        order: list = []
        for idx, ctx in enumerate(contexts):
            key = np.dtype(ctx.dtype).name
            if key not in groups:
                groups[key] = ([], [])
                order.append(key)
            groups[key][0].append(ctx)
            groups[key][1].append(idx)
        return [groups[key] for key in order]

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"BatchSpec({list(self.formats)!r})"


class BatchedContext:
    """Rounded stacked operations over one work-dtype lane of a batch.

    The methods mirror :class:`~repro.arithmetic.context.ComputeContext`
    op for op — same work-precision computation, same reduction pairing,
    same branch structure — on arrays whose *leading axis is the format
    axis*.  Every method takes ``rows``: an int array mapping each leading
    index to its batch row, so sub-batches (retirement masks, per-row
    divergence) gather the active rows, operate, and scatter back.

    All rows must share one work dtype (build one context per
    :meth:`BatchSpec.lanes` lane) and one accumulation strategy.
    """

    def __init__(self, contexts):
        if isinstance(contexts, BatchSpec):
            contexts = contexts.build_contexts()
        contexts = list(contexts)
        if not contexts:
            raise ValueError("BatchedContext needs at least one context")
        for ctx in contexts:
            if not isinstance(ctx, ComputeContext):
                raise TypeError("BatchedContext rows must be ComputeContext instances")
        dtypes = {np.dtype(ctx.dtype) for ctx in contexts}
        if len(dtypes) > 1:
            raise ValueError(
                "BatchedContext rows must share one work dtype (split the "
                f"batch into lanes first), got {sorted(d.name for d in dtypes)}"
            )
        accumulations = {ctx.accumulation for ctx in contexts}
        if len(accumulations) > 1:
            raise ValueError("BatchedContext rows must share one accumulation strategy")
        self.rows = tuple(contexts)
        self.nrows = len(contexts)
        self.dtype = contexts[0].dtype
        self.accumulation = contexts[0].accumulation
        self.names = tuple(ctx.name for ctx in contexts)
        #: every row is native to the lane dtype: rounding is the identity
        self._noop = all(isinstance(ctx, NativeContext) for ctx in contexts)
        #: deferred per-op tallies: (rows, elements-per-row) pairs folded
        #: into the row contexts' op counters at flush_op_counts()
        self._pending_tallies: list = []
        #: identity row-map for full-batch operations
        self.all_rows = np.arange(self.nrows, dtype=np.int64)

    @classmethod
    def from_formats(cls, formats, **spec_kwargs) -> "BatchedContext":
        """Build a single-lane batched context from format names.

        Raises when the formats span several work dtypes; use
        :meth:`BatchSpec.lanes` for mixed-width batches.
        """
        return cls(BatchSpec(ContextSpec(format=f, **spec_kwargs) for f in formats))

    # ------------------------------------------------------------------ #
    # rounding & tallies
    # ------------------------------------------------------------------ #
    def _tally(self, rows, n: int) -> None:
        self._pending_tallies.append((rows, n))

    def flush_op_counts(self) -> None:
        """Fold the deferred per-op tallies into the row contexts.

        The batched ops defer their tallies (appending a pair is far
        cheaper than a scatter-add per elementary op); the lockstep solvers
        flush at phase boundaries so ``ctx.op_count`` of each row stays
        meaningful for records and telemetry.
        """
        pending = self._pending_tallies
        if not pending:
            return
        rows = [r for r, _ in pending]
        counts = np.repeat([n for _, n in pending], [len(r) for r in rows])
        totals = np.zeros(self.nrows, dtype=np.int64)
        np.add.at(totals, np.concatenate(rows), counts)
        pending.clear()
        for i, ctx in enumerate(self.rows):
            if totals[i]:
                ctx.op_count += int(totals[i])

    def round(self, arr: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Round ``arr`` in place, each leading-axis entry ``arr[i]``
        through its own row's context ``rows[i]``, and return it."""
        if self._noop:
            return arr
        contexts = self.rows
        if arr.ndim == 1:
            for i, r in enumerate(rows.tolist()):
                arr[i] = contexts[r].round_scalar(arr[i])
            return arr
        for i, r in enumerate(rows.tolist()):
            row = arr[i]
            contexts[r].round(row, out=row)
        return arr

    # ------------------------------------------------------------------ #
    # elementwise operations (mirroring ComputeContext op for op)
    # ------------------------------------------------------------------ #
    def add(self, a, b, rows, out=None):
        work = np.add(a, b, dtype=self.dtype, out=out)
        self._tally(rows, work.size // len(rows))
        return self.round(work, rows)

    def sub(self, a, b, rows, out=None):
        work = np.subtract(a, b, dtype=self.dtype, out=out)
        self._tally(rows, work.size // len(rows))
        return self.round(work, rows)

    def mul(self, a, b, rows, out=None):
        work = np.multiply(a, b, dtype=self.dtype, out=out)
        self._tally(rows, work.size // len(rows))
        return self.round(work, rows)

    def div(self, a, b, rows, out=None):
        work = np.divide(a, b, dtype=self.dtype, out=out)
        self._tally(rows, work.size // len(rows))
        return self.round(work, rows)

    def sqrt(self, a, rows, out=None):
        a = np.asarray(a, dtype=self.dtype)
        work = np.sqrt(a, out=out)
        if self.dtype is np.float64:
            # the sequential scalar path computes math.sqrt with a negative
            # guard returning +NaN; canonicalise so the bits agree
            neg = a < 0
            if neg.any():
                work[neg] = np.nan
        self._tally(rows, work.size // len(rows))
        return self.round(work, rows)

    def rotate_columns(self, c, s, x, y, rows):
        """Rowwise :meth:`ComputeContext.rotate_columns`.

        ``c`` and ``s`` are ``(R,)``, ``x`` and ``y`` ``(R, n)``; returns
        ``(R, 2, n)`` with ``[:, 0] = c*x - s*y`` and ``[:, 1] = s*x + c*y``.
        The four products of every entry are rounded in one call of its
        row's context and the two results in another, exactly as in the
        sequential op.
        ``rows`` may repeat a row: the lockstep QL applies a wave of several
        rotations per format in one call, one leading entry per rotation.
        """
        cs = np.stack((c, s), axis=-1)
        coef = np.stack((cs, cs[:, ::-1]), axis=1)  # per row [[c, s], [s, c]]
        xy = np.stack((x, y), axis=1)
        prods = np.multiply(coef[:, :, :, None], xy[:, None], dtype=self.dtype)
        self._tally(rows, 6 * xy.shape[-1])
        self.round(prods, rows)
        res = np.empty(xy.shape, dtype=self.dtype)
        np.subtract(prods[:, 0, 0], prods[:, 0, 1], out=res[:, 0])
        np.add(prods[:, 1, 0], prods[:, 1, 1], out=res[:, 1])
        return self.round(res, rows)

    def neg(self, a):
        """Exact negation (sign flips are exact in every supported format)."""
        return np.negative(np.asarray(a, dtype=self.dtype))

    def abs(self, a):
        """Exact magnitude (representable whenever the value is)."""
        return np.abs(np.asarray(a, dtype=self.dtype))

    def hypot(self, a, b, rows):
        """Overflow-safe ``sqrt(a^2 + b^2)``, the scalar-branch structure of
        :meth:`ComputeContext.hypot` applied per row.

        NaN / zero / infinite scales short-circuit exactly like the
        sequential scalar path (no rounded operations for those rows); the
        general rows run the five-operation scaled form in one sub-batch.
        """
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        aa = np.abs(a)
        ab = np.abs(b)
        nanm = np.isnan(aa) | np.isnan(ab)
        scale = np.maximum(aa, ab)
        small = np.minimum(aa, ab)
        zerom = (scale == 0) & ~nanm
        infm = np.isinf(scale) & ~nanm
        general = ~(nanm | zerom | infm)
        if general.all():
            t = self.div(small, scale, rows)
            one = self.dtype(1.0)
            return self.mul(
                scale, self.sqrt(self.add(one, self.mul(t, t, rows), rows), rows), rows
            )
        res = np.empty(scale.shape, dtype=self.dtype)
        res[nanm] = self.dtype(np.nan)
        res[zerom] = self.dtype(0.0)
        res[infm] = self.dtype(np.inf)
        if general.any():
            gi = np.nonzero(general)[0]
            sub_rows = rows[gi]
            t = self.div(small[gi], scale[gi], sub_rows)
            one = self.dtype(1.0)
            res[gi] = self.mul(
                scale[gi],
                self.sqrt(self.add(one, self.mul(t, t, sub_rows), sub_rows), sub_rows),
                sub_rows,
            )
        return res

    # ------------------------------------------------------------------ #
    # reductions & dense kernels
    # ------------------------------------------------------------------ #
    def reduce_last_inplace(self, buf: np.ndarray, rows) -> np.ndarray:
        """Rounded reduction along the last axis of an *owned* buffer.

        Mirrors :meth:`ComputeContext._reduce_last_axis_inplace` exactly:
        the pairwise strategy pairs live partials on a doubling stride, so
        the per-row pairing — and every intermediate rounding — is
        identical to the sequential reduction of each row.
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
                    work = np.add(even, odd)
                    self._tally(rows, work.size // len(rows))
                    self.round(work, rows)
                    even[...] = work
                    count = half + (count & 1)
                    step *= 2
            else:
                acc = np.ascontiguousarray(buf[..., 0])
                for j in range(1, m):
                    self.add(acc, buf[..., j], rows, out=acc)
                return acc
        return np.ascontiguousarray(buf[..., 0])

    def dot(self, x, y, rows) -> np.ndarray:
        """Rowwise inner product ``(R, n) x (R, n) -> (R,)``."""
        return self.reduce_last_inplace(self.mul(x, y, rows), rows)

    def norm2(self, X, rows) -> np.ndarray:
        """Rowwise scaled Euclidean norm ``(R, n) -> (R,)``.

        Mirrors :meth:`ComputeContext.norm2` per row, including the exact
        zero / non-finite scale short-circuits (which perform no rounded
        operations in the sequential path either).
        """
        X = np.asarray(X, dtype=self.dtype)
        nrows = X.shape[0]
        if X.shape[-1] == 0:
            return np.zeros(nrows, dtype=self.dtype)
        scale = np.max(np.abs(X), axis=-1)
        res = np.empty(nrows, dtype=self.dtype)
        nanm = np.isnan(scale)
        infm = np.isinf(scale) & ~nanm
        zerom = (scale == 0) & ~nanm
        general = ~(nanm | infm | zerom)
        res[nanm] = self.dtype(np.nan)
        res[infm] = self.dtype(np.inf)
        res[zerom] = self.dtype(0.0)
        if general.all():
            xs = self.div(X, scale[:, None], rows)
            return self.mul(scale, self.sqrt(self.dot(xs, xs, rows), rows), rows)
        if general.any():
            gi = np.nonzero(general)[0]
            sub_rows = rows[gi]
            xs = self.div(X[gi], scale[gi][:, None], sub_rows)
            res[gi] = self.mul(
                scale[gi], self.sqrt(self.dot(xs, xs, sub_rows), sub_rows), sub_rows
            )
        return res

    def gemv(self, M, x, rows) -> np.ndarray:
        """Rowwise ``M @ x``: ``(R, m, n) x (R, n) -> (R, m)``."""
        M = np.asarray(M, dtype=self.dtype)
        x = np.asarray(x, dtype=self.dtype)
        if M.shape[2] == 0:
            return np.zeros(M.shape[:2], dtype=self.dtype)
        prods = self.mul(M, x[:, None, :], rows)
        return self.reduce_last_inplace(prods, rows)

    def gemv_t(self, M, x, rows) -> np.ndarray:
        """Rowwise ``M.T @ x``: ``(R, n, m) x (R, n) -> (R, m)``."""
        M = np.asarray(M, dtype=self.dtype)
        x = np.asarray(x, dtype=self.dtype)
        if M.shape[1] == 0:
            return np.zeros((M.shape[0], M.shape[2]), dtype=self.dtype)
        prods = self.mul(np.swapaxes(M, 1, 2), x[:, None, :], rows)
        return self.reduce_last_inplace(prods, rows)

    def gemm(self, A, B, rows) -> np.ndarray:
        """Rowwise ``A @ B``: ``(R, m, k) x (R, k, p) -> (R, m, p)``."""
        A = np.asarray(A, dtype=self.dtype)
        B = np.asarray(B, dtype=self.dtype)
        if A.shape[2] != B.shape[1]:
            raise ValueError("gemm dimension mismatch")
        if A.shape[2] == 0:
            return np.zeros((A.shape[0], A.shape[1], B.shape[2]), dtype=self.dtype)
        prods = self.mul(A[:, :, :, None], B[:, None, :, :], rows)
        return self.reduce_last_inplace(np.moveaxis(prods, 2, -1), rows)

    def spmv(self, data, indices, indptr, X, rows) -> np.ndarray:
        """Rowwise sparse CSR product over a *shared* sparsity pattern.

        ``data`` is the stacked per-row matrix values ``(R, nnz)`` (each row
        already converted into its format); ``X`` the stacked operand
        ``(R, n)``.  The segmented reduction mirrors
        :meth:`ComputeContext._segmented_reduce` — the index bookkeeping is
        row-independent because the pattern is shared, so the per-row
        pairing matches the sequential kernel exactly.
        """
        X = np.asarray(X, dtype=self.dtype)
        data = np.asarray(data, dtype=self.dtype)
        nrows_mat = len(indptr) - 1
        if data.shape[1] == 0:
            return np.zeros((data.shape[0], nrows_mat), dtype=self.dtype)
        prods = self.mul(data, X[:, indices], rows)
        return self._segmented_reduce(prods, indptr, nrows_mat, rows)

    def _segmented_reduce(self, vals, indptr, nseg, rows) -> np.ndarray:
        counts = np.diff(indptr).astype(np.int64)
        out = np.zeros((vals.shape[0], nseg), dtype=self.dtype)
        if vals.shape[1] == 0:
            return out
        if self.accumulation == "sequential":
            starts = np.asarray(indptr[:-1], dtype=np.int64)
            acc_rows = np.nonzero(counts > 0)[0]
            out[:, acc_rows] = vals[:, starts[acc_rows]]
            k = 1
            while True:
                segs = np.nonzero(counts > k)[0]
                if segs.size == 0:
                    break
                out[:, segs] = self.add(out[:, segs], vals[:, starts[segs] + k], rows)
                k += 1
            return out
        vals = np.array(vals, dtype=self.dtype, copy=True)
        counts = counts.copy()
        while counts.max(initial=0) > 1:
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            segid = np.repeat(np.arange(nseg), counts)
            local = np.arange(vals.shape[1]) - starts[segid]
            count_per_elem = counts[segid]
            is_left = (local % 2 == 0) & (local + 1 < count_per_elem)
            is_single = (local % 2 == 0) & (local + 1 >= count_per_elem)
            keep = is_left | is_single
            left_idx = np.nonzero(is_left)[0]
            merged = self.add(vals[:, left_idx], vals[:, left_idx + 1], rows)
            new_vals = vals[:, keep].copy()
            positions = np.cumsum(keep)[left_idx] - 1
            new_vals[:, positions] = merged
            vals = new_vals
            counts = (counts + 1) // 2
        nonempty = np.nonzero(counts == 1)[0]
        out[:, nonempty] = vals
        return out


class BatchedFArray:
    """A stacked array bound to a :class:`BatchedContext`.

    The batched sibling of :class:`~repro.arithmetic.farray.FArray`: the
    leading axis of :attr:`data` is the format axis, operators route
    through the batched rounded kernels, and every row of every result is
    rounded by its own format.  Construction does not round (``wrap``
    semantics — the in-solver fast path); use :meth:`BatchedContext.round`
    on raw input first when representability is not guaranteed.

    The per-row trajectories of operator chains are bit-identical to
    running the same chain on each row's sequential
    :class:`~repro.arithmetic.farray.FArray` — the migration contract of
    ``docs/api.md``.
    """

    __slots__ = ("ctx", "data", "rows")

    def __init__(self, ctx: BatchedContext, data, rows=None):
        self.ctx = ctx
        self.data = np.asarray(data, dtype=ctx.dtype)
        self.rows = ctx.all_rows if rows is None else np.asarray(rows, dtype=np.int64)
        if self.data.shape[0] != len(self.rows):
            raise ValueError(
                f"leading (format) axis {self.data.shape[0]} does not match "
                f"the row map of length {len(self.rows)}"
            )

    @property
    def shape(self):
        return self.data.shape

    @property
    def nrows(self) -> int:
        return int(self.data.shape[0])

    def row(self, i: int):
        """Row ``i`` unwrapped, bound to its own sequential context as an
        :class:`~repro.arithmetic.farray.FArray` (lockstep -> sequential
        hand-off)."""
        return self.ctx.rows[self.rows[i]].wrap(self.data[i])

    def copy(self) -> "BatchedFArray":
        return BatchedFArray(self.ctx, self.data.copy(), self.rows)

    def _operand(self, other):
        if isinstance(other, BatchedFArray):
            if other.ctx is not self.ctx:
                from .farray import ContextMismatchError

                raise ContextMismatchError(
                    "/".join(self.ctx.names), "/".join(other.ctx.names)
                )
            return other.data
        if isinstance(other, (int, float, np.floating, np.integer, np.ndarray)):
            return other
        return None

    def _binary(self, op, other):
        od = self._operand(other)
        if od is None:
            return NotImplemented
        return BatchedFArray(self.ctx, op(self.data, od, self.rows), self.rows)

    def __add__(self, other):
        return self._binary(self.ctx.add, other)

    def __sub__(self, other):
        return self._binary(self.ctx.sub, other)

    def __mul__(self, other):
        return self._binary(self.ctx.mul, other)

    def __truediv__(self, other):
        return self._binary(self.ctx.div, other)

    def __radd__(self, other):
        od = self._operand(other)
        if od is None:
            return NotImplemented
        return BatchedFArray(self.ctx, self.ctx.add(od, self.data, self.rows), self.rows)

    def __rmul__(self, other):
        od = self._operand(other)
        if od is None:
            return NotImplemented
        return BatchedFArray(self.ctx, self.ctx.mul(od, self.data, self.rows), self.rows)

    def __neg__(self):
        return BatchedFArray(self.ctx, self.ctx.neg(self.data), self.rows)

    def __abs__(self):
        return BatchedFArray(self.ctx, self.ctx.abs(self.data), self.rows)

    def sqrt(self) -> "BatchedFArray":
        return BatchedFArray(self.ctx, self.ctx.sqrt(self.data.copy(), self.rows), self.rows)

    def dot(self, other) -> "BatchedFArray":
        od = self._operand(other)
        return BatchedFArray(self.ctx, self.ctx.dot(self.data, od, self.rows), self.rows)

    def norm2(self) -> "BatchedFArray":
        return BatchedFArray(self.ctx, self.ctx.norm2(self.data, self.rows), self.rows)

    def hypot(self, other) -> "BatchedFArray":
        od = self._operand(other)
        return BatchedFArray(self.ctx, self.ctx.hypot(self.data, od, self.rows), self.rows)

    def __matmul__(self, other):
        od = self._operand(other)
        if od is None:
            return NotImplemented
        sd = self.data
        if sd.ndim == 3:
            res = self.ctx.gemv(sd, od, self.rows) if od.ndim == 2 else self.ctx.gemm(sd, od, self.rows)
        elif od.ndim == 3:
            res = self.ctx.gemv_t(od, sd, self.rows)  # x @ M == M^T x, per row
        else:
            res = self.ctx.dot(sd, od, self.rows)
        return BatchedFArray(self.ctx, res, self.rows)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"BatchedFArray(shape={self.data.shape}, formats={self.ctx.names!r})"
