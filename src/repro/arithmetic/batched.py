"""Stacked multi-format execution: a first-class format axis.

The paper's central experiment runs the *same* Krylov-Schur solve once per
number format.  This module lets the lockstep solver
(:mod:`repro.core.lockstep`) advance a stack of ``(n_formats, ...)``
trajectories together:

* :class:`BatchSpec` binds an *ordered* list of
  :class:`~repro.arithmetic.context.ContextSpec` values and partitions them
  into work-dtype *lanes* (float64, float32, longdouble) — per-row work-dtype
  promotion is handled at this boundary, so every lane computes in exactly
  the dtype its sequential contexts would have used;
* :class:`BatchedContext` owns one context per batch row and runs the
  solver's operations on stacked arrays whose leading axis is the format
  axis.  An elementwise operation is one NumPy ufunc over the whole stack,
  then each leading-axis entry is rounded through *its own row's* context
  (``round_scalar`` for one value per row, ``round`` for anything larger).
  A reduction (``norm2``, ``gemv``, ``gemv_t``, ``gemm``, the sums of
  ``spmv``) is the row context's own method, called row by row, so each
  row takes the one compiled ``reduce`` of its sequential context.

Bit identity is the design contract: for each batch row, every batched
operation performs the *same* work-precision computation and the *same*
rounding as the sequential context would, so the per-format trajectories
of the lockstep solver are bit-identical to the sequential engine (proven
in ``tests/test_lockstep.py``).  IEEE elementwise operations are
deterministic — ``np.add`` on a stacked float64 row computes the same bits
as the sequential path — and everything else is the row's own context.
"""

from __future__ import annotations

import numpy as np

from .context import ComputeContext, ContextSpec, NativeContext, get_context

__all__ = ["BatchSpec", "BatchedContext"]


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
    op for op on arrays whose *leading axis is the format axis*.  Every
    method takes ``rows``: an int array mapping each leading index to its
    batch row, so sub-batches (retirement masks, per-row
    divergence) gather the active rows, operate, and scatter back.

    All rows must share one work dtype (build one context per
    :meth:`BatchSpec.lanes` lane) and one accumulation strategy.
    """

    def __init__(self, contexts):
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
        #: every row is native to the lane dtype: rounding is the identity
        self._noop = all(isinstance(ctx, NativeContext) for ctx in contexts)
        #: deferred per-op tallies: (rows, elements-per-row) pairs folded
        #: into the row contexts' op counters at flush_op_counts()
        self._pending_tallies: list = []
        #: identity row-map for full-batch operations
        self.all_rows = np.arange(self.nrows, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # rounding & tallies
    # ------------------------------------------------------------------ #
    def _tally(self, rows, n: int) -> None:
        self._pending_tallies.append((rows, n))

    def flush_op_counts(self) -> None:
        """Fold the deferred per-op tallies into the row contexts.

        The elementwise ops defer their tallies (appending a pair is far
        cheaper than a scatter-add per elementary op); the reductions tally
        in the row contexts as they run.  The lockstep solver flushes
        before it publishes the rows' op counts.
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
    def add(self, a, b, rows):
        work = np.add(a, b, dtype=self.dtype)
        self._tally(rows, work.size // len(rows))
        return self.round(work, rows)

    def sub(self, a, b, rows):
        work = np.subtract(a, b, dtype=self.dtype)
        self._tally(rows, work.size // len(rows))
        return self.round(work, rows)

    def mul(self, a, b, rows):
        work = np.multiply(a, b, dtype=self.dtype)
        self._tally(rows, work.size // len(rows))
        return self.round(work, rows)

    def div(self, a, b, rows):
        work = np.divide(a, b, dtype=self.dtype)
        self._tally(rows, work.size // len(rows))
        return self.round(work, rows)

    # ------------------------------------------------------------------ #
    # reductions & dense kernels
    # ------------------------------------------------------------------ #
    # Every reduction runs row by row through the row's own context: one
    # compiled ``reduce`` per row, with that row's pairing, roundings and
    # op tally by construction.

    def _per_row(self, rows, call) -> np.ndarray:
        """Stack ``call(ctx, i)`` over the leading-axis entries ``i``, each
        with its row's own context ``ctx``."""
        contexts = self.rows
        return np.array(
            [call(contexts[r], i) for i, r in enumerate(rows.tolist())], dtype=self.dtype
        )

    def norm2(self, X, rows) -> np.ndarray:
        """Rowwise scaled Euclidean norm ``(R, n) -> (R,)``."""
        return self._per_row(rows, lambda ctx, i: ctx.norm2(X[i]))

    def gemv(self, M, x, rows) -> np.ndarray:
        """Rowwise ``M @ x``: ``(R, m, n) x (R, n) -> (R, m)``."""
        return self._per_row(rows, lambda ctx, i: ctx.gemv(M[i], x[i]))

    def gemv_t(self, M, x, rows) -> np.ndarray:
        """Rowwise ``M.T @ x``: ``(R, n, m) x (R, n) -> (R, m)``."""
        return self._per_row(rows, lambda ctx, i: ctx.gemv_t(M[i], x[i]))

    def gemm(self, A, B, rows) -> np.ndarray:
        """Rowwise ``A @ B``: ``(R, m, k) x (R, k, p) -> (R, m, p)``."""
        return self._per_row(rows, lambda ctx, i: ctx.gemm(A[i], B[i]))

    def spmv(self, data, indices, indptr, X, rows) -> np.ndarray:
        """Rowwise sparse CSR product over a *shared* sparsity pattern.

        ``data`` is the stacked per-row matrix values ``(R, nnz)`` (each row
        already converted into its format); ``X`` the stacked operand
        ``(R, n)``.  The products are one stacked multiply; each row's
        segment sums are its own context's
        :meth:`~repro.arithmetic.context.ComputeContext._segmented_reduce`.
        """
        if data.shape[1] == 0:
            return np.zeros((data.shape[0], len(indptr) - 1), dtype=self.dtype)
        prods = self.mul(data, np.asarray(X, dtype=self.dtype)[:, indices], rows)
        return self._per_row(rows, lambda ctx, i: ctx._segmented_reduce(prods[i], indptr))
