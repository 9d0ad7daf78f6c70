"""Symmetric eigendecomposition of a stacked format axis, row by row.

Batched entry points of :mod:`repro.linalg.tridiagonal` over a
:class:`~repro.arithmetic.batched.BatchedContext`: each batch row runs the
sequential :func:`~repro.linalg.tridiagonal.tridiagonalize` and
:func:`~repro.linalg.tridiagonal.tridiagonal_eigen` in its own context, so
each row is one compiled ``tridiagonalize`` and one ``ql`` call, with the
row's op tally and its own ``tridiagonal.reduce`` and
``tridiagonal.ql`` trace spans.  A row whose QL iteration fails (the
paper's ∞ω regime) does not stop the others: its
:class:`~repro.linalg.tridiagonal.EigenConvergenceError` message goes into
the returned ``errors`` list instead.

This module is off the solve path: a batched solve
(:func:`repro.core.lockstep.batched_partialschur`) runs each row through
:func:`repro.core.krylov_schur.partialschur`, whose Ritz step calls
:func:`~repro.linalg.tridiagonal.symmetric_eigen` directly.  It stays only
because the figure benchmark's trace targets patch
:func:`lockstep_tridiagonalize` and :func:`lockstep_tridiagonal_eigen`; it
goes together with those targets.
"""

from __future__ import annotations

import numpy as np

from ..arithmetic.batched import BatchedContext
from .tridiagonal import EigenConvergenceError, tridiagonal_eigen, tridiagonalize

__all__ = [
    "lockstep_symmetric_eigen",
    "lockstep_tridiagonalize",
    "lockstep_tridiagonal_eigen",
]


def lockstep_tridiagonalize(bctx: BatchedContext, A, rows):
    """Householder tridiagonalisation, one format per row.

    ``A`` is ``(R, n, n)``; returns ``(d, e, Q)`` stacked the same way,
    each row the :func:`~repro.linalg.tridiagonal.tridiagonalize` of
    ``A[i]`` in the context of batch row ``rows[i]``.
    """
    parts = [tridiagonalize(bctx.rows[r], A[i]) for i, r in enumerate(rows.tolist())]
    return tuple(np.stack(part) for part in zip(*parts))


def lockstep_tridiagonal_eigen(bctx: BatchedContext, d, e, Z, rows, max_sweeps: int = 60):
    """Implicit-shift QL iteration, one format per row.

    ``d`` is ``(R, n)``, ``e`` ``(R, n - 1)``, ``Z`` ``(R, n, n)`` (or
    ``None`` for identity).  Returns ``(w, Z, errors)`` where ``errors`` is
    a per-row list of ``None`` or the message of the
    :class:`EigenConvergenceError` the row's
    :func:`~repro.linalg.tridiagonal.tridiagonal_eigen` raised (a failed
    row's ``w``/``Z`` are its inputs, as the exception discards them).
    """
    w = np.array(d, dtype=bctx.dtype)
    nb, n = w.shape
    Zout = (
        np.broadcast_to(np.eye(n, dtype=bctx.dtype), (nb, n, n)).copy()
        if Z is None
        else np.array(Z, dtype=bctx.dtype)
    )
    errors: list = [None] * nb
    for i, r in enumerate(rows.tolist()):
        try:
            w[i], Zout[i] = tridiagonal_eigen(
                bctx.rows[r], w[i], e[i], Zout[i], max_sweeps=max_sweeps
            )
        except EigenConvergenceError as exc:
            errors[i] = str(exc)
    return w, Zout, errors


def lockstep_symmetric_eigen(bctx: BatchedContext, A, rows, max_sweeps: int = 60):
    """Batched :func:`repro.linalg.tridiagonal.symmetric_eigen`.

    ``A`` is ``(R, m, m)``; returns ``(w, V, errors)`` stacked, with
    per-row trajectories bit-identical to the sequential kernel and
    ``errors[a]`` carrying the message of the
    :class:`~repro.linalg.tridiagonal.EigenConvergenceError` the
    sequential solver would have raised for that row (or ``None``).
    """
    A = np.asarray(A, dtype=bctx.dtype)
    nb, m, m2 = A.shape
    if m != m2:
        raise ValueError("lockstep_symmetric_eigen requires square matrices")
    errors: list = [None] * nb
    if m == 0:
        return (
            np.zeros((nb, 0), dtype=bctx.dtype),
            np.zeros((nb, 0, 0), dtype=bctx.dtype),
            errors,
        )
    if m == 1:
        return (
            np.ascontiguousarray(A[:, 0, :1]),
            np.ones((nb, 1, 1), dtype=bctx.dtype),
            errors,
        )
    # sym = 0.5 * (A + A^T), two rounded operations exactly as sequential
    sym = bctx.mul(
        bctx.dtype(0.5), bctx.add(A, np.swapaxes(A, 1, 2), rows), rows
    )
    d, e, Q = lockstep_tridiagonalize(bctx, sym, rows)
    return lockstep_tridiagonal_eigen(bctx, d, e, Q, rows, max_sweeps=max_sweeps)
