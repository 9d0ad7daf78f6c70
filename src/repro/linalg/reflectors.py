"""Householder reflectors in a compute context.

Every arithmetic operation goes through the context so the kernels behave as
if they were executed on hardware implementing the target format.  The
algorithm bodies are written in the operator form of
:mod:`repro.arithmetic.farray` — ``ctx.wrap`` binds the inputs once and each
operator performs exactly one rounded context operation — so the mathematics
reads like NumPy while the trajectories stay bit-identical to the explicit
``ctx.sub(..., ctx.mul(...))`` spelling (proven in
``tests/test_operator_equivalence.py``).  The routines operate on small dense
matrices (the projected problems of the Krylov-Schur iteration) and
therefore favour clarity over asymptotic performance, with one exception:
:func:`apply_reflector_right` also takes a ``(k, n, n)`` stack of matrices
that share the reflector and updates all of them with the rounding calls of
one, which is how the tridiagonalisation updates ``A`` and ``Q`` together.

Public signatures keep plain ndarrays / work-dtype scalars in and out, so
callers of the explicit context API are unaffected.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "householder_vector",
    "apply_reflector_left",
    "apply_reflector_right",
]


def householder_vector(ctx, x):
    """Compute a Householder reflector annihilating ``x[1:]``.

    Returns ``(v, beta, alpha)`` such that ``(I - beta v v^T) x = alpha e_1``
    with ``|alpha| = ||x||``.  The sign of ``alpha`` is chosen opposite to
    ``x[0]`` for numerical stability.  If ``x`` is (numerically) zero the
    reflector is the identity (``beta = 0``).
    """
    x = ctx.wrap(x)
    n = x.shape[0]
    normx = x.norm2()
    if not normx.isfinite() or float(normx) == 0.0:
        v = np.zeros(n, dtype=ctx.dtype)
        if n:
            v[0] = 1.0
        return v, ctx.dtype(0.0), ctx.dtype(0.0) if float(normx) == 0.0 else normx.value
    # work with the normalised vector: the reflector is scale-invariant and
    # the intermediate quantities stay O(1), which keeps 8-bit formats inside
    # their dynamic range
    xs = x / normx
    sign = -1.0 if float(x[0]) < 0 else 1.0
    alpha = -sign * normx
    v = xs.copy()
    v[0] = xs[0] - (-sign)
    vnorm2 = v.dot(v)
    if not vnorm2.isfinite() or float(vnorm2) == 0.0:
        v = np.zeros(n, dtype=ctx.dtype)
        if n:
            v[0] = 1.0
        return v, ctx.dtype(0.0), alpha.value
    beta = 2.0 / vnorm2
    if not beta.isfinite():
        v = np.zeros(n, dtype=ctx.dtype)
        if n:
            v[0] = 1.0
        return v, ctx.dtype(0.0), alpha.value
    return v.data, beta.value, alpha.value


def apply_reflector_left(ctx, v, beta, A):
    """Apply ``(I - beta v v^T)`` from the left: ``A <- A - beta v (v^T A)``."""
    A = ctx.wrap(A)
    if float(beta) == 0.0:
        return A.data.copy()
    v = ctx.wrap(v)
    beta = ctx.wrap_scalar(beta)
    w = v @ A  # v^T A
    update = (beta * v)[:, np.newaxis] * w[np.newaxis, :]
    return (A - update).data


def apply_reflector_right(ctx, A, v, beta):
    """Apply ``(I - beta v v^T)`` from the right: ``A <- A - beta (A v) v^T``.

    ``A`` is one ``(n, n)`` matrix or a ``(k, n, n)`` stack of matrices that
    share the reflector (the tridiagonalisation's ``[A; Q]``).  A stack is
    updated with one rounding call per step for all its matrices, and each
    matrix gets exactly the values and op tally of updating it alone: the
    products ``A v`` reduce row by row, ``beta * v`` is formed once per
    matrix, and the outer product and the subtraction are elementwise.
    """
    A = ctx.wrap(A)
    if float(beta) == 0.0:
        return A.data.copy()
    n = A.shape[-1]
    w = ctx.wrap(A.data.reshape(-1, n)) @ v  # A v over every row of the stack
    w = ctx.wrap(w.data.reshape(A.shape[:-1] + (1,)))
    bv = ctx.wrap_scalar(beta) * np.broadcast_to(v, A.shape[:-2] + (n,))  # per matrix
    return (A - w * bv[..., np.newaxis, :]).data
