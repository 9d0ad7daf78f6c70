"""Symmetric eigenvalue decomposition in a compute context.

The projected matrices of the Krylov-Schur iteration are symmetric (the study
restricts itself to symmetric inputs, for which the partial Schur form is a
spectral decomposition).  Their eigendecomposition is computed LAPACK-free so
that it can run in any emulated arithmetic:

1. Householder tridiagonalisation ``Q0^T A Q0 = T`` (:func:`tridiagonalize`),
2. implicit-shift QL iteration with eigenvector accumulation
   (:func:`tridiagonal_eigen`), following the classic EISPACK ``tql2``
   algorithm.

These two loops are the solver's innermost code: every restart of the
Krylov-Schur iteration runs them on the projected matrix, one rounded
scalar or small-array operation at a time, where the wrapper objects and
method calls of the operator API (:mod:`repro.arithmetic.farray`) and the
fixed cost of each rounding call outweigh the arithmetic itself.

Both therefore run in C, as two entries of the compiled rounding kernel
(:mod:`repro.arithmetic._rounding`), each one call per solve:

* ``tridiagonalize`` reduces ``A`` (EISPACK ``tred2``; Golub & Van Loan,
  "Matrix Computations", Alg. 8.3.1) with the accumulated ``Q``, stacked in
  one ``(2, n, n)`` buffer ``[A; Q]`` that it updates in place, in the work
  type of the context.  Column ``k`` gets the reflector of ``A[k+1:, k]``:
  the norm scaled by ``max |x|`` (``scale * sqrt((x/scale).(x/scale))``),
  ``v = x / normx`` with ``v[0] + sign(x[0])``, ``v.v`` and
  ``beta = 2 / v.v``; a zero or non-finite norm or ``v.v`` (or a
  non-finite ``beta``) skips the reflector.  Then ``A`` is updated from
  the left (``A^T v``, ``beta v``, the outer product, the difference) and
  the whole stack from the right (``S v`` over its ``2n`` rows, ``beta v``
  per matrix, the outer product, the difference), with ``v`` zero above
  row ``k + 1``: each rounding pass covers both matrices, and each matrix
  gets the values and op tally of updating it alone.  Every op is the
  operator spelling's op on the same values in the same order: an
  elementwise op is one rounding pass, a tree level of a dot or
  matrix-vector product one pass (a sequential accumulation adds left to
  right, one pass per column, or one scalar op per addition of a dot),
  counted as one call of the kernel, and a scalar op rounds at once.  The
  entry returns the op tally, the reflectors it skipped and the first step
  after which the stack held a non-finite value (the ``skipped`` and
  ``first_nonfinite`` of the ``tridiagonal.reduce`` trace span).
* ``ql`` runs the recurrence on ``d``/``e`` in place, in the work type of
  the context (``double``, x87 ``long double`` for posit64/takum64 and the
  reference context, ``float`` for float32), with the scaled five-op
  ``hypot`` of :meth:`~repro.arithmetic.context.ComputeContext.hypot`.
  Every op is the same op on the same values in the same order as the
  operator spelling ``ctx.add(ctx.mul(...))``, and rounds at once through
  the step of the format's kernel, since the next op reads it.  The
  deflation test reads the values as float64 (exact comparisons, not
  arithmetic in the target format).  Each Givens step is applied to the
  eigenvectors as soon as it is formed, as EISPACK ``tql2`` does: columns
  ``i`` and ``i + 1`` of ``Z`` are the contiguous rows of a ``Z^T`` copy,
  and the four products ``c*x, s*y, s*x, c*y`` and the results
  ``c*x - s*y`` and ``s*x + c*y`` round elementwise in one pass, counted
  as one call of the kernel (``6 * nrows`` ops, the tally of the six
  rounded ops of the operator spelling).  A
  failed iteration keeps the rotations it applied, so it tallies the ops
  of the step-by-step spelling.  The entry returns the op tally, the exit
  status, the number of zero rotation radii (steps that restarted the
  sweep; the ``restarts`` of the ``tridiagonal.ql`` trace span), and the
  Givens steps applied (its ``rotations``).

:meth:`~repro.arithmetic.context.ComputeContext.compiled_rounding` says
how the entries round in a context: through the format's kernel (by its
rule alone with the bit-kernel switch off), or not at all (the native
dtypes).  The golden digests pin both entries in every
format (``tests/test_golden_digests.py``), and
``tests/test_operator_equivalence.py`` checks them against the explicit
``ctx.add(ctx.mul(...))`` spelling in both switch positions.

In very low precision the QL iteration may fail to deflate; this is reported
as :class:`EigenConvergenceError` and surfaces as the paper's ∞ω
(no-convergence) marker in the experiments.
"""

from __future__ import annotations

import numpy as np

from ..arithmetic import bitkernels as _bitkernels
from ..telemetry import trace as _trace

__all__ = [
    "EigenConvergenceError",
    "tridiagonalize",
    "tridiagonal_eigen",
    "symmetric_eigen",
]


class EigenConvergenceError(RuntimeError):
    """The iterative eigensolver failed to converge in the target arithmetic."""


#: the failure statuses of the compiled ``ql``: a non-finite value, and a
#: sweep budget exhausted
_NONFINITE, _SWEEPS = 1, 2


def tridiagonalize(ctx, A):
    """Householder tridiagonalisation of a symmetric matrix.

    Returns ``(d, e, Q)`` with ``Q^T A Q`` (numerically) tridiagonal, ``d``
    its diagonal, ``e`` its subdiagonal (length ``n - 1``) and ``Q``
    orthogonal.  All operations are carried out in the context arithmetic,
    in one call of the compiled ``tridiagonalize``; the ``tridiagonal.reduce``
    trace span reports the reflectors it ``skipped`` and the step after
    which a value first went non-finite (``first_nonfinite``, ``None`` if
    none did).
    """
    with _trace.span("tridiagonal.reduce", fmt=ctx.name) as sp:
        A = np.asarray(A, dtype=ctx.dtype)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("tridiagonalize requires a square matrix")
        n = A.shape[0]
        AQ = np.empty((2, n, n), dtype=ctx.dtype)
        AQ[0] = A
        AQ[1] = np.eye(n, dtype=ctx.dtype)
        ops, skipped, first_nonfinite = _bitkernels.extension().tridiagonalize(
            AQ, ctx.accumulation == "sequential", ctx.compiled_rounding()
        )
        ctx.op_count += ops
        sp.set(skipped=skipped, first_nonfinite=first_nonfinite)
        A, Q = AQ
        return np.diagonal(A).copy(), np.diagonal(A, -1).copy(), Q


def tridiagonal_eigen(ctx, d, e, Z=None, max_sweeps: int = 60):
    """Implicit-shift QL iteration for a symmetric tridiagonal matrix.

    Parameters
    ----------
    ctx:
        Compute context providing the arithmetic.
    d, e:
        Diagonal (length ``n``) and subdiagonal (length ``n - 1``).
    Z:
        Matrix whose columns are rotated along with the iteration; pass the
        orthogonal factor of :func:`tridiagonalize` to obtain eigenvectors of
        the original matrix, or ``None`` for the identity.
    max_sweeps:
        Maximum number of QL sweeps per eigenvalue before giving up.

    Returns
    -------
    (w, Z):
        Eigenvalues (in the order produced by the iteration) and the matrix
        whose columns are the corresponding eigenvectors.

    Raises
    ------
    EigenConvergenceError
        If a sweep budget is exhausted or non-finite values appear (both are
        common failure modes of 8-bit arithmetic).
    """
    with _trace.span("tridiagonal.ql", fmt=ctx.name) as sp:
        d_full = np.array(np.asarray(d, dtype=ctx.dtype), copy=True)
        n = d_full.shape[0]
        e_full = np.zeros(n, dtype=ctx.dtype)
        if n > 1:
            e_full[: n - 1] = np.asarray(e, dtype=ctx.dtype)[: n - 1]
        if Z is None:
            ZT = np.eye(n, dtype=ctx.dtype)
        else:
            # always a copy: ql rotates it in place
            ZT = np.array(np.asarray(Z, dtype=ctx.dtype).T, order="C")
        ops, status, low, restarts, rotations = _bitkernels.extension().ql(
            d_full, e_full, ZT, max_sweeps, float(ctx.machine_epsilon), ctx.compiled_rounding()
        )
        ctx.op_count += ops
        sp.set(rotations=rotations, restarts=restarts)
        if status == _NONFINITE:
            raise EigenConvergenceError("non-finite values during QL iteration")
        if status == _SWEEPS:
            raise EigenConvergenceError(
                f"QL iteration did not deflate eigenvalue {low} within "
                f"{max_sweeps} sweeps in {ctx.name}"
            )
        return d_full, ZT.T


def symmetric_eigen(ctx, A, max_sweeps: int = 60):
    """Spectral decomposition of a symmetric matrix in the context arithmetic.

    The matrix is symmetrised (``(A + A^T) / 2`` with rounded operations, as
    the projected Arnoldi matrix is only symmetric up to rounding), reduced to
    tridiagonal form and diagonalised with the implicit QL iteration.

    Returns ``(w, V)`` with ``A @ V[:, j] ≈ w[j] * V[:, j]``.
    """
    A = np.asarray(A, dtype=ctx.dtype)
    if A.shape[0] != A.shape[1]:
        raise ValueError("symmetric_eigen requires a square matrix")
    if A.shape[0] == 0:
        return np.zeros(0, dtype=ctx.dtype), np.zeros((0, 0), dtype=ctx.dtype)
    if A.shape[0] == 1:
        return A[0, :1].copy(), np.ones((1, 1), dtype=ctx.dtype)
    d, e, Q = tridiagonalize(ctx, ctx.mul(0.5, ctx.add(A, A.T)))
    return tridiagonal_eigen(ctx, d, e, Z=Q, max_sweeps=max_sweeps)
