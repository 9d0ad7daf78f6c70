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
fixed cost of each rounding call outweigh the arithmetic itself.  They are
therefore written for dispatch cost:

* the QL recurrence works on raw work-dtype scalars and spells each rounded
  operation ``rs(a * b)`` with ``rs = ctx.round_scalar``, looked up once per
  call (never cached at import or on the context, so a ``round_scalar``
  patched on the class is still the one that runs).  The rotation radius
  comes from ``ctx.hypot``, and exact zeros are stored without a rounding
  call.  Each step adds its op count to
  ``ctx.op_count`` once, when its ops are done, so a raised
  :class:`EigenConvergenceError` tallies exactly the ops performed;
* the Householder reduction keeps ``A`` and the accumulated ``Q`` stacked in
  one buffer, so one :func:`~repro.linalg.reflectors.apply_reflector_right`
  call updates both: each rounding call covers both matrices.

The invariant is the operator form's: the same rounded operations on the
same values in the same order, and the same op tally
(``tests/test_operator_equivalence.py`` checks the QL recurrence against the
explicit ``ctx.add(ctx.mul(...))`` spelling, the golden digests pin both
kernels in every format).  Convergence scans and deflation thresholds read
the raw buffers — they are exact float comparisons, not arithmetic in the
target format.

The eigenvector matrix never feeds back into the ``d``/``e`` recurrence, so
its update is deferred: each Givens step only records ``(i, c, s)``, and the
whole sequence is applied once the iteration ends — also when it raises, so
a failed solve tallies the same ops.  :func:`wavefront_schedule` groups the
recorded rotations into waves (Van Zee, van de Geijn & Quintana-Ortí,
"Restructuring the tridiagonal and bidiagonal QR algorithms for
performance", ACM TOMS 40(3), 2014): a rotation joins the wave after the
last one that touched either of its two columns.  Rotations in one wave act
on disjoint column pairs and are applied by one fused
``ctx.rotate_columns`` call (six rounded ops per element, two rounding
calls per wave instead of per step).  Rotations that share a column keep
their original order, so every element of ``Z`` sees the same rounded
operations on the same values in the same order: the result is
bit-identical to rotating step by step.

In very low precision the QL iteration may fail to deflate; this is reported
as :class:`EigenConvergenceError` and surfaces as the paper's ∞ω
(no-convergence) marker in the experiments.
"""

from __future__ import annotations

import numpy as np

from ..telemetry import trace as _trace
from .reflectors import apply_reflector_left, apply_reflector_right, householder_vector

__all__ = [
    "EigenConvergenceError",
    "tridiagonalize",
    "tridiagonal_eigen",
    "symmetric_eigen",
    "wavefront_schedule",
]


class EigenConvergenceError(RuntimeError):
    """The iterative eigensolver failed to converge in the target arithmetic."""


def tridiagonalize(ctx, A):
    """Householder tridiagonalisation of a symmetric matrix.

    Returns ``(d, e, Q)`` with ``Q^T A Q`` (numerically) tridiagonal, ``d``
    its diagonal, ``e`` its subdiagonal (length ``n - 1``) and ``Q``
    orthogonal.  All operations are carried out in the context arithmetic.
    """
    with _trace.span("tridiagonal.reduce", fmt=ctx.name):
        return _tridiagonalize(ctx, A)


def _tridiagonalize(ctx, A):
    A = np.asarray(A, dtype=ctx.dtype)
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError("tridiagonalize requires a square matrix")
    # [A; Q] share every right reflector: one stacked update rounds both
    AQ = np.empty((2, n, n), dtype=ctx.dtype)
    AQ[0] = A
    AQ[1] = np.eye(n, dtype=ctx.dtype)
    for k in range(n - 2):
        x = AQ[0, k + 1 :, k]
        v_small, beta, _ = householder_vector(ctx, x)
        if float(beta) == 0.0:
            continue
        v = np.zeros(n, dtype=ctx.dtype)
        v[k + 1 :] = v_small
        AQ[0] = apply_reflector_left(ctx, v, beta, AQ[0])
        AQ = apply_reflector_right(ctx, AQ, v, beta)
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
            Z_full = np.eye(n, dtype=ctx.dtype)
        else:
            Z_full = np.array(np.asarray(Z, dtype=ctx.dtype), copy=True)
        cols: list = []
        cs: list = []
        ss: list = []
        try:
            _ql_recurrence(ctx, d_full, e_full, max_sweeps, cols, cs, ss)
        finally:
            # a raised EigenConvergenceError still pays for the rotations
            # it recorded, so op tallies match the step-by-step update
            waves = _apply_rotations(ctx, Z_full, cols, cs, ss)
            sp.set(rotations=len(cols), waves=waves)
        return d_full, Z_full


def wavefront_schedule(cols, ncols: int) -> list:
    """Group a Givens sequence into waves of disjoint column pairs.

    Rotation ``k`` acts on columns ``(cols[k], cols[k] + 1)`` of a matrix
    with ``ncols`` columns.  It goes in the wave after the last one that
    touched either of its columns, so rotations in one wave touch disjoint
    columns and rotations that share a column stay in their original order.
    Returns the waves in application order, each a list of rotation
    indices in ascending order.

    The lockstep engine schedules every batch row with this function at
    once by numbering the columns of row ``a`` from ``a * n``: the rows'
    column ranges are disjoint, so each row gets the waves it would get
    alone.
    """
    last = [0] * ncols
    waves: list = []
    for k, i in enumerate(cols):
        w = max(last[i], last[i + 1])
        last[i] = last[i + 1] = w + 1
        if w == len(waves):
            waves.append([k])
        else:
            waves[w].append(k)
    return waves


def _apply_rotations(ctx, Z, cols, cs, ss) -> int:
    """Apply the recorded Givens sequence to the columns of ``Z`` in place,
    one fused ``rotate_columns`` call per wave; returns the wave count."""
    if not cols:
        return 0
    waves = wavefront_schedule(cols, Z.shape[1])
    cols = np.asarray(cols)
    cs = np.asarray(cs, dtype=ctx.dtype)
    ss = np.asarray(ss, dtype=ctx.dtype)
    for k in waves:
        i = cols[k]
        rot = ctx.rotate_columns(cs[k], ss[k], Z[:, i], Z[:, i + 1])
        Z[:, i] = rot[0]
        Z[:, i + 1] = rot[1]
    return len(waves)


def _ql_recurrence(ctx, d, e, max_sweeps, cols, cs, ss):
    """The QL iteration on ``d``/``e`` in place, recording each Givens step
    of the eigenvector update as ``(i, c, s)`` in ``cols``/``cs``/``ss``."""
    n = d.shape[0]
    if n == 0:
        return
    rs = ctx.round_scalar
    hypot = ctx.hypot  # tallies its own ops
    dt = ctx.dtype
    one, two, zero = dt(1.0), dt(2.0), dt(0.0)
    eps_f = float(ctx.machine_epsilon)  # deflation threshold, reused below
    isfinite = np.isfinite

    for low in range(n):
        sweeps = 0
        while True:
            if not (isfinite(d).all() and isfinite(e).all()):
                raise EigenConvergenceError(
                    "non-finite values during QL iteration"
                )
            m = low
            while m < n - 1:
                dd = abs(float(d[m])) + abs(float(d[m + 1]))
                if abs(float(e[m])) <= eps_f * dd:
                    break
                m += 1
            if m == low:
                break
            sweeps += 1
            if sweeps > max_sweeps:
                raise EigenConvergenceError(
                    f"QL iteration did not deflate eigenvalue {low} within "
                    f"{max_sweeps} sweeps in {ctx.name}"
                )
            # Wilkinson-like shift
            g = rs(rs(d[low + 1] - d[low]) / rs(two * e[low]))
            r = hypot(g, one)
            denom = rs(g + np.copysign(r, g))
            if denom == 0 or not isfinite(denom):
                denom = np.copysign(dt(max(eps_f, 1e-30)), g)
            g = rs(rs(d[m] - d[low]) + rs(e[low] / denom))
            ctx.op_count += 7
            s = c = one
            p = zero
            restart = False
            for i in range(m - 1, low - 1, -1):
                ei = e[i]
                f = rs(s * ei)
                b = rs(c * ei)
                r = hypot(f, g)
                e[i + 1] = r
                if r == 0:
                    d[i + 1] = rs(d[i + 1] - p)
                    e[m] = 0.0
                    ctx.op_count += 3
                    restart = True
                    break
                s = rs(f / r)
                c = rs(g / r)
                g = rs(d[i + 1] - p)
                r = rs(rs(rs(d[i] - g) * s) + rs(rs(two * c) * b))
                p = rs(s * r)
                d[i + 1] = rs(g + p)
                g = rs(rs(c * r) - b)
                ctx.op_count += 14
                # columns i and i+1 become c*zi - s*zi1 and s*zi + c*zi1
                cols.append(i)
                cs.append(c)
                ss.append(s)
            if restart:
                continue
            d[low] = rs(d[low] - p)
            e[low] = g
            e[m] = 0.0
            ctx.op_count += 1


def symmetric_eigen(ctx, A, max_sweeps: int = 60):
    """Spectral decomposition of a symmetric matrix in the context arithmetic.

    The matrix is symmetrised (``(A + A^T) / 2`` with rounded operations, as
    the projected Arnoldi matrix is only symmetric up to rounding), reduced to
    tridiagonal form and diagonalised with the implicit QL iteration.

    Returns ``(w, V)`` with ``A @ V[:, j] ≈ w[j] * V[:, j]``.
    """
    A = ctx.wrap(np.asarray(A, dtype=ctx.dtype))
    if A.shape[0] != A.shape[1]:
        raise ValueError("symmetric_eigen requires a square matrix")
    if A.shape[0] == 0:
        return np.zeros(0, dtype=ctx.dtype), np.zeros((0, 0), dtype=ctx.dtype)
    if A.shape[0] == 1:
        return A.data[0, :1].copy(), np.ones((1, 1), dtype=ctx.dtype)
    sym = 0.5 * (A + A.T)
    d, e, Q = tridiagonalize(ctx, sym.data)
    return tridiagonal_eigen(ctx, d, e, Z=Q, max_sweeps=max_sweeps)
