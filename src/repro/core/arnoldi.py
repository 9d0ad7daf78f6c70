"""Arnoldi expansion of a Krylov(-Schur) decomposition.

The solver maintains the generalised Krylov decomposition::

    A V_k = V_k S_k + v_{k+1} b_k^T

with ``V_k`` orthonormal, ``S_k`` the projected matrix and ``b_k`` the
residual coupling vector (after a plain Arnoldi expansion ``b_k`` is
``beta * e_k``; after a Krylov-Schur truncation it is a dense "spike" row).
:func:`arnoldi_expand` grows such a decomposition column by column with
classical Gram-Schmidt plus one DGKS re-orthogonalisation pass (Daniel,
Gragg, Kaufman & Stewart, 1976), all in the target arithmetic.

Each column is, in this order and each op rounded as the context's own
method rounds it:

* ``w = A v`` (:meth:`~repro.arithmetic.context.ComputeContext.spmv`);
* ``h = V^T w`` (``gemv_t``), ``w = w - V h`` (``gemv``, ``sub``), and the
  norms before and after (``norm2``); when the pass keeps no more than
  ``_DGKS_ETA`` of the norm, a second pass ``h2``, ``w - V h2``, ``h + h2``
  and the final norm ``beta``, with a breakdown when that pass again keeps
  no more than ``_DGKS_ETA``;
* ``v = w / beta`` and the writes of ``h`` and ``beta`` into ``S`` (or
  ``b`` at the last column).

The whole column loop runs in one call of the compiled entry
``_rounding.arnoldi`` per expansion, with the context's kernel; it returns
the rounded-op tally, which is added to the context's ``op_count``, and a
status from which this module raises the same
:class:`~repro.core.results.ArnoldiBreakdown` texts.  A column whose
residual breaks down (or vanishes) hands back to Python for ARPACK's
deflation restart: :func:`_random_orthonormal` draws a random vector,
orthonormalises it against the basis through the same compiled
Gram-Schmidt, and the expansion resumes at the next column.  The
``arnoldi.expand`` trace span reports the columns that took the DGKS
second pass (``dgks``) and those that broke down (``deflations``).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..arithmetic import bitkernels as _bitkernels
from ..telemetry import trace as _trace
from .results import ArnoldiBreakdown

__all__ = ["KrylovDecomposition", "arnoldi_expand"]


@dataclasses.dataclass
class KrylovDecomposition:
    """State of a generalised Krylov decomposition of order ``k``.

    Attributes
    ----------
    V:
        ``(n, k)`` orthonormal basis.
    S:
        ``(k, k)`` projected matrix.
    b:
        ``(k,)`` residual coupling vector.
    residual:
        The next, normalised basis vector ``v_{k+1}`` (``None`` when the
        subspace became invariant).
    invariant:
        True when the Krylov space is (numerically) invariant — the residual
        vanished during expansion.
    """

    V: np.ndarray
    S: np.ndarray
    b: np.ndarray
    residual: np.ndarray | None
    invariant: bool = False

    @property
    def order(self) -> int:
        return int(self.V.shape[1])


#: DGKS acceptance factor: a Gram-Schmidt pass is trusted when it retains at
#: least this fraction of the vector's norm (the classical 1/sqrt(2) value)
_DGKS_ETA = 0.7071

#: the statuses of the compiled expansion (``_rounding.arnoldi``): the
#: columns are done, a column broke down, or the breakdown texts
_DONE, _DEFLATE = 0, 1
_BREAKDOWN = {
    2: "non-finite Krylov vector",
    3: "matrix-vector product overflowed",
    4: "orthogonalisation coefficients overflowed",
    5: "residual norm overflowed",
}


def _compiled(ctx, V, S, b, v, start, csr):
    """One call of the compiled expansion in ``ctx``: its op tally goes to
    ``ctx.op_count``; returns ``(status, stop, dgks)``."""
    ops, status, stop, dgks = _bitkernels.extension().arnoldi(
        V,
        S,
        b,
        v,
        start,
        csr,
        ctx.accumulation == "sequential",
        _DGKS_ETA,
        ctx.compiled_rounding(),
    )
    ctx.op_count += ops
    return status, stop, dgks


def _random_orthonormal(ctx, V_active, rng):
    """A random unit vector orthogonalised against the basis, or ``None``.

    Used to continue the Arnoldi process after a (numerical) invariant
    subspace has been found, exactly like ARPACK's deflation restart: up to
    three standard-normal candidates, each rounded into the context and
    orthonormalised against the columns of the ``(n, j)`` basis
    ``V_active`` by the compiled Gram-Schmidt.
    """
    basis = np.ascontiguousarray(V_active, dtype=ctx.dtype)
    n, cols = basis.shape
    for _ in range(3):
        candidate = ctx.round(np.asarray(rng.standard_normal(n), dtype=ctx.dtype))
        status, _, _ = _compiled(ctx, basis, None, None, candidate, cols, None)
        if status == _DONE:
            return candidate
    return None


def arnoldi_expand(
    ctx, matrix, decomp: KrylovDecomposition, target_order: int, rng=None
):
    """Grow ``decomp`` to order ``target_order`` by Arnoldi steps.

    Parameters
    ----------
    ctx:
        Compute context (arithmetic under evaluation).
    matrix:
        CSR matrix already converted into the context.
    decomp:
        Current Krylov decomposition (may have order 0).
    target_order:
        Desired subspace dimension after expansion.
    rng:
        Random generator used to continue past (numerical) invariant
        subspaces with a fresh orthogonal direction, as ARPACK does; a
        default generator is created when omitted.

    Returns
    -------
    (decomp, matvecs):
        The expanded decomposition and the number of matrix-vector products
        performed.  The expansion stops early if the subspace becomes
        invariant and no new direction can be injected.

    Raises
    ------
    ArnoldiBreakdown
        If non-finite values appear in the basis (overflow/NaR propagation).
    """
    n = matrix.shape[0]
    k = decomp.order
    target_order = min(target_order, n)
    if rng is None:
        rng = np.random.default_rng(0)
    if k >= target_order or decomp.invariant:
        return decomp, 0
    with _trace.span("arnoldi.expand", fmt=ctx.name, start=k, target=target_order) as sp:
        return _expand(ctx, matrix, decomp, target_order, rng, n, k, sp)


def _expand(ctx, matrix, decomp, target_order, rng, n, k, sp):
    V = np.zeros((n, target_order), dtype=ctx.dtype)
    S = np.zeros((target_order, target_order), dtype=ctx.dtype)
    if k:
        # the previous decomposition was produced by this context: plain
        # copies, no rounding
        V[:, :k] = decomp.V
        S[:k, :k] = decomp.S
        # spike row produced by the previous truncation (dense coupling of
        # the truncated decomposition against the incoming residual; k is
        # strictly below target_order here, so the row always fits)
        S[k, :k] = decomp.b
    b = np.zeros(target_order, dtype=ctx.dtype)
    if decomp.residual is None:
        raise ArnoldiBreakdown(_BREAKDOWN[2])
    v = np.array(decomp.residual, dtype=ctx.dtype)  # the next vector, in place
    csr = (
        np.asarray(matrix.indptr, dtype=np.intp),
        np.asarray(matrix.indices, dtype=np.intp),
        np.ascontiguousarray(matrix.data, dtype=ctx.dtype),
    )
    matvecs = dgks = deflations = 0
    j = k
    while j < target_order:
        status, stop, passes = _compiled(ctx, V, S, b, v, j, csr)
        matvecs += stop - j + (status != _DONE)
        dgks += passes
        if status in _BREAKDOWN:
            sp.set(dgks=dgks, deflations=deflations)
            raise ArnoldiBreakdown(_BREAKDOWN[status])
        if status == _DONE:
            break
        # column ``stop`` is (numerically) invariant: its residual is pure
        # noise.  Record a zero coupling and continue with a fresh random
        # orthogonal direction (ARPACK's deflation restart); stop as
        # invariant if that is impossible.
        deflations += 1
        j = stop + 1
        replacement = _random_orthonormal(ctx, V[:, :j], rng)
        if replacement is None:
            sp.set(dgks=dgks, deflations=deflations)
            return (
                KrylovDecomposition(
                    V=V[:, :j],
                    S=S[:j, :j],
                    b=np.zeros(j, dtype=ctx.dtype),
                    residual=None,
                    invariant=True,
                ),
                matvecs,
            )
        # the coupling of the deflated column (S[j, stop], or b) stays zero
        v[:] = replacement
    sp.set(dgks=dgks, deflations=deflations)
    return KrylovDecomposition(V=V, S=S, b=b, residual=v, invariant=False), matvecs
