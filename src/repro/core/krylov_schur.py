"""``partialschur`` — implicitly restarted Arnoldi with Krylov-Schur restarts.

The driver mirrors the interface the paper uses from ``ArnoldiMethod.jl``:
``partialschur(matrix, nev, which="LM", tol=...)`` returns the ``nev`` most
wanted Ritz pairs of a sparse symmetric matrix.  Every arithmetic operation
(including the dense eigendecomposition of the projected matrix) runs in the
compute context, so the solver can be executed in OFP8, bfloat16, posit,
takum or IEEE arithmetic unchanged — the "untailored" setting of the study.

Algorithm outline (thick restart / Krylov-Schur for symmetric operators):

1. expand the Krylov decomposition to the maximum dimension with Arnoldi
   steps (classical Gram-Schmidt + DGKS re-orthogonalisation);
2. diagonalise the projected matrix in the target arithmetic
   (:func:`repro.linalg.symmetric_eigen`);
3. estimate Ritz residuals from the coupling vector, count converged pairs;
4. stop when ``nev`` wanted pairs are converged (or the space is invariant /
   the restart budget is exhausted); otherwise truncate the decomposition to
   the wanted subspace plus a few extra vectors and go back to 1.
"""

from __future__ import annotations

import numpy as np

from ..arithmetic.context import ComputeContext, ContextSpec, get_context
from ..linalg.ordering import select_order
from ..linalg.tridiagonal import EigenConvergenceError, symmetric_eigen
from ..telemetry import trace as _trace
from .arnoldi import KrylovDecomposition, arnoldi_expand
from .results import ArnoldiBreakdown, PartialSchurResult

__all__ = ["partialschur", "default_maxdim"]


def default_maxdim(nev: int, n: int) -> int:
    """Default maximum Krylov dimension (mirrors ``ArnoldiMethod.jl``)."""
    return int(min(max(2 * nev + 1, 20), n))


def _initial_vector(ctx: ComputeContext, n: int, v0, seed: int) -> np.ndarray:
    if v0 is not None:
        v = ctx.asarray(np.asarray(v0, dtype=np.float64))
    else:
        rng = np.random.default_rng(seed)
        v = ctx.asarray(rng.standard_normal(n))
    nrm = ctx.norm2(v)
    if not np.isfinite(nrm) or float(nrm) == 0.0:
        v = ctx.asarray(np.ones(n) / np.sqrt(n))
        nrm = ctx.norm2(v)
    return ctx.div(v, nrm)


def _ritz_decomposition(ctx, decomp):
    """Diagonalise the projected matrix and transform the coupling vector."""
    theta, Y = symmetric_eigen(ctx, decomp.S)
    # residual coupling in the Ritz basis: b' = Y^T b
    b_ritz = ctx.gemv_t(Y, decomp.b)
    return theta, Y, b_ritz


def _count_converged(theta, b_ritz, order, nev, tol):
    """Number of leading wanted Ritz pairs whose residual estimate passes."""
    converged = 0
    for idx in order[:nev]:
        lam = abs(float(theta[idx]))
        resid = abs(float(b_ritz[idx]))
        bound = tol * lam if lam > 0 else tol
        if resid <= bound:
            converged += 1
        else:
            break
    return converged


def effective_tolerance(tol: float, ctx: ComputeContext, eps_floor: bool = True) -> float:
    """Convergence tolerance actually used by the solver.

    ARPACK replaces a user tolerance below what the working precision can
    deliver by ``eps^(2/3)``; the same floor is applied here (relative to the
    *context's* machine epsilon) so that low-precision runs terminate once
    they have reached the accuracy attainable in that arithmetic instead of
    spinning until the restart budget is exhausted.  Disable with
    ``eps_floor=False`` for the strict-tolerance ablation.
    """
    if not eps_floor:
        return float(tol)
    return float(max(tol, float(ctx.machine_epsilon) ** (2.0 / 3.0)))


def partialschur(
    matrix,
    nev: int = 6,
    which: str = "LM",
    tol: float = 1e-8,
    maxdim: int | None = None,
    restarts: int = 100,
    ctx: ComputeContext | ContextSpec | str | None = None,
    v0=None,
    seed: int = 0,
    history: bool = False,
    eps_floor: bool = True,
) -> PartialSchurResult:
    """Compute a partial spectral decomposition of a sparse symmetric matrix.

    Parameters
    ----------
    matrix:
        CSR matrix (``repro.sparse.CSRMatrix``).  Its values should already
        be representable in the context (use ``ctx.convert_matrix``),
        otherwise they are rounded on the fly.
    nev:
        Number of Ritz pairs to compute.
    which:
        Ordering rule (``"LM"``, ``"SM"``, ``"LR"``, ``"SR"``).
    tol:
        Relative convergence tolerance on the Ritz residual estimate
        ``|b^T y_i| <= tol * |theta_i|``.
    maxdim:
        Maximum Krylov dimension (default ``min(max(2 nev + 1, 20), n)``).
    restarts:
        Maximum number of Krylov-Schur restarts.
    ctx:
        Compute context, :class:`~repro.arithmetic.ContextSpec` or format
        name; defaults to native float64.
    v0:
        Optional starting vector; a seeded random vector otherwise.
    seed:
        Seed for the default starting vector.
    history:
        Record the per-restart convergence counts.
    eps_floor:
        Apply ARPACK's ``eps^(2/3)`` floor (in the context's machine epsilon)
        to the tolerance, so that runs terminate once they reach the accuracy
        attainable in the arithmetic (default True).

    Returns
    -------
    PartialSchurResult
        Ritz values/vectors ordered most-wanted-first and solver diagnostics.
        ``converged`` is False when the restart budget was exhausted or the
        arithmetic broke down (the paper's ∞ω condition).
    """
    if ctx is None:
        ctx = get_context("float64")
    elif isinstance(ctx, (str, ContextSpec)):
        ctx = get_context(ctx)
    n = matrix.shape[0]
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError("partialschur requires a square matrix")
    if nev < 1:
        raise ValueError("nev must be positive")
    nev = min(nev, n)
    if maxdim is None:
        maxdim = default_maxdim(nev, n)
    maxdim = int(min(max(maxdim, nev + 2), n))
    solver_tol = effective_tolerance(tol, ctx, eps_floor)

    matrix = matrix.with_data(ctx.round(np.asarray(matrix.data, dtype=ctx.dtype)))

    v_start = _initial_vector(ctx, n, v0, seed)
    deflation_rng = np.random.default_rng([seed, 0x5EED])
    decomp = KrylovDecomposition(
        V=np.zeros((n, 0), dtype=ctx.dtype),
        S=np.zeros((0, 0), dtype=ctx.dtype),
        b=np.zeros(0, dtype=ctx.dtype),
        residual=v_start,
        invariant=False,
    )

    matvecs = 0
    restart_count = 0
    hist: list[int] = []
    reason = "maxiter"
    theta = Y = b_ritz = None
    order = None

    with _trace.span("krylov_schur.solve", fmt=ctx.name) as _sp:
        try:
            while True:
                decomp, used = arnoldi_expand(ctx, matrix, decomp, maxdim, rng=deflation_rng)
                matvecs += used
                with _trace.span("krylov_schur.ritz", fmt=ctx.name):
                    theta, Y, b_ritz = _ritz_decomposition(ctx, decomp)
                if not np.all(np.isfinite(np.asarray(theta, dtype=np.float64))):
                    raise ArnoldiBreakdown("non-finite Ritz values")
                order = select_order(np.asarray(theta, dtype=np.float64), which)
                nconv = _count_converged(theta, b_ritz, order, min(nev, decomp.order), solver_tol)
                if history:
                    hist.append(nconv)
                if decomp.invariant:
                    reason = "invariant"
                    break
                if nconv >= min(nev, decomp.order):
                    reason = "converged"
                    break
                if restart_count >= restarts:
                    reason = "maxiter"
                    break
                restart_count += 1
                # truncate: keep the wanted Ritz vectors plus half of the rest
                with _trace.span("krylov_schur.restart", fmt=ctx.name):
                    keep = min(
                        decomp.order - 1,
                        max(nev + (decomp.order - nev) // 2, nev + 1),
                    )
                    sel = order[:keep]
                    Ysel = np.asarray(Y)[:, sel]
                    V_new = ctx.gemm(decomp.V, Ysel)
                    S_new = np.zeros((keep, keep), dtype=ctx.dtype)
                    S_new[np.arange(keep), np.arange(keep)] = np.asarray(theta)[sel]
                    b_new = np.asarray(b_ritz)[sel].astype(ctx.dtype)
                    decomp = KrylovDecomposition(
                        V=V_new, S=S_new, b=b_new, residual=decomp.residual, invariant=False
                    )

            # assemble the result from the last Ritz decomposition
            nret = min(nev, decomp.order)
            sel = order[:nret]
            theta_np = np.asarray(theta)
            lam = theta_np[sel]
            Ysel = np.asarray(Y)[:, sel]
            X = ctx.gemm(decomp.V, Ysel)
            residuals = np.abs(np.asarray(b_ritz, dtype=np.float64))[sel]
            if decomp.invariant:
                residuals = np.zeros(nret)
            nconv = (
                _count_converged(theta, b_ritz, order, nret, solver_tol)
                if not decomp.invariant
                else nret
            )
            converged = reason in ("converged", "invariant") and nconv >= nret

            return PartialSchurResult(
                eigenvalues=lam,
                eigenvectors=X,
                residuals=residuals,
                converged=converged,
                nconverged=nconv,
                restarts=restart_count,
                matvecs=matvecs,
                reason=reason,
                which=which,
                tolerance=tol,
                format_name=ctx.name,
                history=hist if history else None,
            )
        except (ArnoldiBreakdown, EigenConvergenceError):
            # the arithmetic broke down (overflow, NaR propagation or a projected
            # eigensolver that cannot deflate): report a non-converged run, the
            # experiments translate this into the paper's ∞ω marker
            return PartialSchurResult(
                eigenvalues=np.zeros(0, dtype=ctx.dtype),
                eigenvectors=np.zeros((n, 0), dtype=ctx.dtype),
                residuals=np.zeros(0),
                converged=False,
                nconverged=0,
                restarts=restart_count,
                matvecs=matvecs,
                reason="breakdown",
                which=which,
                tolerance=tol,
                format_name=ctx.name,
                history=hist if history else None,
            )
        finally:
            # flush the solve's op tally into the registry and annotate the
            # span on every exit path (converged, breakdown, propagated error)
            _sp.set(restarts=restart_count, matvecs=matvecs, ops=ctx.publish_op_count())
