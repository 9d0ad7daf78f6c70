"""Lockstep Krylov-Schur: one solve, a whole stack of formats.

:func:`batched_partialschur` runs the paper's central experiment — the same
partial spectral decomposition across many number formats — as *one*
lockstep sweep per work-dtype lane instead of one full solver run per
format.  Per-row trajectories are bit-identical to
:func:`repro.core.krylov_schur.partialschur`: the Arnoldi expansion's
elementwise operations are stacked across the format axis through
:class:`repro.arithmetic.BatchedContext` and round each row in its own
context, and every reduction and every Ritz eigensolve
(:mod:`repro.linalg.lockstep`) is the row's own sequential code — its
compiled ``reduce``, ``tridiagonalize`` and ``ql`` entries.

The solver is inherently divergent across formats — an 8-bit run breaks
down in the first sweep while float64 restarts dozens of times — so the
batch carries **per-format retirement masks**: a row leaves the lockstep
the moment its sequential twin would have returned (converged, invariant
subspace, breakdown, or restart budget), and the remaining rows continue
without it.  Divergent low-frequency paths (deflation restarts, invariant
sub-space assembly) drop to the row's own sequential context — the code
path is literally the sequential implementation — keeping the hot lockstep
sweeps uniform: after every expansion all active rows sit at order
``maxdim``, and the restart truncation keeps the same number of vectors
for every row, so the batch never stalls waiting for a straggler.

Telemetry: each call emits ``batch.formats`` (rows entering the batch),
``batch.retired`` (rows leaving, labelled by reason) and
``batch.lockstep_seconds`` (wall time of the batched solve).
"""

from __future__ import annotations

import time

import numpy as np

from ..arithmetic.batched import BatchedContext, BatchSpec
from ..linalg.lockstep import lockstep_symmetric_eigen
from ..linalg.ordering import select_order
from ..linalg.tridiagonal import EigenConvergenceError
from ..telemetry import trace as _trace
from ..telemetry.metrics import metrics as _metrics
from .arnoldi import _DGKS_ETA, KrylovDecomposition, _random_orthonormal
from .krylov_schur import (
    _count_converged,
    _initial_vector,
    _ritz_decomposition,
    default_maxdim,
    effective_tolerance,
)
from .results import PartialSchurResult

__all__ = ["batched_partialschur"]


def batched_partialschur(
    matrix,
    specs,
    nev: int = 6,
    which: str = "LM",
    tol=1e-8,
    maxdim: int | None = None,
    restarts: int = 100,
    v0=None,
    seed: int = 0,
    eps_floor: bool = True,
) -> list:
    """Partial spectral decompositions of one matrix in many formats.

    The batched sibling of :func:`repro.core.krylov_schur.partialschur`:
    runs the solve for every context in ``specs`` in lockstep and returns
    one :class:`~repro.core.results.PartialSchurResult` per spec, in spec
    order, each bit-identical (eigenvalues, eigenvectors, residuals,
    restart/matvec counts, reason) to the sequential solver with the same
    arguments.

    Parameters
    ----------
    matrix:
        CSR matrix, or a sequence of CSR matrices (one per spec, sharing
        one sparsity pattern) whose values are already converted per
        format — re-rounding converted values is the identity, so both
        spellings produce the same trajectories.
    specs:
        :class:`~repro.arithmetic.BatchSpec`, or an ordered iterable of
        :class:`~repro.arithmetic.ContextSpec` / format names.
    tol:
        Scalar tolerance for all rows, or a sequence with one tolerance
        per spec (the runner passes per-format tolerances).
    nev, which, maxdim, restarts, v0, seed, eps_floor:
        As for the sequential solver, applied to every row.
    """
    spec = specs if isinstance(specs, BatchSpec) else BatchSpec(specs)
    nfmt = len(spec)
    mats = _per_row_matrices(matrix, nfmt)
    n = mats[0].shape[0]
    if mats[0].shape[0] != mats[0].shape[1]:
        raise ValueError("batched_partialschur requires a square matrix")
    if nev < 1:
        raise ValueError("nev must be positive")
    nev = min(nev, n)
    if maxdim is None:
        maxdim = default_maxdim(nev, n)
    maxdim = int(min(max(maxdim, nev + 2), n))
    tols = _per_row_tols(tol, nfmt)

    results: list = [None] * nfmt
    start = time.perf_counter()
    with _trace.span("krylov_schur.solve_batched", formats=nfmt) as _sp:
        _metrics.counter("batch.formats").inc(nfmt)
        retired: dict = {}
        for contexts, indices in spec.lanes():
            lane_results = _lane_solve(
                contexts,
                [mats[i] for i in indices],
                n,
                nev,
                which,
                [tols[i] for i in indices],
                maxdim,
                restarts,
                v0,
                seed,
                eps_floor,
            )
            for pos, res in zip(indices, lane_results):
                results[pos] = res
                retired[res.reason] = retired.get(res.reason, 0) + 1
        for reason, count in retired.items():
            _metrics.counter("batch.retired", reason=reason).inc(count)
        elapsed = time.perf_counter() - start
        _metrics.histogram("batch.lockstep_seconds").observe(elapsed)
        _sp.set(retired=dict(sorted(retired.items())), seconds=round(elapsed, 6))
    return results


def _per_row_matrices(matrix, nfmt: int) -> list:
    if hasattr(matrix, "indptr"):
        return [matrix] * nfmt
    mats = list(matrix)
    if len(mats) != nfmt:
        raise ValueError(
            f"got {len(mats)} matrices for {nfmt} specs; pass one matrix or "
            "one per spec"
        )
    first = mats[0]
    for m in mats[1:]:
        if not (
            np.array_equal(m.indptr, first.indptr)
            and np.array_equal(m.indices, first.indices)
        ):
            raise ValueError(
                "per-row matrices must share one sparsity pattern "
                "(same indptr/indices); convert one matrix per format"
            )
    return mats


def _per_row_tols(tol, nfmt: int) -> list:
    if np.ndim(tol) == 0:
        return [float(tol)] * nfmt
    tols = [float(t) for t in tol]
    if len(tols) != nfmt:
        raise ValueError(f"got {len(tols)} tolerances for {nfmt} specs")
    return tols


def _breakdown_result(ctx, n, which, tol, restart_count, matvecs) -> PartialSchurResult:
    """The sequential solver's breakdown (∞ω) result for one row."""
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
        history=None,
    )


def _assemble(
    ctx,
    Vd,
    theta,
    Y,
    b_ritz,
    order,
    decomp_order,
    invariant,
    nev,
    which,
    solver_tol,
    tol,
    reason,
    restart_count,
    matvecs,
) -> PartialSchurResult:
    """Assemble one row's result exactly as the sequential driver does."""
    nret = min(nev, decomp_order)
    sel = order[:nret]
    theta_np = np.asarray(theta)
    lam = theta_np[sel]
    Ysel = np.asarray(Y)[:, sel]
    X = ctx.gemm(Vd, Ysel)
    residuals = np.abs(np.asarray(b_ritz, dtype=np.float64))[sel]
    if invariant:
        residuals = np.zeros(nret)
    nconv = (
        nret if invariant else _count_converged(theta, b_ritz, order, nret, solver_tol)
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
        history=None,
    )


def _finish_invariant(
    ctx, decomp, nev, which, solver_tol, tol, n, restart_count, matvecs
) -> PartialSchurResult:
    """Finish a row whose subspace became invariant (sequential path).

    Runs the remaining sequential driver steps — Ritz decomposition of the
    (smaller-order) projected matrix, finiteness check, assembly with
    ``reason="invariant"`` — in the row's own context.
    """
    try:
        theta, Y, b_ritz = _ritz_decomposition(ctx, decomp)
    except EigenConvergenceError:
        return _breakdown_result(ctx, n, which, tol, restart_count, matvecs)
    if not np.all(np.isfinite(np.asarray(theta, dtype=np.float64))):
        return _breakdown_result(ctx, n, which, tol, restart_count, matvecs)
    order = select_order(np.asarray(theta, dtype=np.float64), which)
    return _assemble(
        ctx,
        decomp.V,
        theta,
        Y,
        b_ritz,
        order,
        decomp.order,
        True,
        nev,
        which,
        solver_tol,
        tol,
        "invariant",
        restart_count,
        matvecs,
    )


def _borthogonalize(bctx, Vact, w, sub):
    """Batched classical Gram-Schmidt with per-row DGKS second pass.

    Mirrors the Gram-Schmidt of :func:`repro.core.arnoldi.arnoldi_expand`
    (compiled in ``_rounding.arnoldi``); only the rows whose
    first pass lost too much norm run the re-orthogonalisation, exactly as
    their sequential twins would.
    """
    norm_before = bctx.norm2(w, sub)
    h = bctx.gemv_t(Vact, w, sub)
    w = bctx.sub(w, bctx.gemv(Vact, h, sub), sub)
    norm = bctx.norm2(w, sub)
    nb64 = np.asarray(norm_before, dtype=np.float64)
    na64 = np.asarray(norm, dtype=np.float64)
    ok = np.isfinite(na64) & (na64 > _DGKS_ETA * nb64)
    breakdown = np.zeros(len(sub), dtype=bool)
    if not ok.all():
        gi = np.nonzero(~ok)[0]
        s2 = sub[gi]
        Vsub = np.ascontiguousarray(Vact[gi])
        h2 = bctx.gemv_t(Vsub, w[gi], s2)
        w2 = bctx.sub(w[gi], bctx.gemv(Vsub, h2, s2), s2)
        h[gi] = bctx.add(h[gi], h2, s2)
        norm_final = bctx.norm2(w2, s2)
        nf64 = np.asarray(norm_final, dtype=np.float64)
        # compare against the first-pass norms before overwriting them —
        # na64 may alias ``norm`` when the lane dtype is already float64
        breakdown[gi] = (
            ~np.isfinite(nf64) | (nf64 <= _DGKS_ETA * na64[gi]) | (nf64 == 0.0)
        )
        w[gi] = w2
        norm[gi] = norm_final
    return w, h, norm, breakdown


def _lane_solve(
    contexts,
    mats,
    n,
    nev,
    which,
    lane_tols,
    maxdim,
    restarts,
    v0,
    seed,
    eps_floor,
):
    """Lockstep solve of one work-dtype lane; returns results in lane order."""
    bctx = BatchedContext(contexts)
    nrows = bctx.nrows
    dtype = bctx.dtype
    indices = mats[0].indices
    indptr = mats[0].indptr
    nnz = len(indices)
    # mirror the sequential solver's entry re-round of the matrix values
    data_stack = np.empty((nrows, nnz), dtype=dtype)
    for a, ctx in enumerate(contexts):
        data_stack[a] = ctx.round(np.asarray(mats[a].data, dtype=ctx.dtype))
    solver_tols = [
        effective_tolerance(t, ctx, eps_floor) for t, ctx in zip(lane_tols, contexts)
    ]
    v_next = np.stack([_initial_vector(ctx, n, v0, seed) for ctx in contexts]).astype(
        dtype, copy=False
    )
    rngs = [np.random.default_rng([seed, 0x5EED]) for _ in contexts]

    results: list = [None] * nrows
    matvecs = np.zeros(nrows, dtype=np.int64)
    restart_count = 0
    k = 0
    V_prev = np.zeros((nrows, n, 0), dtype=dtype)
    S_prev = np.zeros((nrows, 0, 0), dtype=dtype)
    b_prev = np.zeros((nrows, 0), dtype=dtype)
    alive = np.arange(nrows, dtype=np.int64)

    # matvecs "committed" to the driver: the sequential driver adds an
    # expansion's count only when arnoldi_expand *returns* — a raised
    # ArnoldiBreakdown discards the partial count — so breakdown results
    # report the committed value, not the in-flight one
    mv_committed = np.zeros(nrows, dtype=np.int64)

    def _retire_breakdown(a: int) -> None:
        results[a] = _breakdown_result(
            contexts[a], n, which, lane_tols[a], restart_count, int(mv_committed[a])
        )

    with np.errstate(all="ignore"):
        while alive.size:
            # ---------------- lockstep Arnoldi expansion ---------------- #
            V = np.zeros((nrows, n, maxdim), dtype=dtype)
            S = np.zeros((nrows, maxdim, maxdim), dtype=dtype)
            b = np.zeros((nrows, maxdim), dtype=dtype)
            if k:
                V[alive, :, :k] = V_prev[alive]
                S[alive, :k, :k] = S_prev[alive]
                S[alive, k, :k] = b_prev[alive]
            exp = alive
            for j in range(k, maxdim):
                if exp.size == 0:
                    break
                finite = np.isfinite(v_next[exp]).all(axis=1)
                for a in exp[~finite]:
                    _retire_breakdown(a)  # "non-finite Krylov vector"
                exp = exp[finite]
                if exp.size == 0:
                    break
                V[exp, :, j] = v_next[exp]
                w = bctx.spmv(data_stack[exp], indices, indptr, v_next[exp], exp)
                matvecs[exp] += 1
                finite = np.isfinite(w).all(axis=1)
                for a in exp[~finite]:
                    _retire_breakdown(a)  # "matrix-vector product overflowed"
                exp = exp[finite]
                w = w[finite]
                if exp.size == 0:
                    break
                Vact = np.ascontiguousarray(V[exp, :, : j + 1])
                w, h, beta, broke = _borthogonalize(bctx, Vact, w, exp)
                hfinite = np.isfinite(np.asarray(h, dtype=np.float64)).all(axis=1)
                for a in exp[~hfinite]:
                    _retire_breakdown(a)  # "orthogonalisation coefficients overflowed"
                keep = hfinite
                exp = exp[keep]
                w, h, beta, broke = w[keep], h[keep], beta[keep], broke[keep]
                if exp.size == 0:
                    break
                S[exp, : j + 1, j] = h
                bfinite = np.isfinite(np.asarray(beta, dtype=np.float64))
                for a in exp[~bfinite]:
                    _retire_breakdown(a)  # "residual norm overflowed"
                keep = bfinite
                exp = exp[keep]
                w, beta, broke = w[keep], beta[keep], broke[keep]
                if exp.size == 0:
                    break
                defl = broke | (beta == 0)
                if defl.any():
                    # deflation: per-row sequential code (divergent, rare)
                    survivors = []
                    for pos in np.nonzero(defl)[0]:
                        a = int(exp[pos])
                        ctx = contexts[a]
                        repl = _random_orthonormal(ctx, V[a, :, : j + 1], rngs[a])
                        if repl is None:
                            decomp = KrylovDecomposition(
                                V=np.ascontiguousarray(V[a, :, : j + 1]),
                                S=np.ascontiguousarray(S[a, : j + 1, : j + 1]),
                                b=np.zeros(j + 1, dtype=ctx.dtype),
                                residual=None,
                                invariant=True,
                            )
                            results[a] = _finish_invariant(
                                ctx,
                                decomp,
                                nev,
                                which,
                                solver_tols[a],
                                lane_tols[a],
                                n,
                                restart_count,
                                int(matvecs[a]),
                            )
                        else:
                            v_next[a] = repl
                            survivors.append(pos)
                            # S[j+1, j] / b stay zero, as sequential writes
                    keep = ~defl
                    for pos in survivors:
                        keep[pos] = True
                    exp_live = exp[~defl]
                    w_live, beta_live = w[~defl], beta[~defl]
                else:
                    exp_live = exp
                    w_live, beta_live = w, beta
                    keep = np.ones(exp.size, dtype=bool)
                if exp_live.size:
                    v_next[exp_live] = bctx.div(
                        w_live, beta_live[:, None], exp_live
                    )
                    if j + 1 < maxdim:
                        S[exp_live, j + 1, j] = beta_live
                    else:
                        b[exp_live, j] = beta_live
                exp = exp[keep]
            alive = exp
            mv_committed[alive] = matvecs[alive]
            if alive.size == 0:
                break

            # ---------------- lockstep Ritz decomposition --------------- #
            theta, Y, errs = lockstep_symmetric_eigen(
                bctx, np.ascontiguousarray(S[alive]), alive
            )
            ok = np.ones(alive.size, dtype=bool)
            for pos, err in enumerate(errs):
                if err is not None:
                    _retire_breakdown(int(alive[pos]))
                    ok[pos] = False
            tfinite = np.isfinite(np.asarray(theta, dtype=np.float64)).all(axis=1)
            for pos in np.nonzero(ok & ~tfinite)[0]:
                _retire_breakdown(int(alive[pos]))  # "non-finite Ritz values"
            ok &= tfinite
            alive, theta, Y = alive[ok], theta[ok], Y[ok]
            if alive.size == 0:
                break
            b_ritz = bctx.gemv_t(np.ascontiguousarray(Y), b[alive], alive)
            orders = [
                select_order(np.asarray(theta[pos], dtype=np.float64), which)
                for pos in range(alive.size)
            ]
            nret = min(nev, maxdim)
            nconv = np.array(
                [
                    _count_converged(
                        theta[pos], b_ritz[pos], orders[pos], nret, solver_tols[a]
                    )
                    for pos, a in enumerate(alive)
                ],
                dtype=np.int64,
            )

            # the sequential driver checks convergence before the restart
            # budget, so a row converging on its last allowed expansion is
            # "converged", not "maxiter"
            conv = nconv >= nret
            done = (
                conv
                if restart_count < restarts
                else np.ones(alive.size, dtype=bool)
            )
            for pos in np.nonzero(done)[0]:
                a = int(alive[pos])
                results[a] = _assemble(
                    contexts[a],
                    np.ascontiguousarray(V[a]),
                    theta[pos],
                    Y[pos],
                    b_ritz[pos],
                    orders[pos],
                    maxdim,
                    False,
                    nev,
                    which,
                    solver_tols[a],
                    lane_tols[a],
                    "converged" if conv[pos] else "maxiter",
                    restart_count,
                    int(matvecs[a]),
                )
            cont = ~done
            alive = alive[cont]
            if alive.size == 0:
                break

            # ---------------- lockstep Krylov-Schur restart -------------- #
            restart_count += 1
            theta, Y, b_ritz = theta[cont], Y[cont], b_ritz[cont]
            orders = [o for o, c in zip(orders, cont) if c]
            keep_n = min(maxdim - 1, max(nev + (maxdim - nev) // 2, nev + 1))
            Ysel = np.stack(
                [Y[pos][:, orders[pos][:keep_n]] for pos in range(alive.size)]
            )
            V_new = bctx.gemm(np.ascontiguousarray(V[alive]), Ysel, alive)
            V_prev = np.zeros((nrows, n, keep_n), dtype=dtype)
            S_prev = np.zeros((nrows, keep_n, keep_n), dtype=dtype)
            b_prev = np.zeros((nrows, keep_n), dtype=dtype)
            ar = np.arange(keep_n)
            for pos, a in enumerate(alive):
                sel = orders[pos][:keep_n]
                V_prev[a] = V_new[pos]
                S_prev[a, ar, ar] = np.asarray(theta[pos])[sel]
                b_prev[a] = np.asarray(b_ritz[pos])[sel].astype(dtype)
            k = keep_n

    bctx.flush_op_counts()
    for ctx in contexts:
        ctx.publish_op_count()
    return results
