"""Explicit-context baseline implementations of the migrated solver kernels.

The solver modules run their loops in the compiled rounding library:
``repro.core.arnoldi`` its Arnoldi expansion, and
``repro.linalg.tridiagonal`` its Householder reduction (on a stacked
``[A; Q]`` buffer) and its QL iteration; ``repro.core.krylov_schur``
calls the context's rounded kernels between them.
This module preserves the explicit
``ctx.sub(w, ctx.gemv(V, h))`` spelling of the same algorithms — the
pre-migration code, byte for byte where possible — so that
``tests/test_operator_equivalence.py`` can prove the shipped kernels produce
*bit-identical* trajectories: every operator, and every rounded scalar op of
the QL recurrence, must map onto exactly the same sequence of rounded
context operations.

Do not "modernise" this file: its value is that it does NOT use the
operator API.
"""

from __future__ import annotations

import numpy as np

from repro.core.arnoldi import KrylovDecomposition, _DGKS_ETA
from repro.core.krylov_schur import default_maxdim, effective_tolerance
from repro.core.results import ArnoldiBreakdown, PartialSchurResult
from repro.linalg.ordering import select_order
from repro.linalg.tridiagonal import EigenConvergenceError


# --------------------------------------------------------------------- #
# reflectors (explicit form)
# --------------------------------------------------------------------- #
def householder_vector_explicit(ctx, x):
    x = np.asarray(x, dtype=ctx.dtype)
    n = x.shape[0]
    normx = ctx.norm2(x)
    if not np.isfinite(normx) or float(normx) == 0.0:
        v = np.zeros(n, dtype=ctx.dtype)
        if n:
            v[0] = 1.0
        return v, ctx.dtype(0.0), ctx.dtype(0.0) if float(normx) == 0.0 else normx
    xs = ctx.div(x, normx)
    sign = -1.0 if float(x[0]) < 0 else 1.0
    alpha = ctx.mul(ctx.dtype(-sign), normx)
    v = xs.copy()
    v[0] = ctx.sub(xs[0], ctx.dtype(-sign))
    vnorm2 = ctx.dot(v, v)
    if not np.isfinite(vnorm2) or float(vnorm2) == 0.0:
        v = np.zeros(n, dtype=ctx.dtype)
        if n:
            v[0] = 1.0
        return v, ctx.dtype(0.0), alpha
    beta = ctx.div(ctx.dtype(2.0), vnorm2)
    if not np.isfinite(beta):
        v = np.zeros(n, dtype=ctx.dtype)
        if n:
            v[0] = 1.0
        return v, ctx.dtype(0.0), alpha
    return v, beta, alpha


def apply_reflector_left_explicit(ctx, v, beta, A):
    A = np.asarray(A, dtype=ctx.dtype)
    if float(beta) == 0.0:
        return A.copy()
    w = ctx.gemv_t(A, v)
    update = ctx.mul(ctx.mul(beta, v)[:, np.newaxis], w[np.newaxis, :])
    return ctx.sub(A, update)


def apply_reflector_right_explicit(ctx, A, v, beta):
    A = np.asarray(A, dtype=ctx.dtype)
    if float(beta) == 0.0:
        return A.copy()
    w = ctx.gemv(A, v)
    update = ctx.mul(w[:, np.newaxis], ctx.mul(beta, v)[np.newaxis, :])
    return ctx.sub(A, update)


# --------------------------------------------------------------------- #
# symmetric eigensolver (explicit form)
# --------------------------------------------------------------------- #
def tridiagonalize_explicit(ctx, A):
    A = np.array(np.asarray(A, dtype=ctx.dtype), copy=True)
    n = A.shape[0]
    Q = np.eye(n, dtype=ctx.dtype)
    for k in range(n - 2):
        x = A[k + 1 :, k]
        v_small, beta, _ = householder_vector_explicit(ctx, x)
        if float(beta) == 0.0:
            continue
        v = np.zeros(n, dtype=ctx.dtype)
        v[k + 1 :] = v_small
        A = apply_reflector_left_explicit(ctx, v, beta, A)
        A = apply_reflector_right_explicit(ctx, A, v, beta)
        Q = apply_reflector_right_explicit(ctx, Q, v, beta)
    d = np.array([A[i, i] for i in range(n)], dtype=ctx.dtype)
    e = np.array([A[i + 1, i] for i in range(n - 1)], dtype=ctx.dtype)
    return d, e, Q


def tridiagonal_eigen_explicit(ctx, d, e, Z=None, max_sweeps: int = 60):
    d = np.array(np.asarray(d, dtype=ctx.dtype), copy=True)
    n = d.shape[0]
    e_full = np.zeros(n, dtype=ctx.dtype)
    if n > 1:
        e_full[: n - 1] = np.asarray(e, dtype=ctx.dtype)[: n - 1]
    if Z is None:
        Z = np.eye(n, dtype=ctx.dtype)
    else:
        Z = np.array(np.asarray(Z, dtype=ctx.dtype), copy=True)
    if n == 0:
        return d, Z
    eps = ctx.dtype(ctx.machine_epsilon)
    eps_f = float(eps)
    one = ctx.dtype(1.0)
    two = ctx.dtype(2.0)

    for low in range(n):
        sweeps = 0
        while True:
            if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e_full))):
                raise EigenConvergenceError("non-finite values during QL iteration")
            m = low
            while m < n - 1:
                dd = abs(float(d[m])) + abs(float(d[m + 1]))
                if abs(float(e_full[m])) <= eps_f * dd:
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
            g = ctx.div(ctx.sub(d[low + 1], d[low]), ctx.mul(two, e_full[low]))
            r = ctx.hypot(g, one)
            denom = ctx.add(g, np.copysign(r, g))
            if float(denom) == 0.0 or not np.isfinite(denom):
                denom = np.copysign(ctx.dtype(max(float(eps), 1e-30)), g)
            g = ctx.add(ctx.sub(d[m], d[low]), ctx.div(e_full[low], denom))
            s = one
            c = one
            p = ctx.dtype(0.0)
            restart = False
            for i in range(m - 1, low - 1, -1):
                f = ctx.mul(s, e_full[i])
                b = ctx.mul(c, e_full[i])
                r = ctx.hypot(f, g)
                e_full[i + 1] = r
                if float(r) == 0.0:
                    d[i + 1] = ctx.sub(d[i + 1], p)
                    e_full[m] = ctx.dtype(0.0)
                    restart = True
                    break
                s = ctx.div(f, r)
                c = ctx.div(g, r)
                g = ctx.sub(d[i + 1], p)
                r = ctx.add(
                    ctx.mul(ctx.sub(d[i], g), s), ctx.mul(ctx.mul(two, c), b)
                )
                p = ctx.mul(s, r)
                d[i + 1] = ctx.add(g, p)
                g = ctx.sub(ctx.mul(c, r), b)
                zi = Z[:, i].copy()
                zi1 = Z[:, i + 1].copy()
                Z[:, i + 1] = ctx.add(ctx.mul(s, zi), ctx.mul(c, zi1))
                Z[:, i] = ctx.sub(ctx.mul(c, zi), ctx.mul(s, zi1))
            if restart:
                continue
            d[low] = ctx.sub(d[low], p)
            e_full[low] = g
            e_full[m] = ctx.dtype(0.0)
    return d, Z


def symmetric_eigen_explicit(ctx, A, max_sweeps: int = 60):
    A = np.asarray(A, dtype=ctx.dtype)
    if A.shape[0] == 0:
        return np.zeros(0, dtype=ctx.dtype), np.zeros((0, 0), dtype=ctx.dtype)
    if A.shape[0] == 1:
        return A[0, :1].copy(), np.ones((1, 1), dtype=ctx.dtype)
    sym = ctx.mul(ctx.dtype(0.5), ctx.add(A, A.T))
    d, e, Q = tridiagonalize_explicit(ctx, sym)
    return tridiagonal_eigen_explicit(ctx, d, e, Z=Q, max_sweeps=max_sweeps)


# --------------------------------------------------------------------- #
# Arnoldi expansion (explicit form)
# --------------------------------------------------------------------- #
def _orthogonalize_explicit(ctx, V_active, w):
    norm_before = ctx.norm2(w)
    h = ctx.gemv_t(V_active, w)
    w = ctx.sub(w, ctx.gemv(V_active, h))
    norm_after = ctx.norm2(w)
    if np.isfinite(norm_after) and float(norm_after) > _DGKS_ETA * float(norm_before):
        return w, h, norm_after, False
    h2 = ctx.gemv_t(V_active, w)
    w = ctx.sub(w, ctx.gemv(V_active, h2))
    h = ctx.add(h, h2)
    norm_final = ctx.norm2(w)
    breakdown = not np.isfinite(norm_final) or float(norm_final) <= _DGKS_ETA * float(
        norm_after
    ) or float(norm_final) == 0.0
    return w, h, norm_final, breakdown


def _random_orthonormal_explicit(ctx, V_active, rng):
    n = V_active.shape[0]
    for _ in range(3):
        candidate = ctx.asarray(rng.standard_normal(n))
        candidate, _, norm, breakdown = _orthogonalize_explicit(ctx, V_active, candidate)
        if not breakdown and np.isfinite(norm) and float(norm) > 0.0:
            return ctx.div(candidate, norm)
    return None


def arnoldi_expand_explicit(ctx, matrix, decomp, target_order, rng=None):
    n = matrix.shape[0]
    k = decomp.order
    target_order = min(target_order, n)
    if rng is None:
        rng = np.random.default_rng(0)
    if k >= target_order or decomp.invariant:
        return decomp, 0

    V = np.zeros((n, target_order), dtype=ctx.dtype)
    S = np.zeros((target_order, target_order), dtype=ctx.dtype)
    if k:
        V[:, :k] = decomp.V
        S[:k, :k] = decomp.S
        S[k, :k] = decomp.b
    b = np.zeros(target_order, dtype=ctx.dtype)
    v_next = decomp.residual
    matvecs = 0

    for j in range(k, target_order):
        if v_next is None or not np.all(np.isfinite(v_next)):
            raise ArnoldiBreakdown("non-finite Krylov vector")
        V[:, j] = v_next
        w = ctx.spmv(matrix, V[:, j])
        matvecs += 1
        if not np.all(np.isfinite(w)):
            raise ArnoldiBreakdown("matrix-vector product overflowed")
        w, h, beta, broke_down = _orthogonalize_explicit(ctx, V[:, : j + 1], w)
        if not np.all(np.isfinite(np.asarray(h, dtype=np.float64))):
            raise ArnoldiBreakdown("orthogonalisation coefficients overflowed")
        S[: j + 1, j] = h
        if not np.isfinite(beta):
            raise ArnoldiBreakdown("residual norm overflowed")
        if broke_down or float(beta) == 0.0:
            replacement = _random_orthonormal_explicit(ctx, V[:, : j + 1], rng)
            if replacement is None:
                return (
                    KrylovDecomposition(
                        V=V[:, : j + 1],
                        S=S[: j + 1, : j + 1],
                        b=np.zeros(j + 1, dtype=ctx.dtype),
                        residual=None,
                        invariant=True,
                    ),
                    matvecs,
                )
            v_next = replacement
            if j + 1 < target_order:
                S[j + 1, j] = 0.0
            else:
                b[:] = 0.0
            continue
        v_next = ctx.div(w, beta)
        if j + 1 < target_order:
            S[j + 1, j] = beta
        else:
            b[:] = 0.0
            b[j] = beta

    return (
        KrylovDecomposition(V=V, S=S, b=b, residual=v_next, invariant=False),
        matvecs,
    )


# --------------------------------------------------------------------- #
# Krylov-Schur driver (explicit form)
# --------------------------------------------------------------------- #
def _initial_vector_explicit(ctx, n, v0, seed):
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


def _ritz_decomposition_explicit(ctx, decomp):
    theta, Y = symmetric_eigen_explicit(ctx, decomp.S)
    b_ritz = ctx.gemv_t(Y, decomp.b)
    return theta, Y, b_ritz


def _count_converged_explicit(theta, b_ritz, order, nev, tol):
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


def partialschur_explicit(
    matrix,
    nev=6,
    which="LM",
    tol=1e-8,
    maxdim=None,
    restarts=100,
    ctx=None,
    v0=None,
    seed=0,
    eps_floor=True,
):
    """Explicit-context copy of :func:`repro.core.partialschur` (no history)."""
    from repro.arithmetic import get_context

    if ctx is None:
        ctx = get_context("float64")
    elif isinstance(ctx, str):
        ctx = get_context(ctx)
    n = matrix.shape[0]
    nev = min(nev, n)
    if maxdim is None:
        maxdim = default_maxdim(nev, n)
    maxdim = int(min(max(maxdim, nev + 2), n))
    solver_tol = effective_tolerance(tol, ctx, eps_floor)

    matrix = matrix.with_data(ctx.round(np.asarray(matrix.data, dtype=ctx.dtype)))

    v_start = _initial_vector_explicit(ctx, n, v0, seed)
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
    reason = "maxiter"
    theta = Y = b_ritz = None
    order = None

    try:
        while True:
            decomp, used = arnoldi_expand_explicit(
                ctx, matrix, decomp, maxdim, rng=deflation_rng
            )
            matvecs += used
            theta, Y, b_ritz = _ritz_decomposition_explicit(ctx, decomp)
            if not np.all(np.isfinite(np.asarray(theta, dtype=np.float64))):
                raise ArnoldiBreakdown("non-finite Ritz values")
            order = select_order(np.asarray(theta, dtype=np.float64), which)
            nconv = _count_converged_explicit(
                theta, b_ritz, order, min(nev, decomp.order), solver_tol
            )
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
    except (ArnoldiBreakdown, EigenConvergenceError):
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
        _count_converged_explicit(theta, b_ritz, order, nret, solver_tol)
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
        history=None,
    )
