"""Lockstep symmetric eigendecomposition over a stacked format axis.

Batched siblings of :mod:`repro.linalg.tridiagonal`: the same EISPACK
``tql2`` algorithm, the same Householder reduction, executed for a whole stack of formats at once
through :class:`repro.arithmetic.BatchedContext`.  Per-row trajectories are
bit-identical to the sequential kernels — every rounded operation is the
same operation on the same values, merely performed for all rows in one
vectorised call.

The QL iteration is inherently data-dependent (each format deflates its
eigenvalues after a different number of sweeps), so the lockstep version
runs one *state machine per batch row* — phase, deflation window ``low``,
scan limit ``m``, rotation index ``i``, sweep counter — and synchronises
them at rotation-tick granularity: every tick advances all scanning
machines (exact float comparisons, no rounded arithmetic), performs the
shift for machines entering a sweep, and executes one Givens rotation step
for all rotating machines as a handful of batched rounded operations.
Machines that fail to deflate (the paper's ∞ω regime) are marked failed
and drop out; the rest continue unaffected.

As in the sequential kernel, the eigenvector update is deferred: every
Givens step records ``(row, i, c, s)``, and the iteration ends by applying
each row's sequence in the waves of
:func:`repro.linalg.tridiagonal.wavefront_schedule` (failed rows included,
so their op tallies match the sequential solves that raised).  Wave ``w``
of all rows is one :meth:`BatchedContext.rotate_columns` call whose leading
axis holds the (row, rotation) entries, with ``rows`` repeated per entry;
rotations of one row in one wave touch disjoint columns, so each row's
columns see the same rounded operations in the same order as step by step.
"""

from __future__ import annotations

import numpy as np

from ..arithmetic.batched import BatchedContext
from ..telemetry import trace as _trace
from .tridiagonal import EigenConvergenceError, wavefront_schedule

__all__ = [
    "lockstep_symmetric_eigen",
    "lockstep_tridiagonalize",
    "lockstep_tridiagonal_eigen",
]

# per-machine phases of the QL iteration
_SCAN = 0  # exact deflation scan (no rounded arithmetic)
_SHIFT = 1  # Wilkinson-like shift, entering a sweep
_ROTATE = 2  # one Givens rotation per tick
_DONE = 3
_FAILED = 4


def _sub_rows(rows: np.ndarray, sel: np.ndarray) -> np.ndarray:
    return rows[sel]


def lockstep_tridiagonalize(bctx: BatchedContext, A, rows):
    """Batched Householder tridiagonalisation, one format per row.

    ``A`` is ``(R, n, n)``; returns ``(d, e, Q)`` stacked the same way.
    Mirrors :func:`repro.linalg.tridiagonal.tridiagonalize` per row: the
    zero/non-finite reflector short-circuits are per-row branches, so each
    step applies the reflectors only for the rows whose ``beta`` is
    non-zero — exactly the rows the sequential loop would not ``continue``
    past.
    """
    A = np.array(np.asarray(A, dtype=bctx.dtype), copy=True)
    nb, n, n2 = A.shape
    if n != n2:
        raise ValueError("lockstep_tridiagonalize requires square matrices")
    Q = np.broadcast_to(np.eye(n, dtype=bctx.dtype), A.shape).copy()
    for k in range(n - 2):
        x = np.ascontiguousarray(A[:, k + 1 :, k])
        v_small, beta = _householder_vectors(bctx, x, rows)
        active = np.nonzero(beta != 0)[0]
        if active.size == 0:
            continue
        sub = _sub_rows(rows, active)
        v = np.zeros((active.size, n), dtype=bctx.dtype)
        v[:, k + 1 :] = v_small[active]
        beta_a = beta[active]
        Asub = np.ascontiguousarray(A[active])
        # left update: A <- A - (beta v)[:, None] * (v^T A)[None, :]
        w = bctx.gemv_t(Asub, v, sub)
        bv = bctx.mul(beta_a[:, None], v, sub)
        update = bctx.mul(bv[:, :, None], w[:, None, :], sub)
        Asub = bctx.sub(Asub, update, sub)
        # right update: A <- A - (A v)[:, None] * (beta v)[None, :]
        w = bctx.gemv(Asub, v, sub)
        bv = bctx.mul(beta_a[:, None], v, sub)
        update = bctx.mul(w[:, :, None], bv[:, None, :], sub)
        Asub = bctx.sub(Asub, update, sub)
        A[active] = Asub
        Qsub = np.ascontiguousarray(Q[active])
        w = bctx.gemv(Qsub, v, sub)
        bv = bctx.mul(beta_a[:, None], v, sub)
        update = bctx.mul(w[:, :, None], bv[:, None, :], sub)
        Q[active] = bctx.sub(Qsub, update, sub)
    ar = np.arange(n)
    d = np.ascontiguousarray(A[:, ar, ar])
    e = np.ascontiguousarray(A[:, ar[1:], ar[:-1]])
    return d, e, Q


def _householder_vectors(bctx: BatchedContext, x, rows):
    """The reflectors of one step of the reduction, for every row: the
    ops of the compiled ``tridiagonalize`` entry's reflector (scaled norm,
    ``x / normx``, ``v[0] + sign``, ``v . v``, ``2 / (v . v)``).

    Returns ``(v, beta)`` stacked; rows that hit any of the sequential
    zero/non-finite short-circuits get ``beta = 0`` (their ``v`` is the
    unused identity reflector).  ``alpha`` is discarded — the
    tridiagonalisation never reads it — but its rounded multiply is still
    performed so per-row op tallies match the sequential path exactly.
    """
    nb, m = x.shape
    v = np.zeros((nb, m), dtype=bctx.dtype)
    if m:
        v[:, 0] = 1.0
    beta = np.zeros(nb, dtype=bctx.dtype)
    normx = bctx.norm2(x, rows)
    general = np.isfinite(normx) & (normx != 0)
    gi = np.nonzero(general)[0]
    if gi.size == 0:
        return v, beta
    sub = _sub_rows(rows, gi)
    xs = bctx.div(x[gi], normx[gi][:, None], sub)
    sign = np.where(x[gi, 0] < 0, -1.0, 1.0).astype(bctx.dtype)
    bctx.mul(-sign, normx[gi].copy(), sub)
    vg = xs.copy()
    vg[:, 0] = bctx.sub(xs[:, 0].copy(), -sign, sub)
    vnorm2 = bctx.dot(vg, vg, sub)
    ok = np.isfinite(vnorm2) & (vnorm2 != 0)
    oi = np.nonzero(ok)[0]
    if oi.size == 0:
        return v, beta
    bsub = bctx.div(bctx.dtype(2.0), vnorm2[oi], _sub_rows(sub, oi))
    bsub[~np.isfinite(bsub)] = 0.0
    fill = gi[oi]
    v[fill] = vg[oi]
    beta[fill] = bsub
    return v, beta


def lockstep_tridiagonal_eigen(bctx, d, e, Z, rows, max_sweeps: int = 60):
    """Batched implicit-shift QL iteration (per-row state machines).

    ``d`` is ``(R, n)``, ``e`` ``(R, n - 1)``, ``Z`` ``(R, n, n)`` (or
    ``None`` for identity).  Returns ``(w, Z, errors)`` where ``errors`` is
    a per-row list of ``None`` or the :class:`EigenConvergenceError`
    message the sequential solver would have raised (failed rows' ``w``/
    ``Z`` contents are unspecified, as the sequential exception discards
    them).
    """
    with _trace.span("tridiagonal.ql_lockstep", rows=len(rows)) as sp:
        dtype = bctx.dtype
        d = np.array(np.asarray(d, dtype=dtype), copy=True)
        nb, n = d.shape
        e_full = np.zeros((nb, n), dtype=dtype)
        if n > 1:
            e_full[:, : n - 1] = np.asarray(e, dtype=dtype)[:, : n - 1]
        if Z is None:
            Z = np.broadcast_to(np.eye(n, dtype=dtype), (nb, n, n)).copy()
        else:
            Z = np.array(np.asarray(Z, dtype=dtype), copy=True)
        errors: list = [None] * nb
        record: list = []
        try:
            _lockstep_ql(bctx, d, e_full, rows, max_sweeps, errors, record)
        finally:
            nrot, waves = _apply_rotations(bctx, Z, rows, record)
            sp.set(rotations=nrot, waves=waves)
        return d, Z, errors


def _apply_rotations(bctx, Z, rows, record):
    """Apply the recorded ``(machines, i, c, s)`` ticks to the stacked
    ``Z`` in place, one batched ``rotate_columns`` call per wave across all
    rows; returns ``(rotations, waves)``."""
    if not record:
        return 0, 0
    a, i, c, s = (np.concatenate(part) for part in zip(*record))
    n = Z.shape[2]
    waves = wavefront_schedule((a * n + i).tolist(), Z.shape[0] * n)
    for k in waves:
        ak, ik = a[k], i[k]
        rot = bctx.rotate_columns(c[k], s[k], Z[ak, :, ik], Z[ak, :, ik + 1], rows[ak])
        Z[ak, :, ik] = rot[:, 0]
        Z[ak, :, ik + 1] = rot[:, 1]
    return a.size, len(waves)


def _lockstep_ql(bctx, d, e, rows, max_sweeps, errors, record):
    """Run the per-row QL state machines on ``d``/``e`` in place, filling
    ``errors`` and appending each tick's Givens steps to ``record``."""
    dtype = bctx.dtype
    nb, n = d.shape
    if n == 0:
        return
    eps = np.array(
        [float(bctx.rows[r].machine_epsilon) for r in rows], dtype=np.float64
    )

    phase = np.full(nb, _SCAN, dtype=np.int64)
    low = np.zeros(nb, dtype=np.int64)
    mlim = np.zeros(nb, dtype=np.int64)
    idx = np.zeros(nb, dtype=np.int64)
    sweeps = np.zeros(nb, dtype=np.int64)
    g = np.zeros(nb, dtype=dtype)
    s = np.zeros(nb, dtype=dtype)
    c = np.zeros(nb, dtype=dtype)
    p = np.zeros(nb, dtype=dtype)

    def _fail(a, msg):
        phase[a] = _FAILED
        errors[a] = msg

    def _scan(a):
        """Advance machine ``a`` through the exact deflation scan.

        Mirrors the scan of the sequential ``while True`` loop (finite
        check on every entry, per-``low`` sweep-counter reset) until the
        machine either finishes (``low == n``), fails, or enters a sweep.
        """
        while True:
            if low[a] >= n:
                phase[a] = _DONE
                return
            if not (np.isfinite(d[a]).all() and np.isfinite(e[a]).all()):
                _fail(a, "non-finite values during QL iteration")
                return
            lo = low[a]
            m = lo
            while m < n - 1:
                dd = abs(float(d[a, m])) + abs(float(d[a, m + 1]))
                if abs(float(e[a, m])) <= eps[a] * dd:
                    break
                m += 1
            if m == lo:
                low[a] += 1
                sweeps[a] = 0
                continue
            sweeps[a] += 1
            if sweeps[a] > max_sweeps:
                _fail(
                    a,
                    f"QL iteration did not deflate eigenvalue {lo} within "
                    f"{max_sweeps} sweeps in {bctx.rows[rows[a]].name}",
                )
                return
            mlim[a] = m
            phase[a] = _SHIFT
            return

    for a in range(nb):
        _scan(a)

    while True:
        active = np.nonzero(phase == _SHIFT)[0]
        if active.size:
            sub = _sub_rows(rows, active)
            lo = low[active]
            m = mlim[active]
            d1 = d[active, lo + 1]
            d0 = d[active, lo]
            e0 = e[active, lo]
            # g = (d[low+1] - d[low]) / (2.0 * e[low])
            gs = bctx.div(
                bctx.sub(d1, d0, sub), bctx.mul(dtype(2.0), e0, sub), sub
            )
            r = bctx.hypot(gs, np.full(active.size, 1.0, dtype=dtype), sub)
            denom = bctx.add(gs, np.copysign(r, gs), sub)
            bad = (denom == 0) | ~np.isfinite(denom)
            if bad.any():
                fix = np.maximum(eps[active], 1e-30)
                denom[bad] = np.copysign(fix[bad].astype(dtype), gs[bad])
            # g = (d[m] - d[low]) + e[low] / denom
            gs = bctx.add(
                bctx.sub(d[active, m], d0, sub), bctx.div(e0, denom, sub), sub
            )
            g[active] = gs
            s[active] = 1.0
            c[active] = 1.0
            p[active] = 0.0
            idx[active] = m - 1
            phase[active] = _ROTATE

        active = np.nonzero(phase == _ROTATE)[0]
        if active.size == 0:
            if not np.any(phase == _SHIFT):
                break
            continue

        sub = _sub_rows(rows, active)
        i = idx[active]
        ei = e[active, i]
        f = bctx.mul(s[active], ei, sub)
        b = bctx.mul(c[active], ei, sub)
        r = bctx.hypot(f, g[active], sub)
        e[active, i + 1] = r  # exact store of an already-rounded value
        zero = r == 0
        if zero.any():
            za = active[zero]
            zsub = _sub_rows(rows, za)
            # d[i+1] = d[i+1] - p; e[m] = 0; restart the scan
            d[za, idx[za] + 1] = bctx.sub(d[za, idx[za] + 1], p[za], zsub)
            e[za, mlim[za]] = 0.0
            for a in za:
                phase[a] = _SCAN
                _scan(a)
        live = np.nonzero(~zero)[0]
        if live.size:
            la = active[live]
            lsub = _sub_rows(rows, la)
            i = idx[la]
            fl = f[live]
            bl = b[live]
            rl = r[live]
            sl = bctx.div(fl, rl, lsub)
            cl = bctx.div(g[la], rl, lsub)
            gl = bctx.sub(d[la, i + 1], p[la], lsub)
            # r = (d[i] - g) * s + (2.0 * c) * b
            r2 = bctx.add(
                bctx.mul(bctx.sub(d[la, i], gl, lsub), sl, lsub),
                bctx.mul(bctx.mul(dtype(2.0), cl, lsub), bl, lsub),
                lsub,
            )
            pl = bctx.mul(sl, r2, lsub)
            d[la, i + 1] = bctx.add(gl, pl, lsub)
            gl2 = bctx.sub(bctx.mul(cl, r2, lsub), bl, lsub)
            # eigenvector columns i and i+1, rotated once the iteration ends
            record.append((la, i, cl, sl))
            s[la] = sl
            c[la] = cl
            g[la] = gl2
            p[la] = pl
            idx[la] -= 1
            done_sweep = idx[la] < low[la]
            if done_sweep.any():
                ea = la[done_sweep]
                esub = _sub_rows(rows, ea)
                # d[low] = d[low] - p; e[low] = g; e[m] = 0
                d[ea, low[ea]] = bctx.sub(d[ea, low[ea]], p[ea], esub)
                e[ea, low[ea]] = g[ea]
                e[ea, mlim[ea]] = 0.0
                for a in ea:
                    phase[a] = _SCAN
                    _scan(a)


def lockstep_symmetric_eigen(bctx, A, rows, max_sweeps: int = 60):
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
    with _trace.span("tridiagonal.reduce_lockstep", rows=len(rows)):
        d, e, Q = lockstep_tridiagonalize(bctx, sym, rows)
    return lockstep_tridiagonal_eigen(bctx, d, e, Q, rows, max_sweeps=max_sweeps)
