"""One matrix, a whole stack of formats: the batched entry of the solver.

:func:`batched_partialschur` runs the paper's central experiment — the same
partial spectral decomposition across many number formats — for one matrix
and an ordered list of formats, as one
:func:`repro.core.krylov_schur.partialschur` call per format, in spec
order.  So each row *is* the sequential solve: the same compiled Arnoldi
expansion, reduction and eigensolver entries, the same results, the same
rounded-op tally and the same ``krylov_schur.solve`` trace span with its
children.  The rows differ too much to share work anyway: an 8-bit run
breaks down in its first expansion while float64 restarts dozens of times.

What the batch adds is its input contract (one matrix, or one matrix per
row sharing one sparsity pattern; one tolerance or one per row; a
:class:`~repro.arithmetic.BatchSpec`) and its telemetry: each call emits
``batch.formats`` (rows entering the batch), ``batch.retired`` (rows
leaving, labelled by reason) and ``batch.lockstep_seconds`` (wall time of
the batched solve), inside one ``krylov_schur.solve_batched`` span.
"""

from __future__ import annotations

import time

import numpy as np

from ..arithmetic.batched import BatchSpec
from ..telemetry import trace as _trace
from ..telemetry.metrics import metrics as _metrics
from .krylov_schur import partialschur

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
    solves for every context in ``specs`` and returns one
    :class:`~repro.core.results.PartialSchurResult` per spec, in spec
    order, each the sequential solver's result with the same arguments
    (eigenvalues, eigenvectors, residuals, restart/matvec counts, reason).

    Parameters
    ----------
    matrix:
        CSR matrix, or a sequence of CSR matrices (one per spec, sharing
        one sparsity pattern) whose values are already converted per
        format — re-rounding converted values is the identity, so both
        spellings produce the same trajectories.
    specs:
        :class:`~repro.arithmetic.BatchSpec`, or an ordered iterable of
        :class:`~repro.arithmetic.ContextSpec` / format names.  Rows given
        as built contexts are solved in those contexts, so their op
        tallies stay with the caller.
    tol:
        Scalar tolerance for all rows, or a sequence with one tolerance
        per spec (the runner passes per-format tolerances).
    nev, which, maxdim, restarts, v0, seed, eps_floor:
        As for the sequential solver, applied to every row.
    """
    spec = specs if isinstance(specs, BatchSpec) else BatchSpec(specs)
    nfmt = len(spec)
    mats = _per_row_matrices(matrix, nfmt)
    if mats[0].shape[0] != mats[0].shape[1]:
        raise ValueError("batched_partialschur requires a square matrix")
    if nev < 1:
        raise ValueError("nev must be positive")
    tols = _per_row_tols(tol, nfmt)

    results: list = []
    retired: dict = {}
    start = time.perf_counter()
    with _trace.span("krylov_schur.solve_batched", formats=nfmt) as _sp:
        _metrics.counter("batch.formats").inc(nfmt)
        for row_matrix, row_tol, ctx in zip(mats, tols, spec.build_contexts()):
            res = partialschur(
                row_matrix,
                nev=nev,
                which=which,
                tol=row_tol,
                maxdim=maxdim,
                restarts=restarts,
                ctx=ctx,
                v0=v0,
                seed=seed,
                eps_floor=eps_floor,
            )
            results.append(res)
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
