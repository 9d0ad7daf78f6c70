"""Per-matrix experiment execution and the experiment driver.

``run_matrix_experiment`` reproduces the paper's pipeline for one test matrix
across a list of formats; ``run_experiment`` maps it over a whole suite
(optionally in parallel worker processes) and collects the records that the
aggregation layer turns into the cumulative error distributions of the
figures.
"""

from __future__ import annotations

import dataclasses
import time
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from ..arithmetic.batched import BatchSpec
from ..arithmetic.context import get_context
from ..arithmetic.registry import preload_tables
from ..core.krylov_schur import partialschur
from ..datasets.testmatrix import TestMatrix
from ..telemetry import trace as _trace
from .config import ExperimentConfig
from .errors import ErrorMetrics, error_metrics
from .matching import match_eigenpairs
from .tolerances import tolerance_for

if TYPE_CHECKING:  # avoid the runtime cycle: store.py imports this module
    from .store import ExecutionReport, ResultStore

__all__ = [
    "RunRecord",
    "ReferenceRecord",
    "MatrixExperiment",
    "ExperimentResult",
    "run_matrix_experiment",
    "run_experiment",
]

#: status values a run can end with ("no_convergence"/"range_exceeded" are
#: the paper's ∞ markers; "failed" marks a crashed worker task, which is an
#: infrastructure failure rather than a scientific outcome)
RUN_STATUSES = ("ok", "reference_failed", "no_convergence", "range_exceeded", "failed")


@dataclasses.dataclass
class ReferenceRecord:
    """Outcome of the extended-precision reference solve for one matrix."""

    matrix: str
    converged: bool
    eigenvalues: np.ndarray
    restarts: int
    matvecs: int


@dataclasses.dataclass
class RunRecord:
    """Outcome of one (matrix, format) experiment.

    ``status`` is ``"ok"`` for evaluated runs, ``"no_convergence"`` for the
    paper's ∞ω marker, ``"range_exceeded"`` for ∞σ and
    ``"reference_failed"`` when the reference solve itself did not converge
    (those matrices are excluded from the distributions, as in MuFoLAB).
    A crashed worker task yields ``"failed"`` with the worker traceback in
    ``traceback`` — sibling results survive, and ``rerun_failed`` retries
    exactly these cells.
    """

    matrix: str
    group: str
    category: str
    format: str
    status: str
    eigenvalue_relative_error: float = np.nan
    eigenvector_relative_error: float = np.nan
    eigenvalue_absolute_error: float = np.nan
    eigenvector_absolute_error: float = np.nan
    restarts: int = 0
    matvecs: int = 0
    solver_reason: str = ""
    traceback: str = ""
    #: wall time of this cell (context build, conversion, solve, metrics)
    solve_seconds: float = 0.0
    #: rounded elementary operations tallied by the cell's compute context
    rounded_ops: int = 0

    @property
    def evaluated(self) -> bool:
        """True when error metrics are available for this run."""
        return self.status == "ok"


@dataclasses.dataclass
class MatrixExperiment:
    """All records produced for one test matrix."""

    matrix: str
    reference: ReferenceRecord
    runs: list[RunRecord]
    #: wall time of the whole per-matrix pipeline (reference + all cells)
    seconds: float = 0.0


@dataclasses.dataclass
class ExperimentResult:
    """Flat collection of run records for a whole suite.

    ``report`` (when the run went through the experiment store engine)
    records how much of the suite was served from cache versus executed —
    see :class:`repro.experiments.store.ExecutionReport`.
    """

    records: list[RunRecord]
    references: list[ReferenceRecord]
    config: ExperimentConfig
    report: Optional["ExecutionReport"] = None

    def by_format(self, format_name: str) -> list[RunRecord]:
        return [r for r in self.records if r.format == format_name]

    def formats(self) -> list[str]:
        seen: list[str] = []
        for record in self.records:
            if record.format not in seen:
                seen.append(record.format)
        return seen


def _reference_solve(test_matrix: TestMatrix, config: ExperimentConfig):
    """Reference partial spectral decomposition in extended precision."""
    ctx = get_context(config.context_spec("reference"))
    with _trace.span("experiment.reference", matrix=test_matrix.name, fmt=ctx.name):
        result = partialschur(
            test_matrix.matrix,
            nev=min(config.nev_total, test_matrix.n),
            which=config.which,
            tol=config.reference_tolerance,
            maxdim=config.maxdim,
            restarts=max(config.restarts, 100),
            ctx=ctx,
            seed=config.seed,
            eps_floor=True,
        )
    record = ReferenceRecord(
        matrix=test_matrix.name,
        converged=result.converged,
        eigenvalues=result.eigenvalues_float64(),
        restarts=result.restarts,
        matvecs=result.matvecs,
    )
    return result, record


def _evaluate_solve(
    record: RunRecord,
    result,
    ref_vals: np.ndarray,
    ref_vecs: np.ndarray,
    keep: int,
) -> RunRecord:
    """Fill a record from a finished solver result (shared by the
    per-cell path and the batched path)."""
    record.restarts = result.restarts
    record.matvecs = result.matvecs
    record.solver_reason = result.reason
    if not result.converged or result.nev == 0:
        record.status = "no_convergence"
        return record
    try:
        vals, vecs, _ = match_eigenpairs(
            ref_vals,
            ref_vecs,
            result.eigenvalues_float64(),
            result.eigenvectors_float64(),
            keep=keep,
        )
    except ValueError:
        record.status = "no_convergence"
        return record
    metrics: ErrorMetrics = error_metrics(ref_vals[:keep], ref_vecs[:, :keep], vals, vecs)
    if not metrics.finite:
        record.status = "no_convergence"
        return record
    record.eigenvalue_relative_error = metrics.eigenvalue_relative
    record.eigenvector_relative_error = metrics.eigenvector_relative
    record.eigenvalue_absolute_error = metrics.eigenvalue_absolute
    record.eigenvector_absolute_error = metrics.eigenvector_absolute
    return record


def _run_cell(
    test_matrix: TestMatrix,
    format_name: str,
    config: ExperimentConfig,
    reference_record: ReferenceRecord,
    ref_vals: np.ndarray,
    ref_vecs: np.ndarray,
    keep: int,
) -> RunRecord:
    """Run one (matrix, format) cell of the experiment grid."""
    record = RunRecord(
        matrix=test_matrix.name,
        group=test_matrix.group,
        category=test_matrix.category,
        format=format_name,
        status="ok",
    )
    if not reference_record.converged:
        record.status = "reference_failed"
        return record
    ctx = get_context(config.context_spec(format_name))
    try:
        converted, info = ctx.convert_matrix(test_matrix.matrix)
        if info.range_exceeded:
            # the paper's ∞σ marker: the matrix entries do not fit the format
            record.status = "range_exceeded"
            return record
        result = partialschur(
            converted,
            nev=min(config.nev_total, test_matrix.n),
            which=config.which,
            tol=tolerance_for(format_name),
            maxdim=config.maxdim,
            restarts=config.restarts,
            ctx=ctx,
            seed=config.seed,
            eps_floor=config.eps_floor,
        )
        return _evaluate_solve(record, result, ref_vals, ref_vecs, keep)
    finally:
        # every exit path: remember the cell's op tally and flush it into
        # the telemetry registry (conversion + solve + post-solve rounding)
        record.rounded_ops = ctx.op_count
        ctx.publish_op_count()


def _run_cells_batched(
    test_matrix: TestMatrix,
    formats: Sequence[str],
    config: ExperimentConfig,
    reference_record: ReferenceRecord,
    ref_vals: np.ndarray,
    ref_vecs: np.ndarray,
    keep: int,
) -> list[RunRecord]:
    """All (matrix, format) cells of one matrix as one batched solve.

    The solver phase is one
    :func:`repro.core.lockstep.batched_partialschur` call, which runs
    :func:`repro.core.krylov_schur.partialschur` once per solvable format,
    so the records are exactly what :func:`_run_cell` would have produced.
    The pre-solve (conversion, ∞σ range check) and post-solve (matching,
    error metrics) phases stay per-cell.  ``solve_seconds`` of the batched
    cells is the batch wall time split evenly across them (each row's own
    time is its ``krylov_schur.solve`` trace span).
    """
    from ..core.lockstep import batched_partialschur

    records: list[RunRecord] = []
    solvable: list[tuple[RunRecord, object, object]] = []  # (record, ctx, matrix)
    for format_name in formats:
        record = RunRecord(
            matrix=test_matrix.name,
            group=test_matrix.group,
            category=test_matrix.category,
            format=format_name,
            status="ok",
        )
        records.append(record)
        if not reference_record.converged:
            record.status = "reference_failed"
            continue
        ctx = get_context(config.context_spec(format_name))
        converted, info = ctx.convert_matrix(test_matrix.matrix)
        if info.range_exceeded:
            record.status = "range_exceeded"
            record.rounded_ops = ctx.op_count
            ctx.publish_op_count()
            continue
        solvable.append((record, ctx, converted))
    if not solvable:
        return records

    t_batch = time.perf_counter()
    results = batched_partialschur(
        [m for _, _, m in solvable],
        BatchSpec([ctx for _, ctx, _ in solvable]),
        nev=min(config.nev_total, test_matrix.n),
        which=config.which,
        tol=[tolerance_for(r.format) for r, _, _ in solvable],
        maxdim=config.maxdim,
        restarts=config.restarts,
        seed=config.seed,
        eps_floor=config.eps_floor,
    )
    share = (time.perf_counter() - t_batch) / len(solvable)
    for (record, ctx, _), result in zip(solvable, results):
        _evaluate_solve(record, result, ref_vals, ref_vecs, keep)
        record.solve_seconds = share
        record.rounded_ops = ctx.op_count
        ctx.publish_op_count()
    return records


def run_matrix_experiment(
    test_matrix: TestMatrix,
    formats: Sequence[str],
    config: Optional[ExperimentConfig] = None,
    batch_formats: bool = False,
) -> MatrixExperiment:
    """Run the full per-matrix pipeline for every requested format.

    With ``batch_formats=True`` the solver phase of all formats is one
    :func:`repro.core.lockstep.batched_partialschur` call (one
    ``partialschur`` per format) instead of one :func:`_run_cell` per
    format; the records are bit-identical either way.
    """
    config = config or ExperimentConfig()
    t_start = time.perf_counter()
    reference_result, reference_record = _reference_solve(test_matrix, config)
    runs: list[RunRecord] = []

    keep = min(config.eigenvalue_count, test_matrix.n)
    ref_vals = np.asarray(reference_result.eigenvalues, dtype=np.float64)
    ref_vecs = np.asarray(reference_result.eigenvectors, dtype=np.float64)

    if batch_formats:
        with _trace.span(
            "experiment.cells_batched", matrix=test_matrix.name, formats=len(formats)
        ) as sp:
            runs = _run_cells_batched(
                test_matrix, formats, config, reference_record, ref_vals, ref_vecs, keep
            )
            sp.set(statuses={r.format: r.status for r in runs})
        return MatrixExperiment(
            matrix=test_matrix.name,
            reference=reference_record,
            runs=runs,
            seconds=time.perf_counter() - t_start,
        )

    for format_name in formats:
        t_cell = time.perf_counter()
        with _trace.span("experiment.cell", fmt=format_name, matrix=test_matrix.name) as sp:
            record = _run_cell(
                test_matrix, format_name, config, reference_record, ref_vals, ref_vecs, keep
            )
            # ops stays off this span: the nested krylov_schur.solve spans
            # already carry the tally, and the summariser sums per format
            sp.set(status=record.status)
        record.solve_seconds = time.perf_counter() - t_cell
        runs.append(record)

    return MatrixExperiment(
        matrix=test_matrix.name,
        reference=reference_record,
        runs=runs,
        seconds=time.perf_counter() - t_start,
    )


def run_experiment(
    suite: Iterable[TestMatrix],
    formats: Sequence[str],
    config: Optional[ExperimentConfig] = None,
    workers: int = 1,
    store: Optional["ResultStore"] = None,
    use_cache: bool = True,
    rerun_failed: bool = False,
    batch_formats: bool = False,
) -> ExperimentResult:
    """Run the experiment pipeline over a suite of matrices.

    The execution is *resumable*: with a ``store``, every finished
    (matrix, format) cell is committed to disk as it lands, cached cells are
    subtracted from the plan before any solver starts, and a crashed worker
    task yields a ``"failed"`` record instead of discarding its siblings.
    See :mod:`repro.experiments.store` for the plan/execute engine.

    Parameters
    ----------
    suite:
        Test matrices (``repro.datasets``).
    formats:
        Format names to evaluate (e.g. ``("float16", "bfloat16", "posit16",
        "takum16")``).
    config:
        Experiment configuration; defaults mirror the paper.
    workers:
        Worker processes; each worker handles whole matrices (reference solve
        plus all missing formats) so reference solutions are never recomputed
        within one run.
    store:
        A :class:`~repro.experiments.store.ResultStore` for caching and
        resume; ``None`` (default) runs fully in memory, exactly like the
        historical fire-and-forget pipeline.
    use_cache:
        With ``False`` cached cells are ignored (everything executes) but
        fresh results are still committed, refreshing the store.
    rerun_failed:
        Treat cached ``"failed"`` cells (crashed workers) as missing and
        retry them.
    batch_formats:
        Solve every matrix's missing formats as one
        :func:`repro.core.lockstep.batched_partialschur` call, one
        ``partialschur`` per format, instead of one cell at a time.  Records
        are bit-identical either way, so batched and sequential runs share
        cache entries.
    """
    from .store import execute_plan, plan_experiment  # local: store imports us

    config = config or ExperimentConfig()
    plan = plan_experiment(
        suite,
        formats,
        config,
        store=store,
        use_cache=use_cache,
        rerun_failed=rerun_failed,
        batch_formats=batch_formats,
    )
    # Build the formats' rounding state (bit kernels, scalar-kernel
    # magnitude lists) once in this process: forked workers inherit it
    # copy-on-write instead of rebuilding it per worker, and the serial path
    # pays the build exactly once.  A fully cached (warm) plan executes no
    # solver at all, so skip the build there.
    if plan.tasks:
        preload_tables(formats)
    return execute_plan(plan, workers=workers)
