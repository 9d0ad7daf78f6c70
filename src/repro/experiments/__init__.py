"""Experiment harness: reproduce the paper's evaluation pipeline.

The pipeline, per matrix and number format, is (Section 2.2 of the paper):

1. compute a reference solution (10 + 2 largest eigenpairs) in extended
   precision;
2. convert the matrix to the target format (recording the ∞σ dynamic-range
   failure when entries overflow/underflow);
3. run ``partialschur`` entirely in the target arithmetic with the
   bit-width-dependent tolerance (∞ω when it does not converge);
4. match the computed eigenvectors to the reference ones with the absolute
   cosine-similarity matrix and the Hungarian algorithm, fix signs using the
   largest-magnitude reference entry;
5. record the relative L2 errors of the eigenvalues and eigenvectors.

Aggregation sorts the per-matrix errors into the cumulative distributions of
Figures 1-5.
"""

from .tolerances import TOLERANCES, tolerance_for, REFERENCE_TOLERANCE
from .matching import cosine_similarity_matrix, match_eigenpairs, fix_signs
from .errors import relative_l2_error, absolute_l2_error, error_metrics
from .config import ExperimentConfig
from .runner import (
    RunRecord,
    ReferenceRecord,
    MatrixExperiment,
    run_matrix_experiment,
    run_experiment,
    ExperimentResult,
)
from .aggregate import (
    cumulative_distribution,
    aggregate_by_format,
    figure_series,
    statuses_by_format,
    FormatSummary,
)
from .figures import (
    figure_report,
    figure_csv_rows,
    figure_json,
    table1_report,
    render_figure,
)
from .store import (
    STORE_SCHEMA_VERSION,
    ResultStore,
    ExperimentPlan,
    ExecutionReport,
    default_store_root,
    matrix_fingerprint,
    task_key,
    reference_key,
    plan_experiment,
    execute_plan,
)

__all__ = [
    "TOLERANCES",
    "REFERENCE_TOLERANCE",
    "tolerance_for",
    "cosine_similarity_matrix",
    "match_eigenpairs",
    "fix_signs",
    "relative_l2_error",
    "absolute_l2_error",
    "error_metrics",
    "ExperimentConfig",
    "RunRecord",
    "ReferenceRecord",
    "MatrixExperiment",
    "run_matrix_experiment",
    "run_experiment",
    "ExperimentResult",
    "cumulative_distribution",
    "aggregate_by_format",
    "figure_series",
    "statuses_by_format",
    "FormatSummary",
    "figure_report",
    "figure_csv_rows",
    "figure_json",
    "table1_report",
    "render_figure",
    "STORE_SCHEMA_VERSION",
    "ResultStore",
    "ExperimentPlan",
    "ExecutionReport",
    "default_store_root",
    "matrix_fingerprint",
    "task_key",
    "reference_key",
    "plan_experiment",
    "execute_plan",
]
