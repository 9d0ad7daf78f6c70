"""Ablation A: pairwise vs sequential accumulation in the emulated kernels.

The emulated dot products / sparse matrix-vector products round after every
elementary operation; the *order* of the additions is a design choice
(docs/experiments.md, "Substitutions").  This benchmark runs the 16-bit
formats on a small general suite with both orders and reports how the error
distributions shift.
"""

import numpy as np

from repro.datasets import suitesparse_like
from repro.experiments import aggregate_by_format, run_experiment
from repro.utils import format_table

from .conftest import bench_config, bench_matrix_count, bench_size_range, write_report

FORMATS = ("bfloat16", "float16", "posit16", "takum16")


def _run(accumulation: str, suite):
    config = bench_config(accumulation=accumulation)
    return run_experiment(suite, FORMATS, config, workers=1)


def test_ablation_accumulation_order(benchmark):
    suite = suitesparse_like(
        count=max(2, bench_matrix_count() // 2), size_range=bench_size_range(), seed=5
    )

    results = {}

    def task():
        results["pairwise"] = _run("pairwise", suite)
        results["sequential"] = _run("sequential", suite)
        return results

    benchmark.pedantic(task, rounds=1, iterations=1)

    rows = []
    for mode, result in results.items():
        summaries = aggregate_by_format(result.records)
        for name in FORMATS:
            s = summaries[name]
            median = s.eigenvalue_percentiles[50]
            rows.append(
                [
                    mode,
                    name,
                    s.evaluated,
                    s.no_convergence,
                    f"{median:.3e}" if np.isfinite(median) else "n/a",
                ]
            )
    report = format_table(
        ["accumulation", "format", "ok", "inf_omega", "median lambda rel err"],
        rows,
        title="Ablation A: accumulation order of rounded reductions",
    )
    write_report("ablation_accumulation.txt", report)
    assert results["pairwise"].records and results["sequential"].records
