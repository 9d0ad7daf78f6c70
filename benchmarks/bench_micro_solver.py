"""Micro-benchmark: ``partialschur`` solver cost vs matrix size and format.

Measures the end-to-end cost of one partial spectral decomposition (the unit
of work behind every data point of Figures 1-5) for a representative graph
Laplacian, across formats and Krylov dimensions.  The wide (32/64-bit)
posit/takum cases quantify the scalar fast paths end to end: the solvers'
scalar Givens operations round through the compiled scalar entry of the
format's kernel, inside the compiled QL or through ``round_scalar``.

The QL section times the shipped implicit-shift QL iteration
(``repro.linalg.tridiagonal.tridiagonal_eigen``) against the explicit
step-by-step baseline preserved in ``tests/_explicit_baseline.py``, which
spells every rounded operation as a ``ctx.add(ctx.mul(...))`` call and
rotates the eigenvectors with six array ops per Givens step.  Both execute
bit-identical rounded-operation sequences.  The shipped iteration is two
calls of the compiled rounding library: ``ql`` runs the recurrence in C,
each op rounded by the step of the format's kernel, and ``rotate``
applies the deferred rotations in waves of disjoint column pairs, two
rounding passes per wave.  The ratio is the shipped loop's cost relative
to that baseline; it is expected to be far below zero, and the gate
catches a QL rewrite that makes the loop slower than the step-by-step
spelling it replaced.

Smoke mode for CI::

    PYTHONPATH=src python benchmarks/bench_micro_solver.py --check

runs the QL comparison across the emulated formats and fails (exit code 1)
if the shipped QL is more than 5% slower than the explicit baseline in
aggregate.
"""

import time

if __package__ in (None, ""):
    # executed as a script (python benchmarks/bench_micro_solver.py):
    # make src/ and the repo root (tests/ baselines) importable
    import pathlib
    import sys

    _root = pathlib.Path(__file__).resolve().parent.parent
    for _entry in (str(_root), str(_root / "src")):
        if _entry not in sys.path:
            sys.path.insert(0, _entry)

import numpy as np
import pytest

from repro.arithmetic import get_context
from repro.core import partialschur
from repro.datasets import generate_graph
from repro.experiments import tolerance_for
from repro.linalg.tridiagonal import tridiagonal_eigen, tridiagonalize
from repro.sparse import laplacian_from_adjacency


def _laplacian(n: int):
    adjacency, _ = generate_graph("soc", index=0, size=n, seed=3)
    return laplacian_from_adjacency(adjacency)


@pytest.mark.parametrize(
    "fmt",
    [
        "float64",
        "reference",
        "bfloat16",
        "takum16",
        # wide formats: scalar-kernel regime
        "posit32",
        "takum32",
        "posit64",
        "takum64",
    ],
)
def test_partialschur_per_format(benchmark, fmt):
    matrix = _laplacian(48)
    tol = 1e-18 if fmt == "reference" else tolerance_for(fmt)
    result = benchmark.pedantic(
        lambda: partialschur(matrix, nev=12, tol=tol, ctx=fmt, restarts=25),
        rounds=1,
        iterations=1,
    )
    assert result.matvecs > 0


@pytest.mark.parametrize("size", [32, 64, 96])
def test_partialschur_scaling_with_size(benchmark, size):
    matrix = _laplacian(size)
    result = benchmark.pedantic(
        lambda: partialschur(matrix, nev=12, tol=1e-4, ctx="takum16", restarts=25),
        rounds=1,
        iterations=1,
    )
    assert result.nev > 0


@pytest.mark.parametrize("maxdim", [16, 25, 36])
def test_partialschur_scaling_with_krylov_dimension(benchmark, maxdim):
    matrix = _laplacian(64)
    result = benchmark.pedantic(
        lambda: partialschur(
            matrix, nev=12, tol=1e-4, ctx="bfloat16", restarts=25, maxdim=maxdim
        ),
        rounds=1,
        iterations=1,
    )
    assert result.nev > 0


# --------------------------------------------------------------------- #
# shipped QL iteration vs the explicit step-by-step baseline
# --------------------------------------------------------------------- #

#: formats whose QL path the overhead gate covers: the narrow and the wide
#: scalar-kernel regimes (the arithmetics under study;
#: native float64 is a cast, where per-operation Python overhead dominates
#: and the comparison measures the interpreter, not the rounding path)
OVERHEAD_FORMATS = (
    "bfloat16",
    "posit16",
    "takum16",
    "posit32",
    "takum32",
    "posit64",
    "takum64",
)

#: acceptance threshold on the aggregate overhead of the shipped QL
OVERHEAD_LIMIT = 0.05


def _ql_problem(ctx, n: int = 24):
    """A tridiagonalised symmetric matrix: input for the QL iteration."""
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((n, n))
    sym = ctx.round(np.asarray((raw + raw.T) / 2, dtype=ctx.dtype))
    return tridiagonalize(ctx, sym)


def measure_ql_overhead(formats=OVERHEAD_FORMATS, repeats: int = 7, n: int = 24):
    """Interleaved best-of-N timing of shipped vs explicit QL per format.

    Returns ``(per_format, aggregate)``: a dict ``fmt -> (t_shipped,
    t_explicit)`` of the fastest observed runs and the aggregate overhead
    ratio ``sum(shipped) / sum(explicit) - 1``.  Interleaving the two variants
    and taking minima makes the ratio robust against machine noise.
    """
    from tests._explicit_baseline import tridiagonal_eigen_explicit

    per_format = {}
    agg_op = agg_ex = 0.0
    for fmt in formats:
        ctx = get_context(fmt)
        d, e, Q = _ql_problem(ctx, n)
        t_op = []
        t_ex = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            tridiagonal_eigen(ctx, d, e, Q)
            t_op.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            tridiagonal_eigen_explicit(ctx, d, e, Q)
            t_ex.append(time.perf_counter() - t0)
        best_op, best_ex = min(t_op), min(t_ex)
        per_format[fmt] = (best_op, best_ex)
        agg_op += best_op
        agg_ex += best_ex
    return per_format, agg_op / agg_ex - 1.0


def format_ql_overhead_report(per_format, aggregate) -> str:
    lines = [
        "Shipped QL iteration vs explicit step-by-step baseline",
        f"{'format':10s} {'shipped':>12s} {'explicit':>12s} {'overhead':>9s}",
    ]
    for fmt, (t_op, t_ex) in per_format.items():
        lines.append(
            f"{fmt:10s} {t_op * 1e3:9.2f} ms {t_ex * 1e3:9.2f} ms "
            f"{100 * (t_op / t_ex - 1):+8.2f}%"
        )
    lines.append(f"{'aggregate':10s} {'':>12s} {'':>12s} {100 * aggregate:+8.2f}%")
    return "\n".join(lines)


@pytest.mark.parametrize("fmt", ["bfloat16", "posit32", "takum64"])
@pytest.mark.parametrize("impl", ["shipped", "explicit"])
def test_ql_shipped_vs_explicit(benchmark, fmt, impl):
    """pytest-benchmark view of the same comparison (representative formats)."""
    from tests._explicit_baseline import tridiagonal_eigen_explicit

    ctx = get_context(fmt)
    d, e, Q = _ql_problem(ctx)
    fn = tridiagonal_eigen if impl == "shipped" else tridiagonal_eigen_explicit
    w, _ = benchmark.pedantic(lambda: fn(ctx, d, e, Q), rounds=1, iterations=1)
    assert np.all(np.isfinite(np.asarray(w, dtype=np.float64)))


def main(argv=None) -> int:
    """Standalone entry point: ``--check`` gates the shipped QL's overhead
    over the explicit baseline."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) if the shipped QL's aggregate overhead over the "
        "explicit baseline exceeds "
        # argparse expands help printf-style, so the percent sign is doubled
        f"{OVERHEAD_LIMIT:.0%}".replace("%", "%%") + " on the QL path",
    )
    parser.add_argument("--repeats", type=int, default=7, help="interleaved repeats")
    parser.add_argument(
        "--passes",
        type=int,
        default=2,
        help="independent measurement passes; the best aggregate counts "
        "(scheduler noise only ever inflates the ratio)",
    )
    args = parser.parse_args(argv)

    per_format, aggregate = measure_ql_overhead(repeats=args.repeats)
    for _ in range(args.passes - 1):
        pf, agg = measure_ql_overhead(repeats=args.repeats)
        if agg < aggregate:
            per_format, aggregate = pf, agg
    print(format_ql_overhead_report(per_format, aggregate))
    from benchmarks.conftest import write_json_report

    write_json_report(
        "micro_solver_ql.json",
        {
            "benchmark": "micro_solver_ql",
            "aggregate_overhead": round(aggregate, 4),
            "overhead_limit": OVERHEAD_LIMIT,
            "per_format": {
                fmt: {"shipped_s": round(t_op, 6), "explicit_s": round(t_ex, 6)}
                for fmt, (t_op, t_ex) in per_format.items()
            },
        },
    )
    if args.check and aggregate > OVERHEAD_LIMIT:
        print(
            f"FAIL: aggregate shipped-QL overhead {aggregate:+.2%} exceeds "
            f"the {OVERHEAD_LIMIT:.0%} budget"
        )
        return 1
    if args.check:
        print(f"OK: aggregate shipped-QL overhead {aggregate:+.2%} within budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
