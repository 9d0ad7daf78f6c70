"""Micro-benchmark: telemetry overhead on the hot solver path.

The telemetry layer (:mod:`repro.telemetry`) promises to be effectively
free: disabled it must cost nothing but a module-attribute check per
instrumented site, and *enabled* (metrics + a configured trace sink) it must
stay within a small single-digit-percent budget on the solver.  The timed
unit is one ``partialschur`` solve of the seed-0 order-32 matrix of the
fig1 grid, as the figure runs it: its restarts hold the projected
eigensolver (one ``tridiagonal.ql`` span per restart), the Arnoldi spans
and every rounding dispatch tally underneath.  A single
``tridiagonal_eigen`` call is no longer a fair unit: it is one compiled
call, so one live-sink span (~24 µs) alone is several percent of it.

The measurement interleaves disabled and enabled runs per format and takes
the per-variant minima, exactly like the operator-API gate in
``bench_micro_solver.py``: machine noise only ever inflates the ratio, never
hides a real regression.

Smoke mode for CI::

    PYTHONPATH=src python benchmarks/bench_telemetry.py --check

fails (exit code 1) if the aggregate enabled-vs-disabled overhead exceeds
2%.
"""

import tempfile
import time

if __package__ in (None, ""):
    # executed as a script (python benchmarks/bench_telemetry.py):
    # make src/ and the repo root importable
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
from repro.datasets import get_suite
from repro.experiments import tolerance_for
from repro.telemetry import metrics, set_enabled, trace

#: formats whose solve the overhead gate covers — the narrow and the wide
#: scalar-kernel regimes (same pool as the QL gate of bench_micro_solver)
OVERHEAD_FORMATS = (
    "bfloat16",
    "posit16",
    "takum16",
    "posit32",
    "takum32",
    "posit64",
    "takum64",
)

#: acceptance threshold on the aggregate telemetry overhead (enabled, with
#: metrics and a live trace sink, vs fully disabled)
OVERHEAD_LIMIT = 0.02


def _solve_problem(fmt: str):
    """The timed unit: a ``partialschur`` solve of the seed-0 order-32
    general matrix of the fig1 grid in ``fmt``, as the figure runs it."""
    matrix = get_suite("general", size_range=(32, 32), seed=0, count=1)[0].matrix
    ctx = get_context(fmt)
    converted, _ = ctx.convert_matrix(matrix)
    tol = tolerance_for(fmt)

    def solve():
        with np.errstate(all="ignore"):
            return partialschur(converted, nev=12, tol=tol, restarts=25, ctx=ctx, seed=0, eps_floor=True)

    return ctx, solve


def measure_telemetry_overhead(formats=OVERHEAD_FORMATS, repeats: int = 7):
    """Interleaved best-of-N timing of telemetry enabled vs disabled solves.

    Returns ``(per_format, aggregate)``: a dict ``fmt -> (t_enabled,
    t_disabled)`` of the fastest observed runs and the aggregate overhead
    ratio ``sum(enabled) / sum(disabled) - 1``.  The enabled variant is the
    worst-case production configuration: metrics on *and* a trace sink
    writing spans to a real file.
    """
    previous = set_enabled(False)
    per_format = {}
    agg_on = agg_off = 0.0
    try:
        with tempfile.TemporaryDirectory() as tmp:
            sink = f"{tmp}/bench_trace.jsonl"
            for fmt in formats:
                ctx, solve = _solve_problem(fmt)
                t_on = []
                t_off = []
                for _ in range(repeats):
                    set_enabled(False)
                    trace.shutdown()
                    t0 = time.perf_counter()
                    solve()
                    t_off.append(time.perf_counter() - t0)

                    set_enabled(True)
                    trace.configure(sink, export_env=False)
                    t0 = time.perf_counter()
                    solve()
                    t_on.append(time.perf_counter() - t0)
                    ctx.publish_op_count()
                best_on, best_off = min(t_on), min(t_off)
                per_format[fmt] = (best_on, best_off)
                agg_on += best_on
                agg_off += best_off
    finally:
        trace.shutdown()
        metrics.reset()
        set_enabled(previous)
    return per_format, agg_on / agg_off - 1.0


def format_telemetry_report(per_format, aggregate) -> str:
    lines = [
        "Telemetry enabled (metrics + trace sink) vs disabled — partialschur solve",
        f"{'format':10s} {'enabled':>12s} {'disabled':>12s} {'overhead':>9s}",
    ]
    for fmt, (t_on, t_off) in per_format.items():
        lines.append(
            f"{fmt:10s} {t_on * 1e3:9.2f} ms {t_off * 1e3:9.2f} ms "
            f"{100 * (t_on / t_off - 1):+8.2f}%"
        )
    lines.append(f"{'aggregate':10s} {'':>12s} {'':>12s} {100 * aggregate:+8.2f}%")
    return "\n".join(lines)


@pytest.mark.parametrize("fmt", ["bfloat16", "posit32", "takum64"])
@pytest.mark.parametrize("mode", ["disabled", "enabled"])
def test_solve_telemetry_overhead(benchmark, tmp_path, fmt, mode):
    """pytest-benchmark view of the same comparison (representative formats)."""
    _, solve = _solve_problem(fmt)
    previous = set_enabled(mode == "enabled")
    if mode == "enabled":
        trace.configure(tmp_path / "trace.jsonl", export_env=False)
    try:
        result = benchmark.pedantic(solve, rounds=1, iterations=1)
    finally:
        trace.shutdown()
        metrics.reset()
        set_enabled(previous)
    assert result.matvecs > 0


def main(argv=None) -> int:
    """Standalone entry point: ``--check`` gates the telemetry overhead."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) if aggregate telemetry overhead exceeds "
        # argparse expands help printf-style, so the percent sign is doubled
        f"{OVERHEAD_LIMIT:.0%}".replace("%", "%%") + " on the solver",
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

    per_format, aggregate = measure_telemetry_overhead(repeats=args.repeats)
    for _ in range(args.passes - 1):
        pf, agg = measure_telemetry_overhead(repeats=args.repeats)
        if agg < aggregate:
            per_format, aggregate = pf, agg
    print(format_telemetry_report(per_format, aggregate))
    from benchmarks.conftest import write_json_report

    write_json_report(
        "telemetry_overhead.json",
        {
            "benchmark": "telemetry_overhead",
            "aggregate_overhead": round(aggregate, 4),
            "overhead_limit": OVERHEAD_LIMIT,
            "per_format": {
                fmt: {"enabled_s": round(t_on, 6), "disabled_s": round(t_off, 6)}
                for fmt, (t_on, t_off) in per_format.items()
            },
        },
    )
    if args.check and aggregate > OVERHEAD_LIMIT:
        print(
            f"FAIL: aggregate telemetry overhead {aggregate:+.2%} exceeds "
            f"the {OVERHEAD_LIMIT:.0%} budget"
        )
        return 1
    if args.check:
        print(f"OK: aggregate telemetry overhead {aggregate:+.2%} within budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
