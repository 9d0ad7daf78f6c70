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

The measurement runs pairs of one disabled and one enabled solve per
format, and the side that runs first alternates from pair to pair, so a
drift of the machine's speed within a pair favours neither side.  The
trace sink is configured once per format and its file opened by an untimed
enabled solve before the pairs, as a traced run keeps one sink open for all
its solves; the pairs then toggle only the telemetry switch.  The
overhead is the median over all pairs of the per-pair ratio
``enabled / disabled``, minus 1: a ratio of two solves timed back to back
cancels the slow drift of the box's speed, and the median drops the pairs
a burst of scheduler noise lands in, on either side.

Smoke mode for CI::

    PYTHONPATH=src python benchmarks/bench_telemetry.py --check

fails (exit code 1) if the median enabled-vs-disabled overhead exceeds 2%.
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

#: acceptance threshold on the median per-pair telemetry overhead (enabled,
#: with metrics and a live trace sink, vs fully disabled)
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


def measure_telemetry_overhead(formats=OVERHEAD_FORMATS, repeats: int = 14):
    """Alternating pairs of telemetry enabled and disabled solves.

    Returns ``(per_format, overhead)``: a dict ``fmt -> [(t_enabled,
    t_disabled), ...]`` with one entry per pair (``repeats`` pairs per
    format; odd pairs run the enabled solve first), and the median over
    all pairs of ``t_enabled / t_disabled``, minus 1.  The enabled variant
    is the worst-case production configuration: metrics on *and* a trace
    sink writing spans to a real file.
    """
    previous = set_enabled(False)
    per_format = {}
    try:
        with tempfile.TemporaryDirectory() as tmp:
            sink = f"{tmp}/bench_trace.jsonl"
            for fmt in formats:
                ctx, solve = _solve_problem(fmt)
                trace.configure(sink, export_env=False)
                set_enabled(True)
                solve()  # opens the sink's file outside the timed pairs

                def timed(enabled: bool) -> float:
                    set_enabled(enabled)
                    t0 = time.perf_counter()
                    solve()
                    elapsed = time.perf_counter() - t0
                    if enabled:
                        ctx.publish_op_count()
                    return elapsed

                pairs = per_format[fmt] = []
                for i in range(repeats):
                    enabled_first = i % 2 == 1
                    first = timed(enabled_first)
                    second = timed(not enabled_first)
                    pairs.append((first, second) if enabled_first else (second, first))
    finally:
        trace.shutdown()
        metrics.reset()
        set_enabled(previous)
    return per_format, _median_ratio(pair for pairs in per_format.values() for pair in pairs) - 1.0


def _median_ratio(pairs) -> float:
    """The median of ``t_enabled / t_disabled`` over ``(t_enabled,
    t_disabled)`` pairs."""
    return float(np.median([t_on / t_off for t_on, t_off in pairs]))


def format_telemetry_report(per_format, overhead) -> str:
    lines = [
        "Telemetry enabled (metrics + trace sink) vs disabled — partialschur solve",
        "(median per format; overhead: median of the per-pair ratios)",
        f"{'format':10s} {'enabled':>12s} {'disabled':>12s} {'overhead':>9s}",
    ]
    for fmt, pairs in per_format.items():
        t_on, t_off = np.median(pairs, axis=0)
        lines.append(
            f"{fmt:10s} {t_on * 1e3:9.2f} ms {t_off * 1e3:9.2f} ms "
            f"{100 * (_median_ratio(pairs) - 1):+8.2f}%"
        )
    count = sum(len(pairs) for pairs in per_format.values())
    lines.append(f"{f'all {count} pairs':22s} {'':>12s} {100 * overhead:+8.2f}%")
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
        help="fail (exit 1) if the median telemetry overhead exceeds "
        # argparse expands help printf-style, so the percent sign is doubled
        f"{OVERHEAD_LIMIT:.0%}".replace("%", "%%") + " on the solver",
    )
    parser.add_argument(
        "--repeats", type=int, default=14, help="alternating enabled/disabled pairs per format"
    )
    args = parser.parse_args(argv)

    per_format, overhead = measure_telemetry_overhead(repeats=args.repeats)
    print(format_telemetry_report(per_format, overhead))
    from benchmarks.conftest import write_json_report

    write_json_report(
        "telemetry_overhead.json",
        {
            "benchmark": "telemetry_overhead",
            "median_overhead": round(overhead, 4),
            "overhead_limit": OVERHEAD_LIMIT,
            "per_format": {
                fmt: {
                    "pairs_s": [[round(t_on, 6), round(t_off, 6)] for t_on, t_off in pairs],
                    "median_overhead": round(_median_ratio(pairs) - 1, 4),
                }
                for fmt, pairs in per_format.items()
            },
        },
    )
    if args.check and overhead > OVERHEAD_LIMIT:
        print(
            f"FAIL: median telemetry overhead {overhead:+.2%} exceeds "
            f"the {OVERHEAD_LIMIT:.0%} budget"
        )
        return 1
    if args.check:
        print(f"OK: median telemetry overhead {overhead:+.2%} within budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
