"""Micro-benchmark: rounding throughput (values/s) per format and kernel.

Measures ``round_array`` (the default dispatch: scalar kernel for tiny
arrays, bit kernel above) against the analytic kernels for every format of
up to 16 bits, at 64k values and — report-only, not gated — per call at
the sizes the solvers round ({1, 16, 48, 512} elements).

The *bit-kernel* section measures the integer bit-twiddling engine
(:mod:`repro.arithmetic.bitkernels`) against the analytic vector kernels at
64k values for every format it serves.  The acceptance bar is >= 3x on the
32-bit posit/takum formats (the paper-pipeline hot path the engine was
built for); the CI gate (``--check``) fails if any kernel-served format
rounds *slower* than its analytic kernel.

The *scalar* section measures per-scalar rounding at solver-call sizes for
the wide (32/64-bit) formats: the old route (one
``round_array_analytic`` call on a 1-element ndarray, which is what every
scalar Givens/QL operation paid before the scalar kernels existed) against
the new ``round_scalar`` fast path, plus the context-level scalar ``add``
(the end-to-end per-operation cost inside the solvers); report only.  For
posit64/takum64 it also times ``round_scalar_analytic`` with the bit kernels
on (the two-word kernel's scalar twin) against off (the NumPy-scalar
kernel), which ``--check`` gates at >= 2x on one value, and the
element-wise scalar loop against the two-word kernel at
{1, 2, 4, 8, 12, 16} elements (report only), the measurement their
``bitkernel_scalar_cutoff`` is set from.

Run under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_micro_rounding.py --benchmark-only

or standalone (writes ``benchmarks/output/micro_rounding.txt`` and its
machine-readable twin ``micro_rounding.json``)::

    PYTHONPATH=src python benchmarks/bench_micro_rounding.py

CI gate::

    PYTHONPATH=src python benchmarks/bench_micro_rounding.py --check
"""

from __future__ import annotations

import pathlib
import time

if __package__ in (None, ""):
    # executed as a script (python benchmarks/bench_micro_rounding.py):
    # make src/ importable for the JSON metadata helper imports below
    import sys

    _root = pathlib.Path(__file__).resolve().parent.parent
    for _entry in (str(_root), str(_root / "src")):
        if _entry not in sys.path:
            sys.path.insert(0, _entry)

import numpy as np
import pytest

from repro.arithmetic import get_context, get_format, set_bitkernels_enabled

EIGHT_BIT = ["E4M3", "E5M2", "posit8", "takum8"]
SIXTEEN_BIT = ["float16", "bfloat16", "posit16", "takum16"]
FORMATS = EIGHT_BIT + SIXTEEN_BIT
#: formats wider than 16 bits
WIDE_FORMATS = ["float32", "float64", "posit32", "posit64", "takum32", "takum64"]
#: formats served by the integer bit-twiddling engine (the 64-bit tapered
#: formats through the two-word extended kernel, benchmarked on their own
#: longdouble workload)
BITKERNEL_FORMATS = [
    "posit16",
    "takum16",
    "posit32",
    "takum32",
    "posit64",
    "takum64",
    "float16",
    "bfloat16",
    "E5M2",
    "E4M3",
    "posit8",
    "takum8",
]
#: the paper-pipeline hot path: the bit kernels must deliver >= 3x here
BITKERNEL_TARGET_FORMATS = ("posit32", "takum32")
BITKERNEL_TARGET_SPEEDUP = 3.0

#: the longdouble formats whose scalar kernel runs the two-word bit
#: kernel's scalar twin; ``--check`` requires it to beat the NumPy-scalar
#: kernel (bit kernels off) by this factor on one value
SCALAR_TWIN_FORMATS = ("posit64", "takum64")
SCALAR_TWIN_TARGET_SPEEDUP = 2.0
#: array sizes around their ``bitkernel_scalar_cutoff``
CUTOFF_SIZES = (1, 2, 4, 8, 12, 16)

#: benchmark workload size (values per round_array call)
N_VALUES = 1 << 16
#: array sizes the solvers round (scalars, QL columns, Arnoldi vectors)
WORKLOAD_SIZES = (1, 16, 48, 512)


def workload(n: int = N_VALUES, seed: int = 0) -> np.ndarray:
    """Sign-symmetric values spanning ~29 binades around 1.0 (the regime the
    solvers live in), with a sprinkle of zeros."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n) * np.exp(rng.uniform(-10.0, 10.0, n))
    values[rng.integers(0, n, n // 64)] = 0.0
    return values


def _round_dispatch(fmt, values):
    return fmt.round_array(values)


def _round_analytic(fmt, values):
    return fmt.round_array_analytic(values)


BACKENDS = {"round_array": _round_dispatch, "analytic": _round_analytic}


@pytest.fixture(scope="module")
def values():
    return workload()


@pytest.mark.parametrize("fmt_name", FORMATS)
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_rounding_throughput(benchmark, fmt_name, backend, values):
    fmt = get_format(fmt_name)
    runner = BACKENDS[backend]
    runner(fmt, values)  # warm the per-format kernels and caches
    benchmark.extra_info["values_per_call"] = values.size
    benchmark(lambda: runner(fmt, values))


# --------------------------------------------------------------------- #
# integer bit-kernel rounding (the wide-format vector hot path)
# --------------------------------------------------------------------- #
def _round_bitkernel(fmt, values):
    return fmt.bitkernel().round(values)


@pytest.mark.parametrize(
    "fmt_name", ["posit32", "takum32", "posit64", "takum64", "posit16", "takum16"]
)
@pytest.mark.parametrize("backend", ["analytic", "bitkernel"])
def test_bitkernel_throughput(benchmark, fmt_name, backend, values):
    fmt = get_format(fmt_name)
    if fmt.bitkernel() is None:
        pytest.skip("no bit kernel on this host/configuration")
    vals = values.astype(fmt.work_dtype)  # 64-bit formats round longdouble
    runner = _round_analytic if backend == "analytic" else _round_bitkernel
    runner(fmt, vals)  # warm the LUTs / per-format caches
    benchmark.extra_info["values_per_call"] = vals.size
    benchmark(lambda: runner(fmt, vals))


# --------------------------------------------------------------------- #
# wide-format scalar rounding (solver-call sizes)
# --------------------------------------------------------------------- #
def _scalar_round_old(fmt, value):
    """Pre-scalar-kernel route: wrap, round through the vector analytic
    kernel, unwrap — what each scalar solver operation paid before."""
    return float(fmt.round_array_analytic(np.asarray([value], dtype=fmt.work_dtype))[0])


def _scalar_round_new(fmt, value):
    return fmt.round_scalar(value)


SCALAR_BACKENDS = {"array_old": _scalar_round_old, "scalar_new": _scalar_round_new}


@pytest.mark.parametrize("fmt_name", WIDE_FORMATS)
@pytest.mark.parametrize("backend", sorted(SCALAR_BACKENDS))
def test_wide_scalar_rounding(benchmark, fmt_name, backend):
    fmt = get_format(fmt_name)
    runner = SCALAR_BACKENDS[backend]
    runner(fmt, 0.7354)  # warm per-format scalar state
    benchmark(lambda: runner(fmt, 0.7354))


@pytest.mark.parametrize("fmt_name", ["posit32", "takum32", "posit64", "float64"])
def test_context_scalar_add(benchmark, fmt_name):
    """End-to-end per-operation cost of one scalar context op (the unit the
    solvers' Givens/QL loops are made of)."""
    ctx = get_context(fmt_name)
    a = ctx.round_scalar(0.3123)
    b = ctx.round_scalar(1.7)
    ctx.add(a, b)
    benchmark(lambda: ctx.add(a, b))


# --------------------------------------------------------------------- #
# standalone report
# --------------------------------------------------------------------- #
def _median_throughput(func, values, repeats: int = 15, inner: int = 8) -> float:
    func(values)  # warm-up
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            func(values)
        samples.append((time.perf_counter() - start) / inner)
    return values.size / float(np.median(samples))


def _median_call_time(func, repeats: int = 7, inner: int = 2000) -> float:
    """Median seconds per call of a cheap scalar function."""
    func()  # warm-up
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            func()
        samples.append((time.perf_counter() - start) / inner)
    return float(np.median(samples))


def run_scalar_report() -> list[str]:
    """Wide-format scalar rounding: old array route vs new scalar kernels."""
    lines = [
        "Scalar rounding at solver-call sizes (per-call cost, one value)",
        "old: round_array_analytic on a 1-element ndarray (pre-kernel route)",
        "new: round_scalar through the pure-Python scalar kernels",
        "",
        f"{'format':<10s} {'old [us]':>10s} {'new [us]':>10s} {'speedup':>9s}",
    ]
    for fmt_name in WIDE_FORMATS:
        fmt = get_format(fmt_name)
        old_s, new_s = [], []
        for _ in range(3):  # interleave to cancel CPU frequency drift
            old_s.append(_median_call_time(lambda: _scalar_round_old(fmt, 0.7354)))
            new_s.append(_median_call_time(lambda: _scalar_round_new(fmt, 0.7354)))
        t_old = float(np.median(old_s))
        t_new = float(np.median(new_s))
        lines.append(
            f"{fmt_name:<10s} {t_old * 1e6:>10.2f} {t_new * 1e6:>10.2f} "
            f"{t_old / t_new:>8.2f}x"
        )
    lines.append("")
    lines.append("Context-level scalar add (one rounded elementary operation)")
    lines.append(f"{'format':<10s} {'add [us]':>10s}")
    for fmt_name in ["posit32", "takum32", "posit64", "takum64", "float64"]:
        ctx = get_context(fmt_name)
        a, b = ctx.round_scalar(0.3123), ctx.round_scalar(1.7)
        t_add = _median_call_time(lambda: ctx.add(a, b))
        lines.append(f"{fmt_name:<10s} {t_add * 1e6:>10.2f}")
    return lines


def run_extended_scalar_report(record: dict | None = None) -> list[str]:
    """posit64/takum64 ``round_scalar_analytic`` with bit kernels on (the
    two-word kernel's scalar twin) against off (the NumPy-scalar kernel).

    When ``record`` is given, per-format times and speedups are stored into
    it (feeding the ``--check`` gate).
    """
    lines = [
        "posit64/takum64 scalar rounding: round_scalar_analytic per call",
        "on: two-word kernel's scalar twin; off: NumPy-scalar kernel "
        "(bit kernels disabled)",
        f"{'format':<10s} {'on [us]':>10s} {'off [us]':>10s} {'speedup':>9s}",
    ]
    for fmt_name in SCALAR_TWIN_FORMATS:
        fmt = get_format(fmt_name)
        if fmt.bitkernel() is None:  # no x87 layout, or kernels disabled
            continue
        value = np.longdouble(0.7354) / np.longdouble(3.0)  # full 64-bit significand
        kernel = fmt.round_scalar_analytic
        on_s, off_s = [], []
        for _ in range(3):  # interleave to cancel CPU frequency drift
            on_s.append(_median_call_time(lambda: kernel(value)))
            previous = set_bitkernels_enabled(False)
            try:
                off_s.append(_median_call_time(lambda: kernel(value)))
            finally:
                set_bitkernels_enabled(previous)
        t_on = float(np.median(on_s))
        t_off = float(np.median(off_s))
        if record is not None:
            record[fmt_name] = {
                "on_us": round(t_on * 1e6, 3),
                "off_us": round(t_off * 1e6, 3),
                "speedup": round(t_off / t_on, 3),
            }
        lines.append(
            f"{fmt_name:<10s} {t_on * 1e6:>10.2f} {t_off * 1e6:>10.2f} "
            f"{t_off / t_on:>8.2f}x"
        )
    return lines


def run_extended_cutoff_report(record: dict | None = None) -> list[str]:
    """posit64/takum64 small arrays: the element-wise scalar loop against
    the two-word bit kernel per call, at the sizes around
    ``bitkernel_scalar_cutoff`` (report only; the cutoff is set from it).
    """
    head = " ".join(f"{f'n={n} [us]':>15s}" for n in CUTOFF_SIZES)
    lines = [
        "posit64/takum64 small arrays: scalar loop / two-word kernel "
        "per call (microseconds; report only)",
        f"{'format':<10s} {head}",
    ]
    for fmt_name in SCALAR_TWIN_FORMATS:
        fmt = get_format(fmt_name)
        kern = fmt.bitkernel()
        if kern is None:
            continue
        cells = []
        for n in CUTOFF_SIZES:
            vals = workload(n, seed=n).astype(np.longdouble) / np.longdouble(3.0)
            loop_s, kern_s = [], []
            for _ in range(3):  # interleave to cancel CPU frequency drift
                loop_s.append(_median_call_time(lambda: fmt._round_small_array(vals), inner=500))
                kern_s.append(_median_call_time(lambda: kern.round(vals), inner=500))
            t_loop = float(np.median(loop_s)) * 1e6
            t_kern = float(np.median(kern_s)) * 1e6
            if record is not None:
                record.setdefault(fmt_name, {})[str(n)] = {
                    "scalar_loop_us": round(t_loop, 2),
                    "bitkernel_us": round(t_kern, 2),
                }
            cells.append(f"{f'{t_loop:.1f} / {t_kern:.1f}':>15s}")
        lines.append(f"{fmt_name:<10s} " + " ".join(cells))
    return lines


def run_bitkernel_report(record: dict | None = None) -> list[str]:
    """Bit-kernel vs analytic vector rounding at benchmark size.

    When ``record`` is given, per-format speedups are stored into it
    (feeding both the JSON artifact and the ``--check`` gate).
    """
    values = workload()
    lines = [
        f"Bit-kernel rounding vs analytic kernels ({values.size} values/call)",
        f"{'format':<10s} {'bitkernel [Mval/s]':>19s} {'analytic [Mval/s]':>18s} {'speedup':>9s}",
    ]
    for fmt_name in BITKERNEL_FORMATS:
        fmt = get_format(fmt_name)
        if fmt.bitkernel() is None:  # engine disabled via env/runtime switch
            continue
        # the 64-bit formats round longdouble workloads; benchmark both
        # backends on the dtype the dispatch actually feeds them
        vals = values.astype(fmt.work_dtype)
        kern_s, analytic_s = [], []
        for _ in range(3):  # interleave to cancel CPU frequency drift
            kern_s.append(_median_throughput(lambda v: _round_bitkernel(fmt, v), vals, repeats=5))
            analytic_s.append(_median_throughput(lambda v: _round_analytic(fmt, v), vals, repeats=5))
        kern_tp = float(np.median(kern_s))
        analytic_tp = float(np.median(analytic_s))
        speedup = kern_tp / analytic_tp
        if record is not None:
            record[fmt_name] = {
                "bitkernel_mvals": round(kern_tp / 1e6, 2),
                "analytic_mvals": round(analytic_tp / 1e6, 2),
                "speedup": round(speedup, 3),
            }
        lines.append(
            f"{fmt_name:<10s} {kern_tp / 1e6:>19.1f} {analytic_tp / 1e6:>18.1f} "
            f"{speedup:>8.2f}x"
        )
    lines.append("")
    lines.append(
        "dispatch: the bit kernels serve vector rounding for every format "
        "above; posit64/takum64 round through the two-word extended kernel "
        "on their longdouble workload."
    )
    return lines


def run_workload_size_report(record: dict | None = None) -> list[str]:
    """``round_array`` vs ``round_array_analytic`` per call at the array
    sizes the solvers round (report only, not gated).

    When ``record`` is given, per-format, per-size microseconds are stored
    into it for the JSON artifact.
    """
    sizes = WORKLOAD_SIZES
    head = " ".join(f"{f'n={n} [us]':>19s}" for n in sizes)
    lines = [
        "round_array vs round_array_analytic per call at solver sizes "
        "(dispatch / analytic microseconds; report only)",
        f"{'format':<10s} {head}",
    ]
    for fmt_name in FORMATS:
        fmt = get_format(fmt_name)
        cells = []
        for n in sizes:
            vals = workload(n, seed=n)
            dispatch_s, analytic_s = [], []
            for _ in range(3):  # interleave to cancel CPU frequency drift
                dispatch_s.append(_median_call_time(lambda: _round_dispatch(fmt, vals), inner=200))
                analytic_s.append(_median_call_time(lambda: _round_analytic(fmt, vals), inner=200))
            t_dispatch = float(np.median(dispatch_s)) * 1e6
            t_analytic = float(np.median(analytic_s)) * 1e6
            if record is not None:
                record.setdefault(fmt_name, {})[str(n)] = {
                    "round_array_us": round(t_dispatch, 2),
                    "analytic_us": round(t_analytic, 2),
                }
            cells.append(f"{f'{t_dispatch:.1f} / {t_analytic:.1f}':>19s}")
        lines.append(f"{fmt_name:<10s} " + " ".join(cells))
    return lines


def run_report(
    record: dict | None = None,
    sizes: dict | None = None,
    scalar_twin: dict | None = None,
    cutoff: dict | None = None,
) -> str:
    values = workload()
    lines = [
        "Micro-benchmark: rounding throughput per format (values/s)",
        f"workload: {values.size} values, log-uniform magnitudes over ~29 binades",
        "",
        f"{'format':<10s} {'round_array [Mval/s]':>21s} {'analytic [Mval/s]':>18s} {'speedup':>9s}",
    ]
    for fmt_name in FORMATS:
        fmt = get_format(fmt_name)
        # interleave the two kernels to cancel CPU frequency drift
        dispatch_s, analytic_s = [], []
        for _ in range(3):
            dispatch_s.append(
                _median_throughput(lambda v: _round_dispatch(fmt, v), values, repeats=5)
            )
            analytic_s.append(
                _median_throughput(lambda v: _round_analytic(fmt, v), values, repeats=5)
            )
        dispatch_tp = float(np.median(dispatch_s))
        analytic_tp = float(np.median(analytic_s))
        lines.append(
            f"{fmt_name:<10s} {dispatch_tp / 1e6:>21.1f} {analytic_tp / 1e6:>18.1f} "
            f"{dispatch_tp / analytic_tp:>8.2f}x"
        )
    lines.append("")
    lines.extend(run_workload_size_report(sizes))
    lines.append("")
    lines.extend(run_bitkernel_report(record))
    lines.append("")
    lines.extend(run_scalar_report())
    lines.append("")
    lines.extend(run_extended_scalar_report(scalar_twin))
    lines.append("")
    lines.extend(run_extended_cutoff_report(cutoff))
    return "\n".join(lines) + "\n"


def run_check(threshold: float = 1.0) -> int:
    """CI gate: every format whose *rounding dispatch* uses a bit kernel
    must round at least as fast as its analytic kernel at 64k values, the
    32-bit posit/takum hot path must clear
    :data:`BITKERNEL_TARGET_SPEEDUP`, and the posit64/takum64 scalar twin
    must clear :data:`SCALAR_TWIN_TARGET_SPEEDUP` over the NumPy-scalar
    kernel on one value.  The 8-bit formats are reported but not gated:
    their kernel margins are thin on noisy shared runners.  Returns an exit
    code.
    """
    record: dict = {}
    lines = run_bitkernel_report(record)
    print("\n".join(lines))
    if not record:
        print("SKIP: bit kernels disabled in this environment")
        return 0
    scalar_twin: dict = {}
    print()
    print("\n".join(run_extended_scalar_report(scalar_twin)))
    failed = []
    for fmt_name, row in scalar_twin.items():
        if row["speedup"] < SCALAR_TWIN_TARGET_SPEEDUP:
            failed.append(
                f"{fmt_name} scalar: {row['speedup']:.2f}x < the "
                f"{SCALAR_TWIN_TARGET_SPEEDUP:.0f}x scalar-twin target"
            )
    for fmt_name, row in record.items():
        if get_format(fmt_name).bits <= 8:
            continue  # reported, not gated
        if row["speedup"] < threshold:
            failed.append(f"{fmt_name}: {row['speedup']:.2f}x < {threshold:.2f}x")
    for fmt_name in BITKERNEL_TARGET_FORMATS:
        row = record.get(fmt_name)
        if row is not None and row["speedup"] < BITKERNEL_TARGET_SPEEDUP:
            failed.append(
                f"{fmt_name}: {row['speedup']:.2f}x < the "
                f"{BITKERNEL_TARGET_SPEEDUP:.0f}x hot-path target"
            )
    if failed:
        print("FAIL: bit kernels slower than the acceptance bars:")
        for line in failed:
            print(f"  {line}")
        return 1
    print("OK: bit kernels meet the acceptance bars on every served format")
    return 0


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="CI gate: fail (exit 1) if any bit kernel is slower than the "
        "analytic kernel at 64k values, the 32-bit posit/takum hot path "
        "misses its 3x target, or the posit64/takum64 scalar twin misses "
        "its 2x target",
    )
    args = parser.parse_args(argv)
    if args.check:
        return run_check()
    record: dict = {}
    sizes: dict = {}
    scalar_twin: dict = {}
    cutoff: dict = {}
    report = run_report(record, sizes, scalar_twin, cutoff)
    out_dir = pathlib.Path(__file__).parent / "output"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "micro_rounding.txt"
    out_path.write_text(report, encoding="utf-8")
    from benchmarks.conftest import write_json_report

    json_path = write_json_report(
        "micro_rounding.json",
        {
            "benchmark": "micro_rounding",
            "values_per_call": N_VALUES,
            "bitkernel_vs_analytic": record,
            "round_array_vs_analytic_us": sizes,
            "extended_scalar_twin": scalar_twin,
            "extended_scalar_loop_vs_bitkernel_us": cutoff,
        },
    )
    print(report)
    print(f"report written to {out_path}")
    print(f"json artifact written to {json_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
