"""Micro-benchmark: rounding throughput (values/s) per format and kernel.

Measures ``round_array`` (the compiled bit kernel at every size) against
the NumPy differential reference of ``tests/_reference.py`` (the
``analytic`` column: each format's rounding as vectorised NumPy passes)
for every format of up to 16 bits, at 64k values and — report-only, not
gated — per call at the sizes the solvers round ({1, 16, 48, 512}
elements).

The *bit-kernel* section measures the compiled integer rounding engine
(:mod:`repro.arithmetic.bitkernels`) against that vector reference at 64k
values for every format it serves.  The acceptance bar is >= 3x on the
32-bit posit/takum formats (the paper-pipeline hot path the engine was
built for); the CI gate (``--check``) fails if any kernel-served format,
the 8-bit ones included, rounds *slower* than the reference.

The *scalar* section measures per-scalar rounding at solver-call sizes for
the wide (32/64-bit) formats: the old route (one vector-reference call on a
1-element ndarray, which is what every scalar Givens/QL operation paid
before the scalar entry existed) against ``round_scalar`` through the
compiled scalar entry, plus the context-level scalar ``add`` (the
end-to-end per-operation cost inside the solvers); report only.  The
*context-op* section times one call of ``ctx.add``, ``ctx.dot``,
``ctx.gemv`` and the scalar ``ctx.hypot`` at the Krylov dimension (25) and
the fig1 matrix order (32); report only.  The *reduction* section times
the pairwise contractions ``ctx.reduce_sum``, ``ctx.dot``, ``ctx.gemv``,
``ctx.gemv_t`` and ``ctx.spmv`` over 25, 32 and 300 elements, in one call
of the compiled reduction each, with the bit kernels on (the format's
lookup tables round) and off (every sum rounds by the format's rule
alone, the ``rule`` column); report only.  The *hand-back* section times
rounding of finite values in the special binades of a kernel (deep
regimes, overflow bands, deep subnormals), which the kernel's rule rounds
in C and counts as handed back, per call at the workload's sizes: one
scalar through the context and arrays of 16, 25 and 32 elements through
``round_array``; report only.

Run under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_micro_rounding.py --benchmark-only

or standalone (writes ``benchmarks/output/micro_rounding.txt`` and its
machine-readable twin ``micro_rounding.json``)::

    PYTHONPATH=src python benchmarks/bench_micro_rounding.py

CI gate::

    PYTHONPATH=src python benchmarks/bench_micro_rounding.py --check
"""

from __future__ import annotations

import math
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
from tests._reference import round_array_analytic

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

#: benchmark workload size (values per round_array call)
N_VALUES = 1 << 16
#: array sizes the solvers round (scalars, QL columns, Arnoldi vectors)
WORKLOAD_SIZES = (1, 16, 48, 512)
#: context-op section: the Krylov dimension and the fig1 matrix order
CONTEXT_OP_SIZES = (25, 32)
CONTEXT_OP_FORMATS = ("posit16", "posit32", "posit64", "float16", "E4M3", "float64", "reference")
#: reduction section: elements per reduction (the Krylov dimension, the
#: fig1 matrix order, the graphs_large graph order)
REDUCTION_SIZES = (25, 32, 300)
REDUCTION_FORMATS = ("posit16", "posit64", "E4M3", "float64", "reference")
REDUCTION_OPS = ("reduce_sum", "dot", "gemv", "gemv_t", "spmv")
#: hand-back section: the formats whose special binades the solves reach
#: most, and the sizes of the workload's calls (scalars, 16 elements, the
#: Krylov dimension and the fig1 matrix order)
HANDBACK_FORMATS = ("takum8", "posit8", "E4M3", "float16", "posit16", "posit64")
HANDBACK_SIZES = (1, 16, 25, 32)


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
    return round_array_analytic(fmt, values)


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
    if fmt.bitkernel()._special is None:
        pytest.skip("no lookup tables on this host/configuration")
    vals = values.astype(fmt.work_dtype)  # 64-bit formats round longdouble
    runner = _round_analytic if backend == "analytic" else _round_bitkernel
    runner(fmt, vals)  # warm the LUTs / per-format caches
    benchmark.extra_info["values_per_call"] = vals.size
    benchmark(lambda: runner(fmt, vals))


# --------------------------------------------------------------------- #
# wide-format scalar rounding (solver-call sizes)
# --------------------------------------------------------------------- #
def _scalar_round_old(fmt, value):
    """Pre-scalar-entry route: wrap, round through the vector reference,
    unwrap — what each scalar solver operation paid before."""
    return float(round_array_analytic(fmt, np.asarray([value], dtype=fmt.work_dtype))[0])


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
    """Wide-format scalar rounding: old array route vs the compiled scalar
    entry."""
    lines = [
        "Scalar rounding at solver-call sizes (per-call cost, one value)",
        "old: the vector reference on a 1-element ndarray (pre-kernel route)",
        "new: round_scalar through the compiled scalar entry",
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


def run_bitkernel_report(record: dict | None = None) -> list[str]:
    """Bit-kernel vs vector-reference rounding at benchmark size.

    When ``record`` is given, per-format speedups are stored into it
    (feeding both the JSON artifact and the ``--check`` gate).
    """
    values = workload()
    lines = [
        f"Bit-kernel rounding vs the vector reference ({values.size} values/call)",
        f"{'format':<10s} {'bitkernel [Mval/s]':>19s} {'analytic [Mval/s]':>18s} {'speedup':>9s}",
    ]
    for fmt_name in BITKERNEL_FORMATS:
        fmt = get_format(fmt_name)
        if fmt.bitkernel()._special is None:  # no lookup tables: switch off
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
        "dispatch: the compiled bit kernels serve rounding for every format "
        "above; posit64/takum64 round through the two-word extended kernel "
        "on their longdouble workload."
    )
    return lines


def run_workload_size_report(record: dict | None = None) -> list[str]:
    """``round_array`` vs the vector reference per call at the array
    sizes the solvers round (report only, not gated).

    When ``record`` is given, per-format, per-size microseconds are stored
    into it for the JSON artifact.
    """
    sizes = WORKLOAD_SIZES
    head = " ".join(f"{f'n={n} [us]':>19s}" for n in sizes)
    lines = [
        "round_array vs the vector reference per call at solver sizes "
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


def run_context_op_report(record: dict | None = None) -> list[str]:
    """Per-call cost of rounded context ops at the solvers' sizes (report
    only, not gated): ``ctx.add`` and ``ctx.dot`` on ``n``-vectors,
    ``ctx.gemv`` on an ``(n, n)`` matrix and the scalar ``ctx.hypot``,
    each one call of the context API with its dispatch and rounding.

    When ``record`` is given, per-format microseconds are stored into it
    for the JSON artifact.
    """
    ops = [f"{op} n={n}" for n in CONTEXT_OP_SIZES for op in ("add", "dot", "gemv")]
    ops.append("hypot")
    lines = [
        "Rounded context ops per call (microseconds; report only)",
        f"{'format':<10s} " + " ".join(f"{op:>11s}" for op in ops),
    ]
    for fmt_name in CONTEXT_OP_FORMATS:
        ctx = get_context(fmt_name)
        calls = {}
        for n in CONTEXT_OP_SIZES:
            rng = np.random.default_rng(n)  # O(1) values, as in the solves
            x, y = ctx.asarray(rng.standard_normal(n)), ctx.asarray(rng.standard_normal(n))
            M = ctx.asarray(rng.standard_normal((n, n)))
            calls[f"add n={n}"] = lambda x=x, y=y: ctx.add(x, y)
            calls[f"dot n={n}"] = lambda x=x, y=y: ctx.dot(x, y)
            calls[f"gemv n={n}"] = lambda M=M, x=x: ctx.gemv(M, x)
        a, b = ctx.round_scalar(0.3123), ctx.round_scalar(1.7)
        calls["hypot"] = lambda: ctx.hypot(a, b)
        row = {}
        for op in ops:
            samples = [_median_call_time(calls[op], inner=300) for _ in range(3)]
            row[op] = round(float(np.median(samples)) * 1e6, 2)
        if record is not None:
            record[fmt_name] = row
        lines.append(f"{fmt_name:<10s} " + " ".join(f"{row[op]:>11.2f}" for op in ops))
    return lines


def _per_call_time(func, samples: int = 5, budget: float = 0.004) -> float:
    """Median seconds per call, each sample as many calls as fit ``budget``."""
    start = time.perf_counter()
    func()  # warm-up and calibration
    inner = max(1, int(budget / max(time.perf_counter() - start, 1e-7)))
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        for _ in range(inner):
            func()
        times.append((time.perf_counter() - start) / inner)
    return float(np.median(times))


def _reduction_calls(ctx, n: int) -> dict:
    """One call per op in :data:`REDUCTION_OPS`, each reducing ``n``
    elements: a vector, a ``(25, n)`` matrix against an ``n``-vector (and
    its transpose), and an ``n``-vertex graph Laplacian."""
    from repro.datasets.graphs import generate_graph
    from repro.sparse.laplacian import laplacian_from_adjacency

    rng = np.random.default_rng(n)  # O(1) values, as in the solves
    x, y = ctx.asarray(rng.standard_normal(n)), ctx.asarray(rng.standard_normal(n))
    M = ctx.asarray(rng.standard_normal((25, n)))
    Mt = np.ascontiguousarray(M.T)
    lap = ctx.convert_matrix(laplacian_from_adjacency(generate_graph("inf", 0, n)[0]))[0]
    return {
        "reduce_sum": lambda: ctx.reduce_sum(x),
        "dot": lambda: ctx.dot(x, y),
        "gemv": lambda: ctx.gemv(M, x),
        "gemv_t": lambda: ctx.gemv_t(Mt, x),
        "spmv": lambda: ctx.spmv(lap, x),
    }


def run_reduction_report(record: dict | None = None) -> list[str]:
    """Per-call cost of the pairwise contractions (report only, not gated),
    in both positions of the bit-kernel switch.  Both run the compiled
    reduction: ``on`` rounds through the format's lookup tables, ``rule``
    (the switch off) rounds every sum by the format's rule alone.

    When ``record`` is given, the microseconds are stored into it as
    ``record[format][op][f"n={n}"] = {"on": us, "rule": us}``.
    """
    modes = ("on", "rule")
    columns = [f"n={n} {mode}" for n in REDUCTION_SIZES for mode in modes]
    lines = [
        "Pairwise contractions per call (microseconds; compiled reduction with the bit "
        "kernels on / every sum by the format's rule alone; report only)",
        f"{'format':<10s} {'op':<10s} " + " ".join(f"{c:>14s}" for c in columns),
    ]
    for fmt_name in REDUCTION_FORMATS:
        ctx = get_context(fmt_name)
        calls = {n: _reduction_calls(ctx, n) for n in REDUCTION_SIZES}
        for op in REDUCTION_OPS:
            row = {}
            for n in REDUCTION_SIZES:
                call = calls[n][op]
                timing = {}
                for mode in modes:
                    previous = set_bitkernels_enabled(mode == "on")
                    try:
                        with np.errstate(all="ignore"):
                            timing[mode] = round(_per_call_time(call) * 1e6, 2)
                    finally:
                        set_bitkernels_enabled(previous)
                row[f"n={n}"] = timing
            if record is not None:
                record.setdefault(fmt_name, {})[op] = row
            cells = [row[f"n={n}"][mode] for n in REDUCTION_SIZES for mode in modes]
            lines.append(f"{fmt_name:<10s} {op:<10s} " + " ".join(f"{c:>14.2f}" for c in cells))
    return lines


def deep_regime(fmt, n: int, seed: int = 0) -> np.ndarray:
    """``n`` sign-symmetric finite work values in the special binades of
    ``fmt``'s bit kernel, at most four binades beyond the format's range."""
    kern = fmt.bitkernel()
    half = len(kern._special) // 2
    fields = np.flatnonzero(kern._special[1 : half - 1] == 1) + 1  # not zero, inf or NaN
    exps = fields - kern.WORD_BIAS
    low = math.log2(fmt.min_positive) - 4
    high = math.log2(fmt.max_value) + 4
    exps = exps[(exps >= low) & (exps <= high)]
    rng = np.random.default_rng(seed)
    mags = np.ldexp(rng.uniform(1.0, 2.0, n).astype(fmt.work_dtype), rng.choice(exps, n))
    return np.where(rng.integers(0, 2, n) == 1, -mags, mags)


def run_handback_report(record: dict | None = None) -> list[str]:
    """Per-call cost of rounding finite values of the special binades at
    the workload's sizes (report only, not gated): one scalar through
    ``ctx.round_scalar`` (``n=1``) and arrays of ``n`` elements through
    ``round_array``.

    When ``record`` is given, the microseconds are stored into it as
    ``record[format][f"n={n}"]``.
    """
    lines = [
        "Special-binade (hand-back) rounding per call at the workload's sizes "
        "(microseconds; n=1: ctx.round_scalar, else round_array; report only)",
        f"{'format':<10s} " + " ".join(f"{f'n={n}':>9s}" for n in HANDBACK_SIZES),
    ]
    for fmt_name in HANDBACK_FORMATS:
        ctx = get_context(fmt_name)
        fmt = ctx.format
        if fmt.bitkernel()._special is None:  # no lookup tables: no special binades
            continue
        scalars = [v for v in deep_regime(fmt, 64, seed=1)]
        calls = {1: lambda: [ctx.round_scalar(v) for v in scalars]}
        for n in HANDBACK_SIZES[1:]:
            calls[n] = lambda vals=deep_regime(fmt, n, seed=n): fmt.round_array(vals)
        row = {}
        with np.errstate(all="ignore"):
            for n in HANDBACK_SIZES:
                samples = [_per_call_time(calls[n]) for _ in range(3)]
                per_call = float(np.median(samples)) / (len(scalars) if n == 1 else 1)
                row[f"n={n}"] = round(per_call * 1e6, 3)
        if record is not None:
            record[fmt_name] = row
        cells = " ".join(f"{row[f'n={n}']:>9.2f}" for n in HANDBACK_SIZES)
        lines.append(f"{fmt_name:<10s} {cells}")
    return lines


def run_report(
    record: dict | None = None,
    sizes: dict | None = None,
    context_ops: dict | None = None,
    reductions: dict | None = None,
    handbacks: dict | None = None,
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
    lines.extend(run_context_op_report(context_ops))
    lines.append("")
    lines.extend(run_reduction_report(reductions))
    lines.append("")
    lines.extend(run_handback_report(handbacks))
    return "\n".join(lines) + "\n"


def run_check(threshold: float = 1.0) -> int:
    """CI gate: every format whose *rounding dispatch* uses a bit kernel
    must round at least as fast as the vector reference at 64k values, and
    the 32-bit posit/takum hot path must clear
    :data:`BITKERNEL_TARGET_SPEEDUP`.  Returns an exit code.
    """
    record: dict = {}
    lines = run_bitkernel_report(record)
    print("\n".join(lines))
    if not record:
        print("SKIP: bit kernels disabled in this environment")
        return 0
    failed = []
    for fmt_name, row in record.items():
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
        "vector reference at 64k values, or the 32-bit posit/takum hot path "
        "misses its 3x target",
    )
    args = parser.parse_args(argv)
    if args.check:
        return run_check()
    record: dict = {}
    sizes: dict = {}
    context_ops: dict = {}
    reductions: dict = {}
    handbacks: dict = {}
    report = run_report(record, sizes, context_ops, reductions, handbacks)
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
            "context_op_us": context_ops,
            "reduction_us": reductions,
            "handback_us": handbacks,
        },
    )
    print(report)
    print(f"report written to {out_path}")
    print(f"json artifact written to {json_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
