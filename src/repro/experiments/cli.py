"""Command-line interface for running the paper's experiments.

Usage (module form)::

    python -m repro.experiments.cli --suite general --widths 16 32 \
        --matrices 6 --output results.csv

runs the chosen suite (one of the paper's five workloads) with all formats of
the requested bit widths, prints the figure report (percentile table + ASCII
cumulative error distributions) and optionally writes the raw per-run records
as CSV.  The defaults are a scaled-down laptop workload; raising
``--matrices``/``--scale`` approaches the paper's population sizes.

Every run goes through the resumable experiment store
(:mod:`repro.experiments.store`): finished (matrix, format) cells are
committed to ``--store`` (default ``$REPRO_STORE`` or
``~/.cache/repro-store``) as they land, cached cells are never recomputed,
and an interrupted invocation resumes where it stopped.  The store itself is
managed with the ``store`` subcommand::

    python -m repro.experiments.cli store ls
    python -m repro.experiments.cli store gc
    python -m repro.experiments.cli store clear --yes

and served over HTTP with the ``serve`` subcommand (see
:mod:`repro.serve` and ``docs/serving.md``)::

    python -m repro.experiments.cli serve --port 8080 --workers 2
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from ..arithmetic.registry import PAPER_FORMATS
from ..datasets import get_suite
from ..telemetry import (
    TelemetryReport,
    metrics,
    render_trace_summary,
    set_enabled,
    summarize_trace,
)
from ..telemetry import trace as telemetry_trace
from ..utils.parallel import default_workers
from .aggregate import statuses_by_format
from .config import ExperimentConfig
from .figures import figure_csv_rows, figure_json, figure_report, table1_report
from .runner import run_experiment
from .store import ResultStore

__all__ = [
    "main",
    "build_parser",
    "build_store_parser",
    "build_trace_parser",
    "build_serve_parser",
]


#: --help epilog surfacing the rounding-kernel opt-out (both switch
#: positions round bit-identically, so it exists for verification runs and
#: micro-benchmarks, not for day-to-day use)
_EPILOG = """\
rounding kernels:
  Emulated formats round every value in a compiled kernel: most through
  integer lookup tables, the rest by the format's own rounding rule.  The
  one opt-out:
    REPRO_DISABLE_BITKERNELS=1        environment: build the kernels
                                      without their lookup tables
                                      process-wide (every value rounds by
                                      the format's rule, bit-identically)
    repro.arithmetic.set_bitkernels_enabled(False)
                                      runtime: same switch, toggleable
                                      per phase

parallelism:
  REPRO_WORKERS sets the default worker count of --workers (the benchmark
  harness honours it too); the formats' rounding kernels are always built
  in the parent before workers fork.

experiment store:
  Finished (matrix, format) cells are committed to the store as they land
  and reused by later invocations with the same configuration, so reruns
  and interrupted runs only execute what is missing.  REPRO_STORE sets the
  default --store directory (fallback: $XDG_CACHE_HOME/repro-store or
  ~/.cache/repro-store); --no-cache recomputes everything (still
  refreshing the store); --rerun-failed retries cells whose worker
  crashed.  Inspect with the 'store' subcommand: store ls | gc | clear.

telemetry:
  Observability is off by default and costs <= 2% when compiled in (gated
  by benchmarks/bench_telemetry.py --check).  --trace FILE records
  hierarchical solver/experiment spans as JSON-lines (worker shards are
  merged after the run); --metrics-json FILE dumps the process metrics
  registry (kernel-dispatch counters, LUT fallback fractions, store
  hits/misses, rounded-op totals).  Either flag enables collection
  (REPRO_TELEMETRY=1 does the same for library use).  Summarise a trace
  with: trace summarize FILE.

serving:
  'serve' starts an HTTP service over the store: requests name a
  (matrix, format, config) cell and receive the stored run record as
  JSON; cold cells are solved on a bounded worker pool with identical
  concurrent requests coalesced into one solve, and saturation answered
  with 503 + Retry-After.  Telemetry is on for the service (scrape
  /metrics).  See docs/serving.md.
"""


def build_parser() -> argparse.ArgumentParser:
    """Argument parser of the experiment CLI.

    Returns
    -------
    argparse.ArgumentParser
        Parser for the module-form invocation
        (``python -m repro.experiments.cli``); see ``--help`` for the
        rounding-backend opt-out hierarchy and the experiment-store flags.
    """
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Reproduce the IRAM low-precision eigenvalue experiments.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--suite",
        default="general",
        choices=["general", "biological", "infrastructure", "social", "miscellaneous", "table1"],
        help="workload: 'general' = Figure 1, graph classes = Figures 2-5, "
        "'table1' only prints the classification table",
    )
    parser.add_argument(
        "--widths",
        type=int,
        nargs="+",
        default=[8, 16, 32, 64],
        choices=[8, 16, 32, 64],
        help="bit widths (figure panels) to evaluate",
    )
    parser.add_argument("--matrices", type=int, default=6, help="matrices to evaluate")
    parser.add_argument(
        "--scale", type=float, default=0.01, help="fraction of the Table-1 graph counts"
    )
    parser.add_argument("--min-size", type=int, default=24, help="smallest matrix order")
    parser.add_argument("--max-size", type=int, default=48, help="largest matrix order")
    parser.add_argument("--restarts", type=int, default=30, help="Krylov-Schur restart budget")
    parser.add_argument(
        "--accumulation",
        default="pairwise",
        choices=["pairwise", "sequential"],
        help="reduction order of the rounded kernels (ablation)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=default_workers(),
        help="worker processes handed to parallel_map (each worker solves "
        "whole matrices; the rounding kernels are built before the fork so "
        "workers inherit them copy-on-write).  Defaults to $REPRO_WORKERS "
        "or 1; 0 uses all CPUs",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="experiment-store directory (default: $REPRO_STORE, else "
        "~/.cache/repro-store); finished cells are committed here and "
        "reused by later runs",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore cached cells (recompute everything; fresh results "
        "still refresh the store)",
    )
    parser.add_argument(
        "--rerun-failed",
        action="store_true",
        help="retry cached cells whose worker crashed ('failed' status)",
    )
    parser.add_argument(
        "--batch-formats",
        action="store_true",
        help="solve each matrix's missing formats as one task, one "
        "partialschur solve per format (repro.core.lockstep."
        "batched_partialschur); per-format results are bit-identical, so "
        "cache entries are shared with sequential runs",
    )
    parser.add_argument(
        "--report-json",
        default=None,
        metavar="FILE",
        help="write the execution report (planned/cached/executed cell "
        "counts + per-format run statuses + telemetry summary) as JSON",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="enable telemetry and record trace spans (solver phases, "
        "experiment cells, executor run) as JSON-lines to FILE; worker "
        "shard files are merged into FILE after the run",
    )
    parser.add_argument(
        "--metrics-json",
        default=None,
        metavar="FILE",
        help="enable telemetry and write the metrics-registry snapshot "
        "(dispatch counters, store hits/misses, op totals) as JSON",
    )
    parser.add_argument(
        "--figure-json",
        default=None,
        metavar="FILE",
        help="write the aggregated figure data (status counts, percentiles, "
        "cumulative-distribution series) as deterministic JSON",
    )
    parser.add_argument("--no-plots", action="store_true", help="omit the ASCII plots")
    parser.add_argument("--output", default=None, help="write per-run records to this CSV file")
    return parser


def build_store_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``store`` maintenance subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-experiment store",
        description="Inspect and maintain the on-disk experiment store.",
    )
    parser.add_argument(
        "command",
        choices=["ls", "gc", "clear"],
        help="ls: summarise entries; gc: drop stale-schema/corrupt entries "
        "and staging leftovers; clear: drop everything",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="store directory (default: $REPRO_STORE, else ~/.cache/repro-store)",
    )
    parser.add_argument(
        "--keys",
        action="store_true",
        help="with 'ls': also print every cache key",
    )
    parser.add_argument(
        "--yes",
        action="store_true",
        help="with 'clear': do not ask for confirmation",
    )
    return parser


def build_trace_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``trace`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-experiment trace",
        description="Summarise a JSON-lines trace file produced by --trace.",
    )
    parser.add_argument(
        "command",
        choices=["summarize"],
        help="summarize: phase/format wall-time and op breakdown",
    )
    parser.add_argument("file", help="trace file written by a --trace run")
    return parser


def trace_main(argv) -> int:
    """Entry point of ``python -m repro.experiments.cli trace ...``."""
    args = build_trace_parser().parse_args(argv)
    try:
        summary = summarize_trace(args.file)
    except OSError as exc:
        print(f"cannot read trace file: {exc}", file=sys.stderr)
        return 1
    if not summary["events"]:
        print(f"no span events in {args.file}", file=sys.stderr)
        return 1
    print(render_trace_summary(summary, title=f"trace {args.file}"))
    return 0


def store_main(argv) -> int:
    """Entry point of ``python -m repro.experiments.cli store ...``."""
    args = build_store_parser().parse_args(argv)
    store = ResultStore.from_environment(args.store)
    if args.command == "ls":
        stats = store.stats()
        print(f"store: {stats['root']}")
        print(f"entries: {stats['entries']} ({stats['bytes']} bytes)")
        for kind, count in sorted(stats["kinds"].items()):
            print(f"  kind {kind}: {count}")
        for status, count in sorted(stats["run_statuses"].items()):
            print(f"  status {status}: {count}")
        for name, count in sorted(stats["run_formats"].items()):
            print(f"  format {name}: {count}")
        if args.keys:
            for key in store.keys():
                print(key)
        return 0
    if args.command == "gc":
        removed = store.gc()
        print(f"removed {removed} stale entries from {store.root}")
        return 0
    # clear
    if not args.yes:
        try:
            reply = input(f"remove ALL entries under {store.root}? [y/N] ")
        except EOFError:  # non-interactive stdin (CI, cron): treat as "no"
            reply = ""
        if reply.strip().lower() not in ("y", "yes"):
            print("aborted", file=sys.stderr)
            return 1
    removed = store.clear()
    print(f"removed {removed} entries from {store.root}")
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``serve`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-experiment serve",
        description="Serve (matrix, format) run records over HTTP, solving "
        "cold cells on a bounded worker pool (see docs/serving.md).",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8080, help="bind port (0 = ephemeral)")
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="experiment-store directory to serve from (default: $REPRO_STORE, "
        "else ~/.cache/repro-store)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=default_workers(),
        help="solver worker processes (0 uses all CPUs; default $REPRO_WORKERS or 1)",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=8,
        help="cold solves admitted beyond the running ones before the "
        "service answers 503 + Retry-After",
    )
    parser.add_argument(
        "--suite",
        default="general",
        choices=["general", "biological", "infrastructure", "social", "miscellaneous"],
        help="workload whose matrices this replica serves",
    )
    parser.add_argument("--matrices", type=int, default=6, help="matrices in the served suite")
    parser.add_argument(
        "--scale", type=float, default=0.01, help="fraction of the Table-1 graph counts"
    )
    parser.add_argument("--min-size", type=int, default=24, help="smallest matrix order")
    parser.add_argument("--max-size", type=int, default=48, help="largest matrix order")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--widths",
        type=int,
        nargs="+",
        default=[8, 16, 32, 64],
        choices=[8, 16, 32, 64],
        help="bit widths whose formats the service accepts and preloads",
    )
    parser.add_argument(
        "--restarts", type=int, default=30, help="Krylov-Schur restart budget of cold solves"
    )
    parser.add_argument(
        "--no-preload",
        action="store_true",
        help="skip building the rounding kernels at startup (first cold "
        "solve per format pays the cost instead)",
    )
    return parser


def serve_main(argv) -> int:
    """Entry point of ``python -m repro.experiments.cli serve ...``."""
    from ..serve import SpectralService, run_service

    args = build_serve_parser().parse_args(argv)
    # the service is an observability surface by design: /metrics must have
    # data, so telemetry is on for the whole process (workers inherit it)
    set_enabled(True)
    os.environ["REPRO_TELEMETRY"] = "1"
    metrics.reset()

    suite = _build_suite(args)
    if not suite:
        print("no matrices generated for the requested workload", file=sys.stderr)
        return 1
    formats = [name for width in args.widths for name in PAPER_FORMATS[width]]
    config = ExperimentConfig(restarts=args.restarts)
    store = ResultStore.from_environment(args.store)
    service = SpectralService(
        store,
        suite,
        formats=formats,
        config=config,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        preload=not args.no_preload,
    )
    run_service(service)
    return 0


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["store"]:
        return store_main(argv[1:])
    if argv[:1] == ["trace"]:
        return trace_main(argv[1:])
    if argv[:1] == ["serve"]:
        return serve_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.suite == "table1":
        print(table1_report(scale=args.scale))
        return 0

    telemetry_on = bool(args.trace or args.metrics_json)
    if telemetry_on:
        # fresh per-invocation metrics view; the env export lets workers
        # under the 'spawn' start method inherit the switch ('fork' workers
        # inherit the toggled module state directly)
        set_enabled(True)
        os.environ["REPRO_TELEMETRY"] = "1"
        metrics.reset()
        if args.trace:
            telemetry_trace.configure(args.trace)

    suite = _build_suite(args)
    if not suite:
        print("no matrices generated for the requested workload", file=sys.stderr)
        return 1
    formats = [name for width in args.widths for name in PAPER_FORMATS[width]]
    config = ExperimentConfig(restarts=args.restarts, accumulation=args.accumulation)
    store = ResultStore.from_environment(args.store)
    print(
        f"running suite {args.suite!r}: {len(suite)} matrices x {len(formats)} formats "
        f"(restarts={args.restarts}, workers={args.workers}, store={store.root})",
        file=sys.stderr,
    )
    result = run_experiment(
        suite,
        formats,
        config,
        workers=args.workers,
        store=store,
        use_cache=not args.no_cache,
        rerun_failed=args.rerun_failed,
        batch_formats=args.batch_formats,
    )
    report = result.report
    if args.trace:
        telemetry_trace.collate()
        telemetry_trace.shutdown()
    print(
        figure_report(
            result.records,
            widths=tuple(args.widths),
            title=f"Cumulative error distributions — suite {args.suite!r}",
            plots=not args.no_plots,
        )
    )
    telemetry_report = TelemetryReport(
        wall_seconds=report.wall_seconds,
        cache_hit_ratio=report.cache_hit_ratio,
        metrics=metrics.snapshot() if telemetry_on else None,
        trace_file=args.trace,
    )
    if args.report_json:
        payload = report.to_dict()
        payload["store"] = str(store.root)
        payload["statuses_by_format"] = statuses_by_format(result.records)
        payload["telemetry"] = telemetry_report.to_dict()
        with open(args.report_json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote execution report to {args.report_json}", file=sys.stderr)
    if args.metrics_json:
        with open(args.metrics_json, "w", encoding="utf-8") as handle:
            json.dump(metrics.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote metrics to {args.metrics_json}", file=sys.stderr)
    if args.figure_json:
        with open(args.figure_json, "w", encoding="utf-8") as handle:
            json.dump(
                figure_json(result.records, widths=tuple(args.widths)),
                handle,
                sort_keys=True,
                allow_nan=False,
            )
            handle.write("\n")
        print(f"wrote figure data to {args.figure_json}", file=sys.stderr)
    if args.output:
        rows = figure_csv_rows(result.records)
        with open(args.output, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {len(rows)} records to {args.output}", file=sys.stderr)
    # one-line warm/cold summary on every run (the store satellite view)
    mode = "warm" if report.executed == 0 else ("cold" if report.cached == 0 else "mixed")
    print(
        f"run {mode}: {report.cached}/{report.planned} cells cached "
        f"({100 * report.cache_hit_ratio:.0f}% hit), {report.executed} executed "
        f"({report.failed} failed) in {report.wall_seconds:.2f}s wall",
        file=sys.stderr,
    )
    # crashed worker cells no longer abort the run (sibling results are
    # kept and committed), but they must not read as success either: all
    # reports above are written, then the partial result is flagged
    failed_cells = sum(1 for r in result.records if r.status == "failed")
    if failed_cells or report.failed:
        print(
            f"ERROR: {failed_cells or report.failed} cell(s) carry crashed-worker "
            "results (status 'failed'); rerun with --rerun-failed to retry them",
            file=sys.stderr,
        )
        return 2
    return 0


def _build_suite(args):
    size_range = (args.min_size, args.max_size)
    if args.suite == "general":
        return get_suite("general", count=args.matrices, size_range=size_range, seed=args.seed)
    suite = get_suite(args.suite, scale=args.scale, size_range=size_range, seed=args.seed)
    return suite[: args.matrices]


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    raise SystemExit(main())
