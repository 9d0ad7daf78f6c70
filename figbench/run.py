"""Figure-regeneration benchmark: cold and warm passes through the result store.

One run regenerates a seeded workload's figure for ``--seconds`` (at least
once): each cycle is a cold pass (plan, reference solves, every (matrix,
format) cell, commits to a fresh ``ResultStore``, ``figure_json``) followed
by warm replays of the same grid from that store.  Everything runs in this
process, pinned to one CPU, with ``workers=1`` and BLAS pools pinned to one
thread.  Times are wall seconds scaled to a reference host speed that a
calibration thread samples while they are measured (``figbench/hostspeed.py``).

    python3 figbench/run.py --workload fig1_seq --seed 0 --seconds 20 --trace 0

prints the end-to-end metrics (``--trace 1``: the per-layer metrics, from
cycles whose layer entry points are wrapped, interleaved with untraced ones)
as the last line of standard output.  Other modes:

    python3 figbench/run.py sweep --workloads fig1_seq graphs_large --seeds 0-9 --out A.jsonl
    python3 figbench/run.py compare A.jsonl B.jsonl
    python3 figbench/run.py reference     # rewrite the seed-0 correctness reference
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "figbench" / "out"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: set-up is timed in this many fresh interpreters (cold imports and caches)
SETUP_SAMPLES = 3
#: warm replays per cycle: at least this many, and until this much time
#: has gone into them (one replay takes milliseconds)
WARM_REPLAYS = 5
WARM_SECONDS = 0.5


def _pin_environment() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from figbench import hostspeed

    hostspeed.pin_to_one_cpu()


def _setup_seconds(workload: str, seed: int) -> float:
    """Import the program, build the seeded suite and preload the format
    tables, in this (fresh) interpreter; returns the scaled seconds taken."""
    from figbench.hostspeed import SpeedSampler

    with SpeedSampler() as sampler:
        start = time.perf_counter()
        from repro.arithmetic import registry

        from figbench.workloads import WORKLOADS

        spec = WORKLOADS[workload]
        spec.build_suite(seed)
        registry.preload_tables(spec.formats)
        end = time.perf_counter()
    return sampler.scaled(start, end)


def _sample_setup(workload: str, seed: int) -> list:
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()), "_setup",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )  # fmt: skip
        if done.returncode != 0:
            raise RuntimeError(f"set-up sample failed:\n{done.stderr}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


class Runner:
    """Runs the cycles of one workload at one seed and checks them."""

    def __init__(self, workload: str, seed: int):
        import repro.experiments

        from figbench import checks
        from figbench.workloads import WORKLOADS

        self.rx = repro.experiments
        self.checks = checks
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.config = self.spec.config()
        self.expected = checks.load_reference(seed, self.spec.reference)
        self.attempted = 0
        self.failed_keys: list = []
        self.suite = None

    def setup(self) -> None:
        from repro.arithmetic import registry

        self.suite = self.spec.build_suite(self.seed)
        registry.preload_tables(self.spec.formats)

    def _pass(self, store):
        result = self.rx.run_experiment(
            self.suite, self.spec.formats, self.config, workers=1, store=store,
            batch_formats=self.spec.batch_formats,
        )  # fmt: skip
        json.dumps(self.rx.figure_json(result.records), allow_nan=False)
        return result

    def cycle(self, sampler, tracer=None):
        """One cold pass and its warm replays; returns ``(cold seconds,
        mean warm seconds, cold result, trace)``, both times scaled by
        ``sampler``, where ``trace`` holds the span sets, telemetry counters
        and host-speed factor of a traced cycle."""
        from repro.telemetry import metrics, set_enabled

        OUT_DIR.mkdir(parents=True, exist_ok=True)
        store_dir = tempfile.mkdtemp(prefix="store-", dir=OUT_DIR)
        trace = {}
        clock = time.perf_counter
        try:
            store = self.rx.ResultStore(store_dir)
            if tracer is not None:
                set_enabled(True)
                try:
                    metrics.reset()
                    start = clock()
                    with tracer.root("bench.cold") as closed:
                        cold = self._pass(store)
                    trace["cold"] = closed[0]
                    trace["cold_counters"] = metrics.snapshot()["counters"]
                    metrics.reset()
                    with tracer.root("bench.warm") as closed:
                        replays = [self._pass(store)]
                    end = clock()
                    trace["warm"] = closed[0]
                    trace["warm_counters"] = metrics.snapshot()["counters"]
                finally:
                    set_enabled(False)
                trace["speed"] = sampler.factor(start, end)
                cold_s = float(trace["cold"].duration[0]) * trace["speed"]
                warm_s = float(trace["warm"].duration[0]) * trace["speed"]
            else:
                start = clock()
                cold = self._pass(store)
                cold_end = clock()
                replays = []
                while len(replays) < WARM_REPLAYS or clock() - cold_end < WARM_SECONDS:
                    replays.append(self._pass(store))
                end = clock()
                cold_s = sampler.scaled(start, cold_end)
                warm_s = sampler.scaled(cold_end, end) / len(replays)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        self._check(cold, replays)
        return cold_s, warm_s, cold, trace

    def _check(self, cold, replays) -> None:
        checks = self.checks
        observed = checks.digests(cold.records)
        if self.expected is None:
            self.expected = observed  # later passes must repeat the first
        bad = set(checks.failed_cells(observed, self.expected))
        for warm in replays:
            bad.update(checks.warm_mismatches(cold.records, warm.records))
            if warm.report.executed or warm.report.cache_hit_ratio != 1.0:
                bad.update(observed)
        self.attempted += len(observed)
        self.failed_keys.extend(sorted(bad))

    def result(self, metrics: dict) -> dict:
        return {
            "correct": not self.failed_keys and self.attempted > 0,
            "attempted": self.attempted,
            "failed": len(self.failed_keys),
            "metrics": metrics,
        }


def measure(workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one untraced run."""
    from figbench.hostspeed import REFERENCE_RATE, SpeedSampler

    setup = _sample_setup(workload, seed)
    runner = Runner(workload, seed)
    runner.setup()
    cold, warm, walls = [], [], []
    with SpeedSampler() as sampler:
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() + statistics.median(walls) <= deadline:
            start = time.perf_counter()
            cold_s, warm_s, _, _ = runner.cycle(sampler)
            walls.append(time.perf_counter() - start)
            cold.append(cold_s)
            warm.append(warm_s)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(
        f"figbench: {workload} seed {seed}: cold passes {' '.join(f'{t:.3f}' for t in cold)} s "
        f"(cycles {' '.join(f'{t:.3f}' for t in walls)} s wall); warm replay means "
        f"{' '.join(f'{t:.6f}' for t in warm)} s; set-up samples {' '.join(f'{t:.3f}' for t in setup)} s; "
        f"host speed {statistics.fmean(r for _, r in sampler.samples) / REFERENCE_RATE:.3f}",
        file=sys.stderr,
    )
    return runner.result(
        {
            "figure_s": {"value": statistics.median(cold), "unit": "s"},
            "warm_s": {"value": statistics.median(warm), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    )


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    """The per-layer metrics of one run: traced cycles interleaved with
    untraced ones (the first cycle is untraced, so lazy set-up lands there)."""
    from figbench import layers, tracing
    from figbench.hostspeed import SpeedSampler

    tracer = tracing.Tracer()
    runner = Runner(workload, seed)
    seconds_metrics = {name for name, unit, *_ in layers.PER_LAYER if unit == "s"}
    plain, traced, per_cycle, walls = [], [], [], []
    last = None
    with SpeedSampler() as sampler:
        tracer.install(layers.TARGETS)
        try:
            with tracer.root("bench.setup") as closed:
                runner.setup()
        finally:
            tracer.uninstall()
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() + statistics.median(walls) <= deadline:
            with_trace = len(plain) > len(traced)
            if with_trace:
                tracer.install(layers.TARGETS)
            start = time.perf_counter()
            try:
                cold_s, _, cold, trace = runner.cycle(sampler, tracer if with_trace else None)
            finally:
                tracer.uninstall()
            walls.append(time.perf_counter() - start)
            if not with_trace:
                plain.append(cold_s)
                continue
            traced.append(cold_s)
            broken = trace["cold"].nesting_errors() + trace["warm"].nesting_errors()
            if broken:
                raise RuntimeError(f"{broken} traced spans are open or badly nested")
            metrics = layers.cycle_metrics(
                trace["cold"], trace["warm"], trace["cold_counters"], trace["warm_counters"],
                cold.records,
            )  # fmt: skip
            for name in seconds_metrics & metrics.keys():
                metrics[name] *= trace["speed"]
            metrics["bench.host_speed"] = trace["speed"]
            per_cycle.append(metrics)
            last = trace
        setup_speed = sampler.factor(closed[0].start[0], closed[0].end[0])
    setup_spans = closed[0]
    # means, not medians, so the reported self times still add up
    values = {name: statistics.fmean(m[name] for m in per_cycle) for name in per_cycle[0]}
    setup_totals = setup_spans.totals()
    values["datasets.suite_s"] = setup_totals.get("datasets.suite", (0.0, 0))[0] * setup_speed
    values["arithmetic.preload_s"] = setup_totals.get("arithmetic.preload", (0.0, 0))[0] * setup_speed
    values["bench.trace_overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    values["bench.cells_failed_frac"] = len(runner.failed_keys) / runner.attempted
    _write_trace(workload, seed, last, setup_spans)
    units = {name: unit for name, unit, *_ in layers.PER_LAYER}
    return runner.result({name: {"value": values[name], "unit": units[name]} for name in layers.PER_LAYER_NAMES})


def _write_trace(workload: str, seed: int, trace: dict, setup_spans) -> None:
    """Write the last traced cycle: its spans (``.npz``) and a summary with
    per-root layer totals and the rounding-call histogram per format."""
    import numpy as np

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = OUT_DIR / f"trace-{workload}-seed{seed}"
    roots = {"setup": setup_spans, "cold": trace["cold"], "warm": trace["warm"]}
    arrays = {}
    for root, spans in roots.items():
        for field in ("name", "label", "parent", "start", "end"):
            arrays[f"{root}_{field}"] = getattr(spans, field)
    # name and label ids are shared by all roots; the last root knows them all
    np.savez_compressed(
        stem.with_suffix(".npz"), names=np.array(trace["warm"].names),
        labels=np.array(trace["warm"].labels, dtype=str), **arrays,
    )  # fmt: skip
    histogram = {}
    for (fmt, bucket), (calls, secs) in sorted(trace["cold"].histogram("arithmetic.round.").items()):
        histogram.setdefault(fmt, {})[bucket] = {"calls": calls, "self_s": secs}
    summary = {
        "workload": workload,
        "seed": seed,
        "layers": {
            root: {name: {"self_s": s, "calls": c} for name, (s, c) in sorted(spans.totals().items())}
            for root, spans in roots.items()
        },
        "rounding_histogram": histogram,
        "cold_counters": trace["cold_counters"],
        "warm_counters": trace["warm_counters"],
    }
    stem.with_suffix(".json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")


def write_reference(seed: int) -> None:
    """Regenerate the committed digests at ``seed`` (one cold pass of the
    first workload of every reference key)."""
    from figbench import checks
    from figbench.hostspeed import SpeedSampler
    from figbench.workloads import WORKLOADS

    by_key = {}
    for name, spec in WORKLOADS.items():
        if spec.reference in by_key:
            continue
        runner = Runner(name, seed)
        runner.expected = {}
        runner.setup()
        with SpeedSampler() as sampler:
            _, _, cold, _ = runner.cycle(sampler)
        by_key[spec.reference] = checks.digests(cold.records)
        print(f"{spec.reference}: {len(by_key[spec.reference])} cells from {name}", file=sys.stderr)
    print(checks.write_reference(seed, by_key))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    _pin_environment()
    if argv and argv[0] == "_setup":
        # a set-up sample: nothing of the program may be imported before
        # the timer starts
        _, _, workload, _, seed = argv
        print(repr(_setup_seconds(workload, int(seed))))
        return 0
    # the program is built from this checkout's sources, never from elsewhere
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"figbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from figbench import stats
    from figbench.workloads import WORKLOADS

    if argv and argv[0] in ("sweep", "compare"):
        return stats.main(argv)
    if argv and argv[0] == "reference":
        write_reference(0)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=stats.load_benchmark()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.trace:
        result = measure_traced(args.workload, args.seed, args.seconds)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
