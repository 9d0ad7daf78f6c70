"""Result sets: runs over many seeds, their spread, and A/B comparison.

A result set is a JSON-lines file with one run per line::

    {"workload": "fig1_seq", "seed": 3, "trace": 0, "result": {...}}

``sweep`` fills one by running the benchmark in child processes and prints
each end-to-end metric's spread (quartile distance over median, against the
metric's bound in ``BENCHMARK.json``); ``compare`` puts two sets side by
side, workload by workload.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN = pathlib.Path(__file__).resolve().parent / "run.py"


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def quartiles(values) -> tuple:
    """``(q1, median, q3)``; q1/q3 as ``statistics.quantiles(n=4)`` cuts them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def parse_seeds(text: str) -> list:
    """``"0-9"`` or ``"0,3,7"`` to a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def read_set(path) -> dict:
    """``{workload: [result, ...]}`` of the untraced runs in a result set."""
    runs: dict = {}
    for line in pathlib.Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            row = json.loads(line)
            if not row["trace"]:
                runs.setdefault(row["workload"], []).append(row["result"])
    return runs


def _values(results, metric: str) -> list:
    return [r["metrics"][metric]["value"] for r in results]


def spread_report(runs: dict, bench: dict) -> list:
    """One line per workload × end-to-end metric: median, quartiles,
    spread and bound (``setup_s`` is held to its bound on medians only)."""
    lines = []
    for workload, results in runs.items():
        failed = sum(r["failed"] for r in results)
        lines.append(f"{workload}: {len(results)} runs, {failed} failed cells")
        for metric in bench["end_to_end"]:
            q1, med, q3 = quartiles(_values(results, metric["name"]))
            share = (q3 - q1) / med
            verdict = "ok" if share <= metric["bound"] / 3 else "WIDE" if share > metric["bound"] else "marginal"
            lines.append(
                f"  {metric['name']:12s} median {med:.6g} {metric['unit']}  "
                f"q1 {q1:.6g}  q3 {q3:.6g}  spread {share:.3f}  bound {metric['bound']}  {verdict}"
            )
    return lines


def _worse_share(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (negative
    when better)."""
    change = (b - a) / a
    return change if better == "lower" else -change


def compare_report(set_a: dict, set_b: dict, bench: dict) -> list:
    """Per workload × end-to-end metric: both medians with quartiles, the
    change of B against A, the bound and a verdict.  A metric whose spread
    in either set exceeds its bound is unresolved unless every run of one
    set beats every run of the other."""
    lines = []
    for workload in sorted(set(set_a) & set(set_b)):
        lines.append(workload)
        for metric in bench["end_to_end"]:
            name, bound, better = metric["name"], metric["bound"], metric["better"]
            a, b = _values(set_a[workload], name), _values(set_b[workload], name)
            qa, qb = quartiles(a), quartiles(b)
            worse = _worse_share(qa[1], qb[1], better)
            disjoint = max(b) < min(a) or min(b) > max(a)
            if max(spread(a), spread(b)) > bound and not disjoint:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
            elif -worse > (qa[2] - qa[0]) / qa[1]:
                verdict = "improved"
            else:
                verdict = "within bound"
            lines.append(
                f"  {name:12s} A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                f"B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {metric['unit']}  "
                f"worse {worse:+.3f}  bound {bound}  {verdict}"
            )
    return lines


def sweep(workloads, seeds, seconds, trace: int, out: pathlib.Path) -> dict:
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "a", encoding="utf-8") as sink:
        for workload in workloads:
            for seed in seeds:
                done = subprocess.run(
                    [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)],
                    capture_output=True, text=True, timeout=900, cwd=ROOT,
                )  # fmt: skip
                if done.returncode != 0:
                    raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr}")
                result = json.loads(done.stdout.strip().splitlines()[-1])
                row = {"workload": workload, "seed": seed, "trace": trace, "result": result}
                sink.write(json.dumps(row) + "\n")
                sink.flush()
                notes = [ln for ln in done.stderr.splitlines() if ln.startswith("figbench:")]
                print("\n".join(notes + [json.dumps(result)]), file=sys.stderr)
    return read_set(out)


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="figbench/run.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    run = sub.add_parser("sweep", help="run workloads over seeds into a result set")
    run.add_argument("--workloads", nargs="+", required=True)
    run.add_argument("--seeds", default="0-9")
    run.add_argument("--seconds", type=float, default=None)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", type=pathlib.Path, required=True)
    cmp = sub.add_parser("compare", help="compare two result sets")
    cmp.add_argument("a", type=pathlib.Path)
    cmp.add_argument("b", type=pathlib.Path)
    args = parser.parse_args(argv)
    bench = load_benchmark()
    if args.mode == "sweep":
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        runs = sweep(args.workloads, parse_seeds(args.seeds), seconds, args.trace, args.out)
        if not args.trace:
            print("\n".join(spread_report(runs, bench)))
        return 0
    print("\n".join(compare_report(read_set(args.a), read_set(args.b), bench)))
    return 0
