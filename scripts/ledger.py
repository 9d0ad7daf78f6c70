#!/usr/bin/env python3
"""Performance ledger: one JSON record of a tree's figure benchmark, and
the source of CI's figure-counter pins.

Drives ``figbench/run.py`` on fig1_seq, fig1_batched and graphs_large at
seed 0:
best-of-``--runs`` untraced runs (each as long as ``BENCHMARK.json``'s
``run_seconds``) give the end-to-end ``figure_s``, ``warm_s`` and
``peak_rss_mb``, and one traced run gives the self seconds of every layer
and the deterministic counts that CI's figure-counter gate pins (rounded
ops in total and per format, the rounding-call size buckets, the dispatch
split, the share of bit-kernel elements handed back, restarts and
matvecs).  Provenance comes from
``benchmarks/conftest.bench_metadata``.

    python scripts/ledger.py --out BENCH_23.json
    python scripts/ledger.py --baseline-tree ../parent --out BENCH_24.json
        [--declare WORKLOAD:COUNT ... --reason TEXT]            # moved pins
    python scripts/ledger.py --compare BENCH_23.json            # baseline -> measured
    python scripts/ledger.py --compare OLD.json NEW.json
    python scripts/ledger.py --gate RESULTS_DIR                 # CI's counter gate

``--baseline-tree`` measures a second checkout (say, the parent commit) in
the same session, alternating its runs with this tree's, and stores it as
the ledger's ``baseline``.  ``--compare`` prints every metric of two
ledgers (or of one ledger's baseline and measurement) side by side, and
exits 1 when a pinned count moved.

The newest committed ``BENCH_<n>.json`` holds the pins: ``--gate`` reads
``<workload>.json`` (the output of one traced ``figbench/run.py`` cycle)
from ``RESULTS_DIR`` for each pinned workload and exits 1 unless every cell
is correct and every pinned count equals the newest ledger's, exactly.  It
also fails when the newest ledger moved a count against the ledger before
it without declaring the move: each moved count needs a
``declared_moves`` entry ``{"workload", "count", "from", "to", "reason"}``
(written by ``--declare WORKLOAD:COUNT`` with ``--reason``), and each entry
must name a count that moved from ``from`` to ``to``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from figbench.tracing import BUCKET_NAMES  # noqa: E402
from figbench.workloads import WORKLOADS  # noqa: E402

WORKLOAD_NAMES = ("fig1_seq", "fig1_batched", "graphs_large")
#: the seed CI's counter gate pins the counts at
SEED = 0
END_TO_END = ("figure_s", "warm_s", "peak_rss_mb")
DISPATCH_PATHS = ("scalar_kernel", "bitkernel", "analytic")
#: pinned ratios of two counts, kept as floats: one traced cycle divides
#: the same two integers on every run, so they are pinned exactly too
RATIOS = ("arithmetic.lut_fallback_ratio",)


def pinned_keys(workload: str) -> list:
    """The counts CI's figure-counter gate pins for ``workload``."""
    formats = WORKLOADS[workload].formats
    return (
        ["arithmetic.rounded_ops"]
        + [f"arithmetic.rounded_ops.{fmt}" for fmt in formats]
        + [f"arithmetic.round_calls.{bucket}" for bucket in BUCKET_NAMES]
        + [f"arithmetic.dispatch.{path}" for path in DISPATCH_PATHS]
        + list(RATIOS)
        + ["core.restarts", "core.matvecs"]
    )


def committed_ledgers(root: pathlib.Path = ROOT) -> list:
    """The ``BENCH_<n>.json`` files in ``root``, oldest (lowest ``n``) first."""
    return sorted(root.glob("BENCH_*.json"), key=lambda p: int(re.sub(r"\D", "", p.name)))


def _load(path: pathlib.Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _moves(previous: dict, newest: dict) -> dict:
    """``{(workload, count): (from, to)}`` of the pinned counts that differ
    between two ledgers (``from`` is ``None`` for a new count)."""
    moves = {}
    for workload, entry in newest["measured"].items():
        before = previous["measured"].get(workload, {}).get("counts", {})
        for name, value in entry["counts"].items():
            if before.get(name) != value:
                moves[(workload, name)] = (before.get(name), value)
    return moves


def undeclared_moves(previous: dict, newest: dict) -> list:
    """What is wrong with ``newest``'s ``declared_moves`` against the
    ledger before it: moved counts it does not declare, and declarations
    that do not match a move."""
    moves = _moves(previous, newest)
    declared = {}
    problems = []
    for move in newest.get("declared_moves", []):
        key = (move["workload"], move["count"])
        declared[key] = (move["from"], move["to"])
        if moves.get(key) != declared[key]:
            problems.append(
                f"{key[0]} {key[1]}: declared {move['from']} -> {move['to']}, "
                f"ledgers read {moves.get(key, 'no move')}"
            )
    for key, (old, new) in sorted(moves.items()):
        if key not in declared:
            problems.append(f"{key[0]} {key[1]}: moved {old} -> {new} without a declaration")
    return problems


def gate(results_dir: pathlib.Path, root: pathlib.Path = ROOT) -> list:
    """CI's figure-counter gate: the failures of the traced figbench results
    in ``results_dir`` against the newest committed ledger in ``root``."""
    ledgers = committed_ledgers(root)
    if not ledgers:
        return [f"no committed BENCH_*.json in {root}"]
    newest = _load(ledgers[-1])
    failures = []
    if len(ledgers) > 1:
        problems = undeclared_moves(_load(ledgers[-2]), newest)
        failures += [f"{ledgers[-1].name}: {problem}" for problem in problems]
    for workload in WORKLOAD_NAMES:
        pins = newest["measured"][workload]["counts"]
        if sorted(pins) != sorted(pinned_keys(workload)):
            failures.append(f"{workload}: {ledgers[-1].name} does not pin {pinned_keys(workload)}")
            continue
        result = _load(pathlib.Path(results_dir) / f"{workload}.json")
        got = {name: result["metrics"][name]["value"] for name in pins}
        print(f"{workload}: correct={result['correct']} failed={result['failed']} counts={got}")
        if not result["correct"] or result["failed"]:
            failures.append(f"{workload}: the figure does not reproduce its reference")
        for name, value in pins.items():
            if got[name] != value:
                failures.append(f"{workload} {name}: {got[name]}, pinned {value}")
    return failures


def _run(tree: pathlib.Path, workload: str, traced: bool) -> dict:
    """One ``figbench/run.py`` run in ``tree``; a traced run is one cycle."""
    command = [sys.executable, "figbench/run.py", "--workload", workload, "--seed", str(SEED)]
    if traced:
        command += ["--seconds", "0", "--trace", "1"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _values(result: dict) -> dict:
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def _entry(workload: str, runs: list, traced: dict) -> dict:
    """One workload's ledger entry from its untraced runs and traced run."""
    values = [_values(run) for run in runs]
    layers = _values(traced)
    units = {name: metric["unit"] for name, metric in traced["metrics"].items()}
    entry = {name: min(v[name] for v in values) for name in END_TO_END}
    entry.update({f"{name}_runs": [v[name] for v in values] for name in END_TO_END})
    entry["correct"] = all(r["correct"] for r in runs + [traced])
    entry["failed"] = max(r["failed"] for r in runs + [traced])
    entry["layers_s"] = {name: value for name, value in layers.items() if units[name] == "s"}
    entry["counts"] = {
        name: layers[name] if name in RATIOS else int(layers[name])
        for name in pinned_keys(workload)
    }
    return entry


def _tree_rev(tree: pathlib.Path):
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True)
    return done.stdout.strip() or None


def measure(trees: list, runs: int) -> list:
    """Measure every tree, alternating their runs; one dict per tree."""
    measured = [{} for _ in trees]
    for workload in WORKLOAD_NAMES:
        plain = [[] for _ in trees]
        for k in range(runs):
            order = range(len(trees)) if k % 2 == 0 else reversed(range(len(trees)))
            for i in order:
                run = _run(trees[i], workload, traced=False)
                plain[i].append(run)
                value = run["metrics"]["figure_s"]["value"]
                print(f"ledger: {workload} {trees[i]}: figure_s {value:.3f}", file=sys.stderr)
        for i, tree in enumerate(trees):
            measured[i][workload] = _entry(workload, plain[i], _run(tree, workload, traced=True))
    return measured


def compare(old: dict, new: dict) -> int:
    """Print ``old`` against ``new`` (``{workload: entry}``); returns the
    number of pinned counts that moved."""
    moved = 0
    for workload in sorted(old.keys() & new.keys()):
        a, b = old[workload], new[workload]
        print(f"{workload}:")
        layers = b["layers_s"]
        rows = [(name, a[name], b[name]) for name in END_TO_END]
        rows += [(name, a["layers_s"].get(name, 0.0), layers[name]) for name in layers]
        for name, x, y in rows:
            change = f"{(y / x - 1.0) * 100:+7.1f}%" if x else "      -"
            print(f"  {name:<34s} {x:>12.4f} {y:>12.4f} {change}")
        moves = [(name, a["counts"].get(name), y) for name, y in b["counts"].items()]
        moves = [(name, x, y) for name, x, y in moves if x != y]
        for name, x, y in moves:
            print(f"  MOVED {name}: {x} -> {y}")
        print(f"  {len(b['counts'])} pinned counts, {len(moves)} moved")
        moved += len(moves)
    return moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs="+", metavar="LEDGER", help="one or two ledgers")
    parser.add_argument("--out", default="BENCH.json", help="ledger file to write")
    parser.add_argument("--baseline-tree", help="a second checkout to measure as the baseline")
    parser.add_argument("--runs", type=int, default=3, help="untraced runs per workload")
    parser.add_argument(
        "--declare",
        action="append",
        default=[],
        metavar="WORKLOAD:COUNT",
        help="declare an intended move of a pinned count (repeatable)",
    )
    parser.add_argument("--reason", default="", help="why the declared counts moved")
    parser.add_argument("--gate", metavar="RESULTS_DIR", help="run CI's figure-counter gate")
    args = parser.parse_args(argv)
    if args.gate:
        failures = gate(pathlib.Path(args.gate))
        for failure in failures:
            print(f"FAIL: {failure}")
        print("figure counter gate " + ("failed" if failures else "passed"))
        return 1 if failures else 0
    if args.compare:
        if len(args.compare) > 2:
            parser.error("--compare takes one or two ledgers")
        ledgers = [json.loads(pathlib.Path(p).read_text(encoding="utf-8")) for p in args.compare]
        if len(ledgers) == 1:
            old, new = ledgers[0]["baseline"]["measured"], ledgers[0]["measured"]
        else:
            old, new = ledgers[0]["measured"], ledgers[1]["measured"]
        return 1 if compare(old, new) else 0

    from benchmarks.conftest import bench_metadata

    trees = [ROOT] + ([pathlib.Path(args.baseline_tree).resolve()] if args.baseline_tree else [])
    measured = measure(trees, args.runs)
    ledger = {
        "provenance": bench_metadata(),
        "settings": {"seed": SEED, "runs": args.runs},
        "measured": measured[0],
    }
    if args.baseline_tree:
        ledger["baseline"] = {"git_rev": _tree_rev(trees[1]), "measured": measured[1]}
    out = pathlib.Path(args.out)
    previous = [p for p in committed_ledgers() if p.resolve() != out.resolve()]
    before = _load(previous[-1])["measured"] if previous else {}
    ledger["declared_moves"] = []
    for item in args.declare:
        workload, name = item.split(":", 1)
        ledger["declared_moves"].append(
            {
                "workload": workload,
                "count": name,
                "from": before.get(workload, {}).get("counts", {}).get(name),
                "to": measured[0][workload]["counts"][name],
                "reason": args.reason,
            }
        )
    out.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"ledger written to {out}", file=sys.stderr)
    if args.baseline_tree:
        compare(measured[1], measured[0])
    if previous:
        for problem in undeclared_moves(_load(previous[-1]), ledger):
            print(f"ledger: {problem}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
