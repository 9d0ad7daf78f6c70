"""The performance ledger (``scripts/ledger.py``) is the source of CI's
counter pins.

CI's figure-counter gate (``.github/workflows/ci.yml``) runs
``scripts/ledger.py --gate``, which reads the pins from the newest committed
``BENCH_*.json``: its ``counts`` section must hold exactly the keys the gate
pins for each workload, every count it moved against the ledger before it
must be declared, and the gate must fail on a count that differs from the
pin (the share of bit-kernel elements handed back is pinned exactly too),
on an incorrect figure and on an undeclared move.  ``--compare`` must
flag a moved count.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import pathlib
import shutil

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_ledger():
    spec = importlib.util.spec_from_file_location("ledger", ROOT / "scripts" / "ledger.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ledger = _load_ledger()

LEDGERS = ledger.committed_ledgers()
needs_ledger = pytest.mark.skipif(not LEDGERS, reason="no committed ledger")


def _read(path: pathlib.Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def test_ci_gate_reads_the_ledger():
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    step = text[text.index("- name: Figure-benchmark counter gate") :]
    step = step[: step.index("- name:", 1)]
    assert 'python3 scripts/ledger.py --gate "$RUNNER_TEMP"' in step
    assert "expected = {" not in step  # no inline pins


@needs_ledger
def test_ledger_counts_are_the_ci_pins():
    """The newest ledger pins every count the gate checks, measured on a
    correct figure."""
    measured = _read(LEDGERS[-1])["measured"]
    for workload in ledger.WORKLOAD_NAMES:
        assert sorted(measured[workload]["counts"]) == sorted(ledger.pinned_keys(workload))
        assert measured[workload]["correct"] and measured[workload]["failed"] == 0


@pytest.mark.skipif(len(LEDGERS) < 2, reason="fewer than two committed ledgers")
def test_newest_ledger_holds_the_pinned_values():
    """The newest ledger keeps the previous ledger's pins except the moves
    it declares."""
    assert ledger.undeclared_moves(_read(LEDGERS[-2]), _read(LEDGERS[-1])) == []


def _results(directory: pathlib.Path, newest: dict) -> pathlib.Path:
    """Correct figbench results holding ``newest``'s pinned counts."""
    directory.mkdir(exist_ok=True)
    for workload in ledger.WORKLOAD_NAMES:
        counts = newest["measured"][workload]["counts"]
        metrics = {name: {"value": value, "unit": "count"} for name, value in counts.items()}
        result = {"correct": True, "failed": 0, "metrics": metrics}
        (directory / f"{workload}.json").write_text(json.dumps(result), encoding="utf-8")
    return directory


def _edit(path: pathlib.Path, change) -> None:
    result = _read(path)
    change(result)
    path.write_text(json.dumps(result), encoding="utf-8")


@needs_ledger
def test_gate_passes_on_the_pinned_counts(tmp_path):
    results = _results(tmp_path / "results", _read(LEDGERS[-1]))
    assert ledger.gate(results) == []
    assert ledger.main(["--gate", str(results)]) == 0


@needs_ledger
def test_gate_fails_on_a_count_off_its_pin(tmp_path):
    """An integer count and the exactly pinned share of bit-kernel
    elements handed back."""
    newest = _read(LEDGERS[-1])
    for workload, name, off in (
        ("fig1_seq", "core.restarts", lambda pinned: 0),
        ("graphs_large", "arithmetic.lut_fallback_ratio", lambda pinned: pinned + 2.0**-30),
    ):
        pinned = newest["measured"][workload]["counts"][name]
        wrong = off(pinned)
        results = _results(tmp_path / workload, newest)
        _edit(results / f"{workload}.json", lambda r: r["metrics"][name].update(value=wrong))
        assert ledger.gate(results) == [f"{workload} {name}: {wrong}, pinned {pinned}"]
        assert ledger.main(["--gate", str(results)]) == 1


@needs_ledger
def test_gate_fails_on_an_incorrect_figure(tmp_path):
    results = _results(tmp_path / "results", _read(LEDGERS[-1]))
    _edit(results / "graphs_large.json", lambda r: r.update(correct=False))
    assert ledger.gate(results) == ["graphs_large: the figure does not reproduce its reference"]


@needs_ledger
def test_gate_fails_on_an_undeclared_move(tmp_path):
    """A deliberately wrong ledger: one count moved against the previous
    ledger with no declaration, and one declaration that does not match."""
    root = tmp_path / "ledgers"
    root.mkdir()
    previous = _read(LEDGERS[-1])
    shutil.copy(LEDGERS[-1], root / "BENCH_1000.json")
    wrong = copy.deepcopy(previous)
    wrong["measured"]["fig1_seq"]["counts"]["core.matvecs"] += 1
    wrong["declared_moves"] = [
        {"workload": "graphs_large", "count": "core.restarts", "from": 1, "to": 2, "reason": "x"}
    ]
    (root / "BENCH_1001.json").write_text(json.dumps(wrong), encoding="utf-8")
    matvecs = previous["measured"]["fig1_seq"]["counts"]["core.matvecs"]
    results = _results(tmp_path / "results", wrong)
    assert ledger.gate(results, root) == [
        "BENCH_1001.json: graphs_large core.restarts: declared 1 -> 2, ledgers read no move",
        f"BENCH_1001.json: fig1_seq core.matvecs: moved {matvecs} -> {matvecs + 1} "
        "without a declaration",
    ]
    wrong["declared_moves"] = [
        {"workload": "fig1_seq", "count": "core.matvecs", "from": matvecs, "to": matvecs + 1,
         "reason": "x"}
    ]  # fmt: skip
    (root / "BENCH_1001.json").write_text(json.dumps(wrong), encoding="utf-8")
    assert ledger.gate(results, root) == []


def _entry(figure_s: float, counts: dict) -> dict:
    return {
        "figure_s": figure_s, "warm_s": 0.01, "peak_rss_mb": 70.0,
        "layers_s": {"linalg.ql_s": figure_s / 2}, "counts": counts,
    }  # fmt: skip


def test_compare_counts_moved_pins(capsys):
    old = {"fig1_seq": _entry(3.0, {"core.restarts": 90, "core.matvecs": 1673})}
    same = {"fig1_seq": _entry(2.4, {"core.restarts": 90, "core.matvecs": 1673})}
    moved = {"fig1_seq": _entry(2.4, {"core.restarts": 91, "core.matvecs": 1673})}
    assert ledger.compare(old, same) == 0
    assert ledger.compare(old, moved) == 1
    out = capsys.readouterr().out
    assert "-20.0%" in out and "MOVED core.restarts: 90 -> 91" in out
