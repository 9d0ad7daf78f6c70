"""The performance ledger (``scripts/ledger.py``) and CI's counter gate
agree on what is pinned.

The ledger's ``counts`` section must hold exactly the keys the
figure-counter gate of ``.github/workflows/ci.yml`` pins for each workload,
and the newest committed ``BENCH_*.json`` must hold the pinned values, so
the ledger can become the one home of the pins.  ``--compare`` must flag a
moved count.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_ledger():
    spec = importlib.util.spec_from_file_location("ledger", ROOT / "scripts" / "ledger.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ledger = _load_ledger()


def _ci_pins() -> dict:
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    block = re.search(r"expected = (\{.*?\n\s*\})\n", text, re.S).group(1)
    return ast.literal_eval(block)


def test_ledger_counts_are_the_ci_pins():
    pins = _ci_pins()
    assert set(pins) == set(ledger.WORKLOAD_NAMES)
    for workload, counts in pins.items():
        assert sorted(ledger.pinned_keys(workload)) == sorted(counts)


def test_newest_ledger_holds_the_pinned_values():
    ledgers = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(re.sub(r"\D", "", p.name)))
    if not ledgers:
        pytest.skip("no committed ledger")
    measured = json.loads(ledgers[-1].read_text(encoding="utf-8"))["measured"]
    for workload, counts in _ci_pins().items():
        assert measured[workload]["counts"] == counts
        assert measured[workload]["correct"] and measured[workload]["failed"] == 0


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
