"""Tests of the benchmark's own logic: span self times, histogram buckets,
correctness checks, metric bookkeeping and result-set statistics."""

import itertools
import json
import re
import time
import types

import numpy as np
import pytest

from figbench import checks, hostspeed, layers, stats, tracing
from figbench.tracing import SpanSet, Tracer
from figbench.workloads import WORKLOADS
from repro.experiments import RunRecord


def _spans(rows, names):
    """SpanSet from ``(name, parent, start, end)`` rows (no labels)."""
    return SpanSet(
        names=list(names),
        labels=[],
        name=np.array([names.index(r[0]) for r in rows]),
        label=np.full(len(rows), -1),
        parent=np.array([r[1] for r in rows]),
        start=np.array([r[2] for r in rows], dtype=float),
        end=np.array([r[3] for r in rows], dtype=float),
    )


def test_self_time_of_nested_spans():
    names = ["root", "a", "b", "c"]
    spans = _spans(
        [("root", -1, 0, 10), ("a", 0, 1, 5), ("b", 1, 2, 3), ("b", 1, 3.5, 4), ("c", 0, 6, 9)],
        names,
    )
    assert spans.self_time().tolist() == [3.0, 2.5, 1.0, 0.5, 3.0]
    assert spans.totals() == {"root": (3.0, 1), "a": (2.5, 1), "b": (1.5, 2), "c": (3.0, 1)}
    assert spans.self_time().sum() == spans.duration[0]
    assert spans.inclusive("a") == 4.0
    assert spans.inclusive("missing") == 0.0


def test_tracer_wraps_where_names_are_looked_up_and_restores():
    toy = types.ModuleType("toy")

    def inner(x):
        return x + 1

    def outer(x):
        return toy.inner(x) + toy.inner(x)

    toy.inner, toy.outer = inner, outer
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.patch(toy, "inner", tracing.fixed("inner"))
    tracer.patch(toy, "outer", tracing.fixed("outer"))
    with tracer.root("root") as closed:
        assert toy.outer(1) == 4
    tracer.uninstall()
    assert toy.inner is inner and toy.outer is outer
    spans = closed[0]
    assert [spans.names[i] for i in spans.name] == ["root", "outer", "inner", "inner"]
    assert spans.parent.tolist() == [-1, 0, 1, 1]
    assert spans.self_time().sum() == spans.duration[0]


def test_tracer_refuses_inherited_attributes():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    with pytest.raises(AttributeError):
        Tracer().patch(Child, "f", tracing.fixed("f"))


@pytest.mark.parametrize(
    "n, bucket",
    [(0, "n1"), (1, "n1"), (2, "le8"), (8, "le8"), (9, "le64"), (64, "le64"),
     (65, "le1024"), (1024, "le1024"), (1025, "gt1024")],
)  # fmt: skip
def test_size_bucket_edges(n, bucket):
    assert tracing.size_bucket(n) == bucket


def test_rounding_histogram_by_format_and_bucket():
    tracer = Tracer(clock=lambda: 0.0)
    classify = layers._rounding_array(tracer)
    fmt = types.SimpleNamespace(name="posit16")
    ids = [classify((fmt, np.zeros(n)), {}) for n in (1, 48, 48, 2000)]
    assert tracer.names[ids[1][0]] == "arithmetic.round.le64"
    names = tracer.names + ["root"]
    rows = [("root", -1, 0, 10)] + [(tracer.names[nid], 0, i, i + 1) for i, (nid, _) in enumerate(ids)]
    spans = _spans(rows, names)
    spans.labels = tracer.labels
    spans.label = np.array([-1] + [lid for _, lid in ids])
    hist = spans.histogram("arithmetic.round.")
    assert hist == {
        ("posit16", "n1"): (1, 1.0),
        ("posit16", "le64"): (2, 2.0),
        ("posit16", "gt1024"): (1, 1.0),
    }


def _record(fmt, **fields):
    return RunRecord(
        matrix="general/m_0000", group="general", category="m", format=fmt, status="ok",
        restarts=2, matvecs=20, rounded_ops=1000, eigenvalue_relative_error=1e-3, **fields,
    )  # fmt: skip


def test_perturbed_reference_cell_counts_as_failed():
    records = [_record("posit16"), _record("takum16"), _record("float16")]
    observed = checks.digests(records)
    reference = json.loads(json.dumps(observed))
    assert checks.failed_cells(observed, reference) == []
    reference["general/m_0000|takum16"][1] += 1  # restarts
    assert checks.failed_cells(observed, reference) == ["general/m_0000|takum16"]


def test_error_digest_and_crashed_cells():
    base = checks.digests([_record("posit16")])
    moved = checks.digests([_record("posit16", eigenvector_relative_error=2e-3)])
    assert base != moved
    crashed = {"general/m_0000|posit16": ["failed", 0, 0, 0, "x"]}
    assert checks.failed_cells(crashed, crashed) == ["general/m_0000|posit16"]
    assert checks.failed_cells(base, {}) == ["general/m_0000|posit16"]


def test_warm_replay_must_be_byte_identical():
    cold = [_record("posit16"), _record("takum16")]
    assert checks.warm_mismatches(cold, [_record("posit16"), _record("takum16")]) == []
    warm = [_record("posit16"), _record("takum16", solve_seconds=1.0)]
    assert checks.warm_mismatches(cold, warm) == ["general/m_0000|takum16"]
    assert len(checks.warm_mismatches(cold, cold[:1])) == 2


def test_layer_self_times_add_up_to_the_traced_passes():
    names = ["bench.cold", "bench.warm", "core.solve", "linalg.ql", "arithmetic.round.n1",
             "experiments.plan", "experiments.store_get"]  # fmt: skip
    cold = _spans(
        [("bench.cold", -1, 0, 10), ("experiments.plan", 0, 0.5, 1), ("experiments.store_get", 1, 0.6, 0.7),
         ("core.solve", 0, 1, 9), ("linalg.ql", 3, 2, 6), ("arithmetic.round.n1", 4, 3, 3.25)],
        names,
    )  # fmt: skip
    warm = _spans(
        [("bench.warm", -1, 20, 21), ("experiments.plan", 0, 20, 20.5), ("experiments.store_get", 1, 20.1, 20.2)],
        names,
    )  # fmt: skip
    counters = {"store.get.hit{kind=run}": 3, "store.get.miss": 1}
    out = layers.cycle_metrics(cold, warm, {}, counters, [])
    timed = sum(out[m] for m, _, kind in layers._SPAN_METRICS if kind == "s")
    assert timed + out["bench.unattributed_s"] == pytest.approx(
        out["bench.traced_figure_s"] + out["bench.traced_warm_s"]
    )
    assert out["bench.unattributed_s"] == pytest.approx(1.5 + 0.5)
    assert out["linalg.ql_s"] == 3.75 and out["linalg.ql_calls"] == 1
    assert out["experiments.store_gets"] == 2
    assert out["experiments.store_hit_ratio"] == 0.75
    assert cold.nesting_errors() == warm.nesting_errors() == 0


def test_nesting_errors_catch_open_stray_and_overlapping_spans():
    names = ["root", "a", "b"]
    rows = [("root", -1, 0, 10), ("a", 0, 1, 5), ("b", 1, 2, 3), ("b", 1, 3, 4), ("a", 0, 6, 9)]
    assert _spans(rows, names).nesting_errors() == 0
    overlapping = rows[:3] + [("b", 1, 2.5, 4)] + rows[4:]
    assert _spans(overlapping, names).nesting_errors() == 1
    stray = rows[:4] + [("a", 0, 6, 11)]
    assert _spans(stray, names).nesting_errors() == 1
    still_open = rows[:4] + [("a", 0, 6, float("nan"))]
    assert _spans(still_open, names).nesting_errors() == 1


def test_tracer_leaves_no_open_span_after_an_exception():
    toy = types.ModuleType("toy")

    def boom():
        raise ValueError("boom")

    toy.boom = boom
    tracer = Tracer()
    tracer.patch(toy, "boom", tracing.fixed("boom"))
    with pytest.raises(ValueError), tracer.root("root") as closed:
        toy.boom()
    tracer.uninstall()
    assert closed[0].nesting_errors() == 0 and len(closed[0].name) == 2


@pytest.mark.parametrize("key", sorted({w.reference for w in WORKLOADS.values()}))
def test_every_reference_has_distinct_converged_cells(key):
    """A reference whose cells all fail to converge checks no eigenpair."""
    cells = checks.load_reference(0, key)
    assert cells, f"no seed-0 reference for {key}"
    ok = [digest for digest in cells.values() if digest[0] == "ok"]
    assert len(ok) >= 2 and len({digest[4] for digest in ok}) == len(ok)
    assert any(digest[1] > 0 for digest in cells.values()), "no cell restarts"


def test_host_speed_scales_by_the_mean_rate_inside_the_interval():
    sampler = hostspeed.SpeedSampler()
    ref = hostspeed.REFERENCE_RATE
    sampler.samples = [(0.0, ref), (1.0, ref / 2), (2.0, ref / 2), (3.0, ref)]
    assert sampler.factor(0.5, 2.5) == 0.5
    assert sampler.scaled(0.5, 2.5) == 1.0
    assert sampler.factor(0.0, 3.0) == 0.75
    assert sampler.factor(2.9, 2.95) == 1.0  # nearest loop
    with pytest.raises(RuntimeError):
        hostspeed.SpeedSampler().factor(0.0, 1.0)


def test_speed_sampler_thread_samples_and_stops():
    with hostspeed.SpeedSampler() as sampler:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert len(sampler.samples) >= 2 and not sampler._thread.is_alive()
    assert all(rate > 0 for _, rate in sampler.samples)


def test_counter_sum_matches_labels():
    counters = {
        "rounding.dispatch{format=posit16,path=bitkernel}": 5,
        "rounding.dispatch{format=E4M3,path=table}": 2,
        "rounding.dispatch{format=takum16,path=bitkernel}": 1,
        "rounding.elements{format=posit16,path=bitkernel}": 99,
    }
    assert layers.counter_sum(counters, "rounding.dispatch", path="bitkernel") == 6
    assert layers.counter_sum(counters, "rounding.dispatch") == 8
    assert layers.counter_sum(counters, "rounding.dispatch", path="analytic") == 0


def test_benchmark_json_lists_the_emitted_metrics():
    bench = stats.load_benchmark()
    assert [m["name"] for m in bench["per_layer"]] == list(layers.PER_LAYER_NAMES)
    assert all(
        (m["unit"], m["better"]) == (unit, better)
        for m, (_, unit, better, *_) in zip(bench["per_layer"], layers.PER_LAYER)
    )
    assert {"figure_s", "warm_s", "setup_s", "peak_rss_mb"} == {m["name"] for m in bench["end_to_end"]}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    for metric in bench["end_to_end"]:
        assert name.match(metric["name"]) and 0 < metric["bound"] <= 0.25
    for metric in bench["per_layer"]:
        assert name.match(metric["name"]) and metric["better"] in ("lower", "higher")
    assert len(set(layers.PER_LAYER_NAMES)) == len(layers.PER_LAYER_NAMES)


def test_spread_and_compare_verdicts():
    assert stats.quartiles([1, 2, 3, 4, 5]) == (1.5, 3, 4.5)
    assert stats.spread([1, 2, 3, 4, 5]) == 1.0
    assert stats.parse_seeds("0-2,7") == [0, 1, 2, 7]
    bench = {"end_to_end": [{"name": "figure_s", "unit": "s", "better": "lower", "bound": 0.1}]}

    def runs(values):
        return {"w": [{"metrics": {"figure_s": {"value": v}}} for v in values]}

    steady = runs([10.0, 10.1, 9.9, 10.0, 10.05])
    assert stats.compare_report(steady, steady, bench)[1].endswith("within bound")
    slower = runs([12.0, 12.1, 11.9, 12.0, 12.05])
    assert stats.compare_report(steady, slower, bench)[1].endswith("regressed")
    faster = runs([8.0, 8.1, 7.9, 8.0, 8.05])
    assert stats.compare_report(steady, faster, bench)[1].endswith("improved")
    noisy = runs([6.0, 14.0, 9.0, 11.0, 10.0])
    assert stats.compare_report(steady, noisy, bench)[1].endswith("unresolved")
