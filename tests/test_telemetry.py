"""Tests of the telemetry layer: metrics registry, trace spans, reports.

Covers the observability contract: thread-safe counters, span
nesting/exception unwinding, the worker shard-file merge (including shards
of crashed workers), the disabled mode emitting zero events at zero
allocation, JSONL round-trips tolerating torn lines, and the
``publish_op_count`` bridge from the compute contexts into the registry.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro import partialschur
from repro.arithmetic import BatchedContext, get_context
from repro.datasets import get_suite
from repro.linalg import tridiagonalize
from repro.linalg.lockstep import lockstep_symmetric_eigen
from repro.telemetry import (
    MetricsRegistry,
    TelemetryReport,
    metrics,
    render_trace_summary,
    set_enabled,
    summarize_trace,
    trace,
)
from repro.sparse import CSRMatrix
from repro.telemetry import core as telemetry_core
from repro.utils.parallel import parallel_map


@pytest.fixture
def telemetry_off():
    """Force-disable telemetry, restoring the previous state afterwards."""
    previous = set_enabled(False)
    yield
    set_enabled(previous)


@pytest.fixture
def telemetry_on(tmp_path):
    """Enable telemetry with a trace sink under ``tmp_path``.

    Restores the enabled flag, shuts the sink down (popping the exported
    ``REPRO_TRACE`` environment) and resets the global registry, so tests
    cannot leak state into each other.
    """
    previous = set_enabled(True)
    previous_env = os.environ.get("REPRO_TELEMETRY")
    os.environ["REPRO_TELEMETRY"] = "1"  # spawn-method workers read this
    path = tmp_path / "trace.jsonl"
    trace.configure(path)
    metrics.reset()
    yield str(path)
    trace.shutdown()
    metrics.reset()
    set_enabled(previous)
    if previous_env is None:
        os.environ.pop("REPRO_TELEMETRY", None)
    else:
        os.environ["REPRO_TELEMETRY"] = previous_env


# --------------------------------------------------------------------- #
# metrics registry
# --------------------------------------------------------------------- #


def test_counter_exact_under_threads(telemetry_on):
    """Concurrent increments must not lose updates (+= is not atomic)."""
    registry = MetricsRegistry()
    counter = registry.counter("race.test", worker="x")
    threads = 8
    per_thread = 5000

    def hammer():
        for _ in range(per_thread):
            counter.inc()

    pool = [threading.Thread(target=hammer) for _ in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    assert counter.value == threads * per_thread


def test_registry_keys_values_and_reset(telemetry_on):
    registry = MetricsRegistry()
    registry.counter("hits", kind="run").inc(3)
    registry.counter("hits", kind="reference").inc(2)
    registry.counter("plain").inc()
    registry.gauge("mem", unit="bytes").set(42)
    registry.histogram("lat").observe(0.5)
    registry.histogram("lat").observe(1.5)

    snap = registry.snapshot()
    # labels render sorted, Prometheus-style
    assert snap["counters"]["hits{kind=run}"] == 3
    assert snap["counters"]["plain"] == 1
    assert snap["gauges"]["mem{unit=bytes}"] == 42.0
    assert snap["histograms"]["lat"]["count"] == 2
    assert snap["histograms"]["lat"]["mean"] == pytest.approx(1.0)
    assert snap["histograms"]["lat"]["min"] == 0.5
    assert snap["histograms"]["lat"]["max"] == 1.5
    # point and prefix lookups
    assert registry.value("hits", kind="run") == 3
    assert registry.value("never-touched") == 0
    assert registry.sum_counters("hits") == 5
    # snapshot is JSON-able as-is
    json.dumps(snap)

    registry.reset()
    assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


def test_disabled_registry_is_noop(telemetry_off):
    registry = MetricsRegistry()
    registry.inc("hits")  # guarded on the module flag
    assert registry.value("hits") == 0


# --------------------------------------------------------------------- #
# trace spans
# --------------------------------------------------------------------- #


def test_disabled_span_is_shared_null_and_emits_nothing(tmp_path, telemetry_off):
    path = tmp_path / "trace.jsonl"
    trace.configure(path)
    try:
        s1 = trace.span("a")
        s2 = trace.span("b", fmt="bfloat16")
        assert s1 is s2  # one shared no-op object, no allocation
        with s1:
            with trace.span("nested"):
                pass
        assert list(trace.read_events(path)) == []
    finally:
        trace.shutdown()


def test_span_nesting_depth_and_self_time(telemetry_on):
    with trace.span("outer", fmt="bfloat16") as outer:
        with trace.span("inner"):
            pass
        outer.set(extra=7)
    events = {e["name"]: e for e in trace.read_events(telemetry_on)}
    assert set(events) == {"outer", "inner"}
    assert events["inner"]["depth"] == 1
    assert events["outer"]["depth"] == 0
    # the parent's self time excludes the child's inclusive time
    assert events["outer"]["self"] <= events["outer"]["dur"]
    assert events["outer"]["dur"] >= events["inner"]["dur"]
    assert events["outer"]["attrs"] == {"fmt": "bfloat16", "extra": 7}
    assert "error" not in events["outer"]


def test_span_exception_unwinding(telemetry_on):
    with pytest.raises(ValueError, match="boom"):
        with trace.span("outer"):
            with trace.span("inner"):
                raise ValueError("boom")
    events = list(trace.read_events(telemetry_on))
    # both spans are emitted (inner first: exit order) and flagged
    assert [e["name"] for e in events] == ["inner", "outer"]
    assert all(e["error"] for e in events)
    # the thread-local stack unwound completely: a new span starts at depth 0
    with trace.span("after"):
        pass
    after = [e for e in trace.read_events(telemetry_on) if e["name"] == "after"]
    assert after[0]["depth"] == 0
    assert "error" not in after[0]


def _span_task(item):
    """Module-level worker task: one span, crashing on request."""
    with trace.span("task.work", item=item):
        if item == "crash":
            raise RuntimeError("worker crash")
    return item


def test_worker_shards_merge_after_crash(telemetry_on):
    """Spans of parallel workers collate into the main file — crashed
    workers' flushed spans included (the store's crash-capture contract)."""
    outcomes = parallel_map(_span_task, ["a", "crash", "b"], workers=2)
    assert [o.ok for o in outcomes] == [True, False, True]
    assert "worker crash" in outcomes[1].error
    assert all(o.seconds >= 0.0 for o in outcomes)

    merged = trace.collate()
    assert merged >= 1  # at least one worker shard existed
    assert not any(
        name.startswith("trace.jsonl.w")
        for name in os.listdir(os.path.dirname(telemetry_on))
    )  # shards are consumed by the merge
    events = [e for e in trace.read_events(telemetry_on) if e["name"] == "task.work"]
    assert len(events) == 3  # the crashed task's span was flushed before dying
    assert {e["attrs"]["item"] for e in events} == {"a", "crash", "b"}
    crashed = [e for e in events if e["attrs"]["item"] == "crash"]
    assert crashed[0].get("error") is True
    assert all(e["pid"] != os.getpid() for e in events)  # all ran in workers
    # parent-side executor metrics recorded both outcomes
    assert metrics.value("parallel.tasks", status="ok") == 2
    assert metrics.value("parallel.tasks", status="failed") == 1


def _sorted_dumps_line(name, pid, t0, dur, self_time, depth, attrs, error) -> bytes:
    """A span event line as ``json.dumps(..., sort_keys=True)`` writes it."""
    event = {"ev": "span", "name": name, "pid": pid, "t0": t0, "dur": dur}
    event.update({"self": self_time, "depth": depth})
    if attrs:
        event["attrs"] = attrs
    if error:
        event["error"] = True
    return (json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n").encode()


@pytest.mark.parametrize(
    "attrs",
    [
        {},
        {"fmt": "posit16", "skipped": 2, "first_nonfinite": None},
        {"z": [1, {"b": 1, "a": 2}], "a": float("nan"), "b": float("inf"), "c": -float("inf")},
        {"t": True, "f": False, "x": np.float64(0.1), "s": "é\n\"", "big": 2**70, "neg": -0.0},
    ],
)
@pytest.mark.parametrize("error", [False, True])
def test_event_line_is_the_sorted_json_dump(attrs, error):
    """Each span line is byte for byte the sorted ``json.dumps`` line."""
    numbers = (round(1760000000.1234567, 6), round(1.5e-5, 9), 0.0)
    args = ("tridiagonal.reduce", 4321, *map(repr, numbers), 3)
    want = _sorted_dumps_line("tridiagonal.reduce", 4321, *numbers, 3, attrs, error)
    assert trace._event_line(*args, attrs, error) == want
    with pytest.raises(TypeError):  # what JSON cannot hold fails as json.dumps does
        trace._event_line(*args, {"bad": np.int64(3)}, error)


def test_emitted_line_is_the_sorted_json_dump(telemetry_on):
    trace.emit("serve.request", 1760000000.25, 0.125, error=True, path="/v1/cell", status=200)
    trace.emit("serve.request", 1760000001, 2)  # ints stay ints, as json.dumps writes them
    with open(telemetry_on, "rb") as handle:
        lines = handle.read().splitlines(keepends=True)
    pid = os.getpid()
    attrs = {"path": "/v1/cell", "status": 200}
    assert lines == [
        _sorted_dumps_line("serve.request", pid, 1760000000.25, 0.125, 0.125, 0, attrs, True),
        _sorted_dumps_line("serve.request", pid, 1760000001, 2, 2, 0, {}, False),
    ]


def test_span_line_survives_a_hard_exit(tmp_path, telemetry_on):
    """A completed span is in the file before its process dies without any
    clean-up (``os._exit``): each line is one ``os.write``."""
    code = (
        "import os\n"
        "from repro.telemetry import set_enabled, trace\n"
        "set_enabled(True)\n"
        "with trace.span('child.work', item=1):\n"
        "    pass\n"
        "os._exit(0)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
    assert trace.collate() == 1
    events = [e for e in trace.read_events(telemetry_on) if e["name"] == "child.work"]
    assert [e["attrs"] for e in events] == [{"item": 1}]


def test_read_events_tolerates_torn_lines(tmp_path):
    path = tmp_path / "torn.jsonl"
    good = {"ev": "span", "name": "ok", "t0": 1.0, "dur": 0.5, "depth": 0}
    path.write_text(
        json.dumps(good) + "\n"
        + "{not json\n"
        + "\n"
        + '"a bare string"\n'
        + json.dumps(good)[: len(json.dumps(good)) // 2]  # torn final line
    )
    events = list(trace.read_events(path))
    assert events == [good]


# --------------------------------------------------------------------- #
# summariser and report
# --------------------------------------------------------------------- #


def _write_trace(path, events):
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event) + "\n")


def test_summarize_trace_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    _write_trace(
        path,
        [
            {"ev": "span", "name": "solve", "pid": 1, "t0": 100.0, "dur": 2.0,
             "self": 1.5, "depth": 0, "attrs": {"fmt": "bfloat16", "ops": 10}},
            {"ev": "span", "name": "ql", "pid": 1, "t0": 100.2, "dur": 0.5,
             "self": 0.5, "depth": 1, "attrs": {"fmt": "bfloat16"}},
            {"ev": "span", "name": "solve", "pid": 2, "t0": 103.0, "dur": 1.0,
             "self": 1.0, "depth": 0, "error": True},
            {"ev": "other", "name": "ignored"},
        ],
    )
    summary = summarize_trace(path)
    assert summary["events"] == 3
    # observed window 100.0..104.0; top-level union [100,102] + [103,104]
    assert summary["wall_seconds"] == pytest.approx(4.0)
    assert summary["coverage"] == pytest.approx(3.0 / 4.0)
    assert summary["phases"]["solve"]["count"] == 2
    assert summary["phases"]["solve"]["ops"] == 10
    assert summary["phases"]["solve"]["errors"] == 1
    assert summary["phases"]["ql"]["total"] == pytest.approx(0.5)
    assert summary["formats"]["bfloat16"]["count"] == 2

    text = render_trace_summary(summary, title="t")
    assert "solve" in text and "bfloat16" in text
    assert "75.0%" in text  # the coverage line


def test_summarize_empty_trace(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    summary = summarize_trace(path)
    assert summary == {
        "events": 0,
        "wall_seconds": 0.0,
        "coverage": 0.0,
        "phases": {},
        "formats": {},
    }
    assert "0 spans" in render_trace_summary(summary)


def test_telemetry_report_to_dict():
    report = TelemetryReport(wall_seconds=1.5, cache_hit_ratio=0.25,
                             metrics={"counters": {}}, trace_file="t.jsonl")
    body = report.to_dict()
    assert body == {
        "wall_seconds": 1.5,
        "cache_hit_ratio": 0.25,
        "metrics": {"counters": {}},
        "trace_file": "t.jsonl",
    }
    json.dumps(body)


# --------------------------------------------------------------------- #
# compute-context bridge
# --------------------------------------------------------------------- #


def test_publish_op_count_flushes_delta(telemetry_on):
    ctx = get_context("bfloat16")
    ctx.publish_op_count()  # flush whatever earlier tests left pending
    metrics.reset()
    before = ctx.op_count
    a = ctx.wrap(np.ones(8, dtype=ctx.dtype))
    _ = a + a  # 8 rounded additions
    delta = ctx.publish_op_count()
    assert delta == ctx.op_count - before >= 8
    assert metrics.value("ops.rounded", format=ctx.name) == delta
    # re-publish without new work: counts survive, nothing double-counts
    assert ctx.publish_op_count() == 0
    assert metrics.value("ops.rounded", format=ctx.name) == delta


def test_publish_op_count_disabled_still_tracks_delta(telemetry_off):
    ctx = get_context("posit16")
    ctx.publish_op_count()
    before_ops = ctx.op_count
    a = ctx.wrap(np.ones(4, dtype=ctx.dtype))
    _ = a + a
    assert ctx.publish_op_count() == ctx.op_count - before_ops > 0
    assert metrics.value("ops.rounded", format=ctx.name) == 0  # registry untouched


def test_dispatch_counters_record_format_and_path(telemetry_on):
    metrics.reset()
    ctx = get_context("bfloat16")
    ctx.round(np.linspace(-2.0, 2.0, 64))
    assert metrics.sum_counters("rounding.dispatch") >= 1
    snapshot = metrics.snapshot()["counters"]
    assert any(
        key.startswith("rounding.dispatch{") and "format=bfloat16" in key
        for key in snapshot
    )


def test_ql_spans_report_rotations(telemetry_on):
    """Every lockstep batch row emits the sequential reduction and QL spans
    with its own format, and its QL span counts the Givens steps applied
    to the eigenvectors."""
    rng = np.random.default_rng(3)
    A = rng.standard_normal((12, 12))
    A = A + A.T
    formats = ["posit16", "bfloat16"]
    bctx = BatchedContext([get_context(f) for f in formats])
    lockstep_symmetric_eigen(bctx, np.stack([A, A]), bctx.all_rows)
    events = list(trace.read_events(telemetry_on))
    for name in ("tridiagonal.reduce", "tridiagonal.ql"):
        assert [e["attrs"]["fmt"] for e in events if e["name"] == name] == formats, name
    for attrs in (e["attrs"] for e in events if e["name"] == "tridiagonal.ql"):
        assert attrs["rotations"] > 0, attrs["fmt"]
        assert "waves" not in attrs, attrs["fmt"]
        assert attrs["restarts"] >= 0, attrs["fmt"]


def test_reduce_span_reports_skipped_and_first_nonfinite(telemetry_on):
    """The reduction's span says how many reflectors it skipped and after
    which step a value first went non-finite."""
    rng = np.random.default_rng(3)
    A = rng.standard_normal((8, 8))
    A = A + A.T
    B = A * 8000.0
    B[1:, 0] = B[0, 1:] = 0.0  # step 0 meets a zero subcolumn
    ctx = get_context("E5M2")
    with np.errstate(all="ignore"):
        tridiagonalize(ctx, ctx.asarray(A))
        tridiagonalize(ctx, ctx.asarray(B))
    first, second = [
        e["attrs"] for e in trace.read_events(telemetry_on) if e["name"] == "tridiagonal.reduce"
    ]
    assert first == {"fmt": "E5M2", "skipped": 0, "first_nonfinite": None}
    # the finite input overflows in the update of step 2; the reflectors of
    # the subcolumns it leaves non-finite are skipped as well
    assert second == {"fmt": "E5M2", "skipped": 3, "first_nonfinite": 2}


def test_arnoldi_spans_report_dgks_and_deflations(telemetry_on):
    """Each expansion of a traced solve is one ``arnoldi.expand`` span that
    says how many of its columns took the DGKS second pass and how many
    broke down into a deflation restart."""
    # three distinct eigenvalues: every column takes the second pass, and
    # the last one, with the basis complete, ends the solve as invariant
    diagonal = CSRMatrix.from_dense(np.diag([1.0, 1, 1, 2, 2, 3, 3, 3]))
    assert partialschur(diagonal, nev=2, maxdim=8, ctx="float64", seed=0).reason == "invariant"
    matrix = get_suite("general", count=1, size_range=(32, 32), seed=0)[0].matrix
    result = partialschur(matrix, nev=12, tol=1e-6, restarts=2, ctx="float16", seed=0)
    spans = [e["attrs"] for e in trace.read_events(telemetry_on) if e["name"] == "arnoldi.expand"]
    assert spans[0] == {"fmt": "float64", "start": 0, "target": 8, "dgks": 8, "deflations": 1}
    assert len(spans) == 1 + result.restarts + 1  # one per expansion
    for attrs in spans[1:]:
        assert attrs["fmt"] == "float16"
        assert 0 < attrs["dgks"] <= attrs["target"] - attrs["start"]
        assert attrs["deflations"] == 0


def test_enabled_flag_round_trip():
    previous = telemetry_core.ENABLED
    try:
        assert set_enabled(True) == previous
        assert telemetry_core.ENABLED is True
        assert set_enabled(False) is True
        assert telemetry_core.ENABLED is False
    finally:
        set_enabled(previous)
