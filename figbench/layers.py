"""Which program entry points are traced, and the per-layer metrics.

Layers are the program's modules: ``datasets``, ``arithmetic`` (rounding
backends, contexts, ``batched``), ``core`` (Krylov-Schur, Arnoldi,
lockstep), ``linalg`` (QL, tridiagonalisation, lockstep QL), ``sparse``
(spmv) and ``experiments`` (runner, store, matching, figures).  ``serve``
and ``utils.parallel`` are not measured: the service is frozen and a
``workers=1`` run never starts a pool.

Each metric in :data:`PER_LAYER` names the end-to-end metric it should move
and the workloads where it shows; ``BENCHMARK.json`` lists the same names.
"""

from __future__ import annotations

import re

from repro.arithmetic.registry import PAPER_FORMATS as _BY_WIDTH

from .tracing import BUCKET_NAMES, SpanSet, Tracer, fixed, size_bucket

#: the 14 formats of the paper's figures, in figure order (8/16/32/64 bits)
PAPER_FORMATS = tuple(name for width in (8, 16, 32, 64) for name in _BY_WIDTH[width])


def _rounding_array(tracer: Tracer):
    ids: dict = {}

    def classify(args, kwargs):
        fmt = args[0]
        values = args[1] if len(args) > 1 else kwargs["values"]
        n = getattr(values, "size", None)
        if n is None:
            n = len(values) if hasattr(values, "__len__") else 1
        key = (fmt.name, size_bucket(n))
        found = ids.get(key)
        if found is None:
            found = ids[key] = (
                tracer.name_id("arithmetic.round." + key[1]),
                tracer.label_id(fmt.name),
            )
        return found

    return classify


def _rounding_scalar(tracer: Tracer):
    nid = tracer.name_id("arithmetic.round.n1")
    ids: dict = {}

    def classify(args, kwargs):
        name = args[0].name
        found = ids.get(name)
        if found is None:
            found = ids[name] = (nid, tracer.label_id(name))
        return found

    return classify


def _solve(tracer: Tracer):
    nid = tracer.name_id("core.solve")

    def classify(args, kwargs):
        ctx = kwargs.get("ctx")
        return nid, tracer.label_id(str(getattr(ctx, "name", ctx)))

    return classify


#: ``(module[:class], attribute, classifier factory)``; each attribute is
#: patched where the program looks it up (the runner's own ``partialschur``
#: and ``match_eigenpairs`` imports, module globals called inside a module)
TARGETS = (
    ("repro.datasets", "get_suite", fixed("datasets.suite")),
    ("repro.arithmetic.registry", "preload_tables", fixed("arithmetic.preload")),
    ("repro.arithmetic.base:NumberFormat", "round_array", _rounding_array),
    ("repro.arithmetic.context:EmulatedContext", "round_scalar", _rounding_scalar),
    ("repro.arithmetic.batched:BatchedContext", "round", fixed("arithmetic.batched_round")),
    ("repro.experiments.runner", "partialschur", _solve),
    ("repro.core.krylov_schur", "arnoldi_expand", fixed("core.arnoldi")),
    ("repro.core.lockstep", "batched_partialschur", fixed("core.lockstep")),
    ("repro.linalg.tridiagonal", "tridiagonalize", fixed("linalg.tridiagonalize")),
    ("repro.linalg.tridiagonal", "tridiagonal_eigen", fixed("linalg.ql")),
    ("repro.linalg.lockstep", "lockstep_tridiagonalize", fixed("linalg.lockstep_tridiagonalize")),
    ("repro.linalg.lockstep", "lockstep_tridiagonal_eigen", fixed("linalg.lockstep_ql")),
    ("repro.arithmetic.context:ComputeContext", "spmv", fixed("sparse.spmv")),
    ("repro.arithmetic.batched:BatchedContext", "spmv", fixed("sparse.spmv")),
    ("repro.experiments.store", "plan_experiment", fixed("experiments.plan")),
    ("repro.experiments.store:ResultStore", "get", fixed("experiments.store_get")),
    ("repro.experiments.store:ResultStore", "put", fixed("experiments.store_put")),
    ("repro.experiments.runner", "match_eigenpairs", fixed("experiments.match")),
    ("repro.experiments", "figure_json", fixed("experiments.figure_json")),
)

#: ``(metric, span name, kind)``: self seconds or call count of one span
#: name, summed over the cold pass and the warm replay of a traced cycle
_SPAN_METRICS = (
    ("linalg.ql_s", "linalg.ql", "s"),
    ("linalg.ql_calls", "linalg.ql", "calls"),
    ("linalg.tridiagonalize_s", "linalg.tridiagonalize", "s"),
    ("linalg.lockstep_ql_s", "linalg.lockstep_ql", "s"),
    ("linalg.lockstep_tridiagonalize_s", "linalg.lockstep_tridiagonalize", "s"),
    ("arithmetic.batched_round_s", "arithmetic.batched_round", "s"),
    ("arithmetic.batched_round_calls", "arithmetic.batched_round", "calls"),
    ("core.lockstep_self_s", "core.lockstep", "s"),
    ("core.arnoldi_s", "core.arnoldi", "s"),
    ("core.solve_self_s", "core.solve", "s"),
    ("sparse.spmv_s", "sparse.spmv", "s"),
    ("sparse.spmv_calls", "sparse.spmv", "calls"),
    ("experiments.plan_s", "experiments.plan", "s"),
    ("experiments.store_get_s", "experiments.store_get", "s"),
    ("experiments.store_gets", "experiments.store_get", "calls"),
    ("experiments.figure_json_s", "experiments.figure_json", "s"),
    ("experiments.store_put_s", "experiments.store_put", "s"),
    ("experiments.store_puts", "experiments.store_put", "calls"),
    ("experiments.match_s", "experiments.match", "s"),
) + tuple(
    (f"arithmetic.round_{kind}.{bucket}", f"arithmetic.round.{bucket}", kind)
    for bucket in BUCKET_NAMES
    for kind in ("calls", "s")
)

_FIG1 = "fig1_seq, fig1_batched"
_ALL = "all workloads"

#: ``(metric, unit, better, end-to-end metric it should move, where it shows)``
PER_LAYER = (
    ("linalg.ql_s", "s", "lower", "figure_s", "fig1_seq and graphs_large; on fig1_batched only reference solves and row fallbacks"),
    ("linalg.tridiagonalize_s", "s", "lower", "figure_s", "fig1_seq and graphs_large"),
    ("linalg.ql_calls", "count", "lower", "figure_s", "fig1_seq and graphs_large"),
    ("linalg.lockstep_ql_s", "s", "lower", "figure_s", "fig1_batched only"),
    ("linalg.lockstep_tridiagonalize_s", "s", "lower", "figure_s", "fig1_batched only"),
    ("arithmetic.batched_round_s", "s", "lower", "figure_s", "fig1_batched only"),
    ("arithmetic.batched_round_calls", "count", "lower", "figure_s", "fig1_batched only"),
    ("core.lockstep_self_s", "s", "lower", "figure_s", "fig1_batched only"),
) + tuple(
    (f"arithmetic.round_{kind}.{bucket}", unit, "lower", "figure_s",
     "mostly graphs_large (20x the calls of fig1)" if bucket == "gt1024" else _FIG1 if bucket in ("n1", "le64") else _ALL)
    for bucket in BUCKET_NAMES
    for kind, unit in (("calls", "count"), ("s", "s"))
) + tuple(
    (f"arithmetic.dispatch.{path}", "count", "lower", "figure_s",
     _ALL + "; rounding-dispatch changes move these, not the op counts")
    for path in ("table", "bitkernel", "scalar_kernel", "analytic")
) + (
    ("arithmetic.lut_fallback_ratio", "ratio", "lower", "figure_s", _ALL),
    ("core.arnoldi_s", "s", "lower", "figure_s", "graphs_large vs fig1"),
    ("core.solve_self_s", "s", "lower", "figure_s", "graphs_large vs fig1"),
    ("sparse.spmv_s", "s", "lower", "figure_s", "graphs_large vs fig1"),
    ("sparse.spmv_calls", "count", "lower", "figure_s", "graphs_large vs fig1"),
    ("experiments.reference_s", "s", "lower", "figure_s", "graphs_large (about 16% of the pass) vs fig1 (about 4%)"),
    ("experiments.plan_s", "s", "lower", "warm_s", _ALL + "; solver layers do not move it"),
    ("experiments.store_get_s", "s", "lower", "warm_s", _ALL),
    ("experiments.store_gets", "count", "lower", "warm_s", _ALL),
    ("experiments.store_hit_ratio", "ratio", "higher", "warm_s", _ALL + "; 1.0 on the warm replay"),
    ("experiments.figure_json_s", "s", "lower", "warm_s", _ALL),
    ("experiments.store_put_s", "s", "lower", "figure_s", _ALL + "; cold pass only"),
    ("experiments.store_puts", "count", "lower", "figure_s", _ALL + "; cold pass only"),
    ("experiments.match_s", "s", "lower", "figure_s", _ALL + "; cold pass only"),
    ("datasets.suite_s", "s", "lower", "setup_s", _ALL),
    ("arithmetic.preload_s", "s", "lower", "setup_s", _ALL + "; deleting the table engine shows here"),
    ("arithmetic.rounded_ops", "count", "lower", "none", "deterministic; equal on fig1_seq and fig1_batched"),
) + tuple(
    (f"arithmetic.rounded_ops.{fmt}", "count", "lower", "none", "deterministic per format")
    for fmt in PAPER_FORMATS
) + (
    ("core.restarts", "count", "lower", "none", "deterministic"),
    ("core.matvecs", "count", "lower", "none", "deterministic"),
    ("bench.traced_figure_s", "s", "lower", "none", "traced cold pass; layer self times add up to it with traced_warm_s"),
    ("bench.traced_warm_s", "s", "lower", "none", "traced warm replay"),
    ("bench.unattributed_s", "s", "lower", "none", "time in no layer span (benchmark glue, unwrapped program code)"),
    ("bench.trace_overhead_frac", "ratio", "lower", "none", "traced vs untraced cold pass"),
    ("bench.host_speed", "ratio", "higher", "none", "calibration rate over the traced cycles; every time metric is scaled by it"),
    ("bench.cells_failed_frac", "ratio", "lower", "none", "failed or mismatching cells / cells attempted"),
)  # fmt: skip

PER_LAYER_NAMES = tuple(row[0] for row in PER_LAYER)

_KEY = re.compile(r"^([^{]+)(?:\{(.*)\})?$")


def counter_sum(counters: dict, name: str, **labels) -> int:
    """Sum of the flat telemetry counters called ``name`` whose labels
    include ``labels`` (keys as rendered by the metrics registry)."""
    total = 0
    for key, value in counters.items():
        match = _KEY.match(key)
        if match is None or match.group(1) != name:
            continue
        have = dict(kv.split("=", 1) for kv in match.group(2).split(",")) if match.group(2) else {}
        if all(have.get(k) == str(v) for k, v in labels.items()):
            total += value
    return total


def cycle_metrics(cold: SpanSet, warm: SpanSet, cold_counters: dict, warm_counters: dict, records) -> dict:
    """Per-layer metrics of one traced cycle (cold pass + warm replay)."""
    totals: dict = {}
    for spans in (cold, warm):
        for name, (seconds, calls) in spans.totals().items():
            have = totals.get(name, (0.0, 0))
            totals[name] = (have[0] + seconds, have[1] + calls)
    out = {}
    for metric, span, kind in _SPAN_METRICS:
        seconds, calls = totals.get(span, (0.0, 0))
        out[metric] = seconds if kind == "s" else calls
    for path in ("table", "bitkernel", "scalar_kernel", "analytic"):
        out[f"arithmetic.dispatch.{path}"] = counter_sum(cold_counters, "rounding.dispatch", path=path)
    elements = counter_sum(cold_counters, "bitkernel.elements")
    fallback = counter_sum(cold_counters, "bitkernel.lut_fallback")
    out["arithmetic.lut_fallback_ratio"] = fallback / elements if elements else 0.0
    out["experiments.reference_s"] = cold.inclusive("core.solve", "reference")
    hits = counter_sum(warm_counters, "store.get.hit")
    gets = hits + counter_sum(warm_counters, "store.get.miss")
    out["experiments.store_hit_ratio"] = hits / gets if gets else 0.0
    per_format = {fmt: counter_sum(cold_counters, "ops.rounded", format=fmt) for fmt in PAPER_FORMATS}
    out["arithmetic.rounded_ops"] = sum(per_format.values())
    for fmt, ops in per_format.items():
        out[f"arithmetic.rounded_ops.{fmt}"] = ops
    out["core.restarts"] = sum(r.restarts for r in records)
    out["core.matvecs"] = sum(r.matvecs for r in records)
    out["bench.traced_figure_s"] = float(cold.duration[0])
    out["bench.traced_warm_s"] = float(warm.duration[0])
    out["bench.unattributed_s"] = float(cold.self_time()[0] + warm.self_time()[0])
    return out
