"""The figure benchmark's trace targets must exist in the program.

``figbench/run.py --trace 1`` patches every entry of
``figbench.layers.TARGETS`` — module functions and class methods named by
dotted path — to build its per-layer breakdown.  A rename or deletion in
the program would only surface when the benchmark runs; installing and
uninstalling the targets here makes it fail the fast suite instead.
"""

import importlib

import numpy as np

from figbench import layers, tracing
from repro.arithmetic import get_context, set_bitkernels_enabled
from repro.linalg import tridiagonal
from tests._explicit_baseline import tridiagonal_eigen_explicit, tridiagonalize_explicit


def _owners():
    for path, attr, _ in layers.TARGETS:
        module_path, _, class_name = path.partition(":")
        owner = importlib.import_module(module_path)
        if class_name:
            owner = getattr(owner, class_name)
        yield owner, attr


def test_targets_install_and_uninstall():
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr in _owners()]
    tracer = tracing.Tracer()
    tracer.install(layers.TARGETS)
    try:
        for owner, attr, original in originals:
            assert vars(owner)[attr].__wrapped__ is original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, (owner, attr)


def test_rounding_goes_through_the_traced_class_methods():
    """Scalar and array rounding of an emulated context reach the patched
    ``EmulatedContext.round_scalar`` and ``NumberFormat.round_array``."""
    ctx = get_context("posit16")
    tracer = tracing.Tracer()
    tracer.install(layers.TARGETS)
    try:
        with tracer.root("root") as closed:
            ctx.add(0.1, 0.2)
            ctx.add(np.full(100, 0.1), np.full(100, 0.2))
    finally:
        tracer.uninstall()
    totals = closed[0].totals()
    assert totals["arithmetic.round.n1"][1] == 1
    assert totals["arithmetic.round.le1024"][1] == 1


def test_ql_makes_no_traced_scalar_rounding_call():
    """The QL iteration rounds in the compiled kernel, not through the
    patched ``EmulatedContext.round_scalar``: the traced ``n1`` calls of a
    posit32 solve are zero, and its op tally is the explicit spelling's,
    where every rounded op is one context call."""
    ctx = get_context("posit32")
    explicit_ctx = get_context("posit32")
    n = 12
    rng = np.random.default_rng(0)
    d = ctx.asarray(rng.standard_normal(n))
    e = ctx.asarray(rng.standard_normal(n - 1))
    tracer = tracing.Tracer()
    tracer.install(layers.TARGETS)
    try:
        with tracer.root("root") as closed:
            w, Z = tridiagonal.tridiagonal_eigen(ctx, d, e)
    finally:
        tracer.uninstall()
    totals = closed[0].totals()
    assert totals.get("arithmetic.round.n1", (0, 0))[1] == 0
    assert totals["linalg.ql"][1] == 1
    want_w, want_Z = tridiagonal_eigen_explicit(explicit_ctx, d, e)
    assert ctx.op_count == explicit_ctx.op_count > 0
    assert np.array_equal(w, want_w) and np.array_equal(Z, want_Z)


def test_tridiagonalize_makes_no_traced_rounding_call():
    """The Householder reduction rounds in the compiled kernel, not through
    the patched ``EmulatedContext.round_scalar`` or
    ``NumberFormat.round_array``: a posit16 reduction makes no traced
    rounding call, and its values and op tally are the explicit
    spelling's, where every rounded op is one context call.  (With the
    bit-kernel switch off, each pass goes to ``NumberFormat.round_array``
    by design, so the switch is on here.)"""
    ctx = get_context("posit16")
    explicit_ctx = get_context("posit16")
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((12, 12))
    A = ctx.asarray((raw + raw.T) / 2)
    previous = set_bitkernels_enabled(True)
    tracer = tracing.Tracer()
    tracer.install(layers.TARGETS)
    try:
        with tracer.root("root") as closed:
            got = tridiagonal.tridiagonalize(ctx, A)
    finally:
        tracer.uninstall()
        set_bitkernels_enabled(previous)
    totals = closed[0].totals()
    rounding = {key: calls for key, (_, calls) in totals.items() if key.startswith("arithmetic.round")}
    assert rounding == {}, rounding
    assert totals["linalg.tridiagonalize"][1] == 1
    want = tridiagonalize_explicit(explicit_ctx, A)
    assert ctx.op_count == explicit_ctx.op_count > 0
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
