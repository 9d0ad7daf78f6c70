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
from repro.arithmetic import get_context


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
