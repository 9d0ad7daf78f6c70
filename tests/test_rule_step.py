"""Every value rounds inside the compiled kernel.

The compiled kernel rounds every value itself: the binades its lookup
tables serve by the integer transform, every other value (the finite values
of the special binades, infinities and NaN) by the format's rule, which it
counts as handed back (the ``bitkernel.lut_fallback`` counter); no value
leaves the kernel for Python.  With the switch off the kernel has no lookup
tables and rounds every value by the rule.  These tests run two workloads
through the kernel's entries (``round_one``, ``round_into``, ``reduce``,
``tridiagonalize`` and ``ql``):

* the exhaustive sweeps of every format of at most 16 bits (all values,
  ties and their neighbours, both signs, infinities and NaN), as one array
  and value by value: the scalar entry returns a value for every input, the
  words of the array entry, and the values counted as handed back are
  exactly the non-zero values the rule rounds;
* a ``partialschur`` of the seed-0 order-32 fig1 matrix in each of the
  paper's 14 formats, as the figure runs it, in both switch positions: the
  same result words, op tallies and kernel passes, with every non-zero
  value counted as handed back with the switch off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arithmetic import get_context, set_bitkernels_enabled
from repro.arithmetic.context import EmulatedContext
from repro.arithmetic.registry import PAPER_FORMATS, preload_tables
from repro.core import partialschur
from repro.datasets import get_suite
from repro.experiments import tolerance_for
from repro.telemetry import core as telemetry
from tests._kernel_harness import (
    E4M3_SATURATING,
    UNREGISTERED_TAPERED,
    assert_same_words,
    exhaustive_sweep,
    format_for,
)

#: every format of at most 16 bits with a bit kernel
NARROW = [
    "posit8",
    "takum8",
    "E4M3",
    E4M3_SATURATING,
    "E5M2",
    "posit16",
    "takum16",
    "float16",
    "bfloat16",
    *(name for name in UNREGISTERED_TAPERED if format_for(name).bits <= 16),
]

#: the paper's formats, in figure order
PAPER = [name for names in PAPER_FORMATS.values() for name in names]


def _counted(kernels, call):
    """``(result, {kernel: (calls, elements, handed_back, zeros)})`` of one
    call with the kernels counting."""
    for kern in kernels:
        kern.compiled.take_counts()
    previous = telemetry.set_enabled(True)
    try:
        with np.errstate(all="ignore"):
            result = call()
    finally:
        telemetry.set_enabled(previous)
    return result, {kern: kern.compiled.take_counts() for kern in kernels}


def _by_the_rule(kern, values) -> np.ndarray:
    """Which of the float64 ``values`` the kernel rounds by the rule: those
    of its special binades, or every one without lookup tables."""
    if kern._special is None:
        return np.ones(values.shape, dtype=bool)
    return kern._special[values.view(np.uint64) >> np.uint64(52)] == 1


@pytest.mark.parametrize("name", NARROW)
def test_exhaustive_sweeps_count_rule_steps_as_lut_fallback(name):
    """Every value and tie of the format, as one array and value by value:
    the scalar entry returns a value for every input, non-finite ones
    included, word for word as the array entry; the array pass counts the
    non-zero values the rule rounds as handed back, and no others."""
    fmt = format_for(name)
    kern = fmt._bound_kernel
    values = exhaustive_sweep(fmt)
    rounded, counts = _counted([kern], lambda: fmt.round_array(values))
    zero = values == 0
    rule = _by_the_rule(kern, values) & ~zero
    assert rule[~np.isfinite(values)].all(), f"{name}: a non-finite value was served"
    assert counts[kern] == (1, values.size, np.count_nonzero(rule), np.count_nonzero(zero))
    ctx = EmulatedContext(fmt)
    scalars = [fmt._round_one(v) for v in values.tolist()]
    assert all(type(res) is np.float64 for res in scalars), f"{name}: round_one gave None"
    assert_same_words(np.asarray(scalars), rounded, f"{name} round_one")
    contexts = np.asarray([ctx.round_scalar(v) for v in values.tolist()])
    assert_same_words(contexts, rounded, f"{name} round_scalar")


def test_fig1_solve_counts_rule_steps_as_lut_fallback():
    """A ``partialschur`` of the seed-0 order-32 fig1 matrix in each paper
    format, once through the lookup tables and once by the rule alone: the
    reductions, the Householder reduction, the QL iteration and the
    rotations give the same eigenvalue words and tallies, and the kernel
    counts the same passes, every non-zero value of them handed back by the
    rule alone and a subset of them with the lookup tables."""
    matrix = get_suite("general", size_range=(32, 32), seed=0, count=1)[0].matrix
    emulated, by_rule = [], 0
    for name in PAPER:
        runs = {}
        for enabled in (True, False):
            previous = set_bitkernels_enabled(enabled)
            try:
                preload_tables([name])
                ctx = get_context(name)
                kernels = [ctx.format._bound_kernel] if isinstance(ctx, EmulatedContext) else []
                converted, _ = ctx.convert_matrix(matrix)
                result, counts = _counted(
                    kernels,
                    lambda: partialschur(
                        converted, nev=12, tol=tolerance_for(name), restarts=25, ctx=ctx,
                        seed=0, eps_floor=True,
                    ),
                )  # fmt: skip
            finally:
                set_bitkernels_enabled(previous)
            runs[enabled] = (result, ctx.op_count, list(counts.values()))
        (on, ops_on, counts_on), (off, ops_off, counts_off) = runs[True], runs[False]
        assert_same_words(on.eigenvalues, off.eigenvalues, name)
        assert (on.matvecs, on.restarts, ops_on) == (off.matvecs, off.restarts, ops_off), name
        if counts_on:
            emulated.append(name)
            (calls, elements, rule_on, zeros), = counts_on
            assert counts_off == [(calls, elements, elements - zeros, zeros)], name
            assert rule_on <= elements - zeros, name
            by_rule += rule_on
    assert len(emulated) == 12
    assert by_rule > 0, "no value of a special binade in the whole figure"
