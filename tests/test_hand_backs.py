"""With the bit kernels on, Python rounds only infinities and NaN.

The compiled kernel rounds every finite value itself: the served binades by
its integer transform, the special binades by the format's finite rule.  It
hands only infinities and NaN to the format's two resolvers, the bound
kernel's array resolver (``BitKernel._resolve``) and the format's scalar
kernel (``round_scalar_analytic``).  These tests wrap both with recorders
and run two workloads through the kernel's entries (``round_one``,
``round_into``, ``reduce``, ``tridiagonalize``, ``ql`` and ``rotate``):

* the exhaustive sweeps of every format of at most 16 bits (all values,
  ties and their neighbours, both signs), as arrays and as scalars;
* a ``partialschur`` of the seed-0 order-32 fig1 matrix in each of the
  paper's 14 formats, as the figure runs it.

With the switch off the kernels hand every value back by design, so there
is nothing to check.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.arithmetic import bitkernels as bk
from repro.arithmetic import get_context
from repro.arithmetic.context import EmulatedContext
from repro.arithmetic.registry import PAPER_FORMATS, preload_tables
from repro.core import partialschur
from repro.datasets import get_suite
from repro.experiments import tolerance_for
from tests._kernel_harness import (
    E4M3_SATURATING,
    UNREGISTERED_TAPERED,
    exhaustive_sweep,
    format_for,
)

pytestmark = pytest.mark.skipif(
    not bk.bitkernels_enabled(),
    reason="bit kernels globally disabled (REPRO_DISABLE_BITKERNELS)",
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


@pytest.fixture
def resolvers(monkeypatch):
    """``(install, received)``: ``install(fmt)`` wraps the resolvers of
    ``fmt`` (its bound kernel's and its scalar kernel) with recorders;
    ``received[name]`` lists the arrays of work values they were given."""
    received: dict[str, list] = {}

    def install(fmt):
        seen = received.setdefault(fmt.name, [])
        kern = fmt._bound_kernel
        assert kern is not None, fmt.name
        resolve_array, resolve_scalar = kern._resolve, fmt.round_scalar_analytic

        def record_array(values, out=None):
            seen.append(np.array(values, dtype=fmt.work_dtype).ravel())
            return resolve_array(values, out)

        def record_scalar(value):
            seen.append(np.asarray([value], dtype=fmt.work_dtype))
            return resolve_scalar(value)

        monkeypatch.setattr(kern, "_resolve", record_array)
        monkeypatch.setattr(fmt, "round_scalar_analytic", record_scalar)

    return install, received


def _finite(received, name) -> np.ndarray:
    values = received.get(name, [])
    values = np.concatenate(values) if values else np.empty(0)
    return values[np.isfinite(values)]


@pytest.mark.parametrize("name", NARROW)
def test_exhaustive_sweeps_hand_back_only_non_finite(name, resolvers):
    """Every value and tie of the format, as one array and value by value:
    the resolvers see only the infinities and NaN, and the scalar entry
    returns a value for every finite input."""
    install, received = resolvers
    fmt = format_for(name)
    install(fmt)
    values = exhaustive_sweep(fmt)
    fmt.round_array(values)
    ctx = EmulatedContext(fmt)
    for v in values.tolist():
        res = fmt._round_one(v)
        assert (res is None) == (not math.isfinite(v)), f"{name}: round_one({v!r}) -> {res!r}"
        ctx.round_scalar(v)
    assert received[name], f"{name}: the recorders saw no hand-back (the sweep has inf and NaN)"
    finite = _finite(received, name)
    assert finite.size == 0, f"{name}: finite values reached Python: {finite[:8]}"


def test_fig1_solve_hands_back_only_non_finite(resolvers):
    """A ``partialschur`` of the seed-0 order-32 fig1 matrix in each paper
    format: the reductions, the Householder reduction, the QL iteration and
    the rotations round every finite value in the kernel."""
    install, received = resolvers
    matrix = get_suite("general", size_range=(32, 32), seed=0, count=1)[0].matrix
    preload_tables(PAPER)
    emulated = []
    for name in PAPER:
        ctx = get_context(name)
        if isinstance(ctx, EmulatedContext):
            install(ctx.format)
            emulated.append(name)
        converted, _ = ctx.convert_matrix(matrix)
        with np.errstate(all="ignore"):
            partialschur(
                converted, nev=12, tol=tolerance_for(name), restarts=25, ctx=ctx, seed=0,
                eps_floor=True,
            )  # fmt: skip
    assert len(emulated) == 12
    for name in emulated:
        finite = _finite(received, name)
        assert finite.size == 0, f"{name}: finite values reached Python: {finite[:8]}"
