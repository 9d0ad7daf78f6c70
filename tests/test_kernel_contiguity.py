"""The solver hands the compiled rounding kernel C-contiguous buffers only.

``Kernel.round_into`` rounds C-contiguous buffers; any other operand raises
``BufferError`` and ``BitKernel.round`` retries on a contiguous copy, which
costs an extra allocation and two copies per call.  Every rounded array op
of the contexts is one ufunc into a C-contiguous buffer, so a full
``partialschur`` solve in each paper format, as the figure runs it, must
reach the kernel with no other operand.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import get_context, partialschur
from repro.arithmetic import bitkernels, get_format
from repro.arithmetic.registry import PAPER_FORMATS
from repro.datasets import get_suite
from repro.experiments.tolerances import tolerance_for

FORMATS = [name for width in (8, 16, 32, 64) for name in PAPER_FORMATS[width]]


class _RecordingKernel:
    """Delegates to a compiled kernel, recording every ``round_into``
    operand that is not a C-contiguous ndarray."""

    def __init__(self, compiled, strays: list):
        self._compiled = compiled
        self._strays = strays

    def __getattr__(self, name):
        return getattr(self._compiled, name)

    def round_into(self, src, dst):
        for operand in (src, dst):
            if not (isinstance(operand, np.ndarray) and operand.flags.c_contiguous):
                self._strays.append((np.shape(operand), getattr(operand, "strides", None)))
        return self._compiled.round_into(src, dst)


@pytest.fixture(scope="module")
def fig1_matrix():
    return get_suite("general", size_range=(32, 32), seed=0, count=1)[0].matrix


@pytest.mark.skipif(not bitkernels.bitkernels_enabled(), reason="no compiled kernel")
@pytest.mark.parametrize("name", FORMATS)
def test_solve_rounds_only_contiguous_buffers(name, fig1_matrix, monkeypatch):
    strays: list = []
    for fmt_name in FORMATS:  # float32/float64 round in hardware: no kernel
        kern = get_format(fmt_name).bitkernel()
        if kern is not None:
            monkeypatch.setattr(kern, "compiled", _RecordingKernel(kern.compiled, strays))
    ctx = get_context(name)
    matrix, _ = ctx.convert_matrix(fig1_matrix)
    with np.errstate(all="ignore"):
        partialschur(
            matrix, nev=12, tol=tolerance_for(name), restarts=25, ctx=ctx, seed=0, eps_floor=True
        )
    assert strays == []
