"""The solver hands the compiled rounding kernel C-contiguous buffers only.

``Kernel.round_into(src, dst, resolve)`` rounds C-contiguous buffers in one
pass and resolves its hand-backs itself; it refuses any other operand with
``OperandError`` (a ``BufferError``) and ``BitKernel.round`` retries on a
contiguous copy, which costs an extra allocation and two copies per call.  Every rounded array op
of the contexts is one ufunc into a C-contiguous buffer, so a full
``partialschur`` solve in each paper format, as the figure runs it, must
reach the kernel with no other operand.  The solve's pairwise reductions
must take the compiled reduction entry (``Kernel.reduce_pairwise``, or the
module's native ``reduce_pairwise`` for float32/float64), with C-contiguous
operands too: a silent fallback to the NumPy tree fails the test.
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


def _record_strays(strays: list, *operands) -> None:
    for operand in operands:
        if not (isinstance(operand, np.ndarray) and operand.flags.c_contiguous):
            strays.append((np.shape(operand), getattr(operand, "strides", None)))


class _RecordingKernel:
    """Delegates to a compiled kernel, recording every ``round_into`` and
    ``reduce_pairwise`` operand that is not a C-contiguous ndarray, and
    counting the reductions."""

    def __init__(self, compiled, strays: list, reductions: list):
        self._compiled = compiled
        self._strays = strays
        self._reductions = reductions

    def __getattr__(self, name):
        return getattr(self._compiled, name)

    def round_into(self, src, dst, resolve):
        _record_strays(self._strays, src, dst)
        return self._compiled.round_into(src, dst, resolve)

    def reduce_pairwise(self, values, indptr, resolve):
        _record_strays(self._strays, values, *(() if indptr is None else (indptr,)))
        self._reductions.append(np.shape(values))
        return self._compiled.reduce_pairwise(values, indptr, resolve)


def _recording_native_reducer(strays: list, reductions: list):
    """A stand-in for :func:`bitkernels.native_reducer` whose reducer
    records like :class:`_RecordingKernel`."""
    native_reducer = bitkernels.native_reducer

    def reducer():
        reduce = native_reducer()
        if reduce is None:
            return None

        def recorded(values, indptr):
            _record_strays(strays, values, *(() if indptr is None else (indptr,)))
            reductions.append(np.shape(values))
            return reduce(values, indptr)

        return recorded

    return reducer


@pytest.fixture(scope="module")
def fig1_matrix():
    return get_suite("general", size_range=(32, 32), seed=0, count=1)[0].matrix


@pytest.mark.skipif(not bitkernels.bitkernels_enabled(), reason="no compiled kernel")
@pytest.mark.parametrize("name", FORMATS)
def test_solve_rounds_only_contiguous_buffers(name, fig1_matrix, monkeypatch):
    strays: list = []
    reductions: list = []
    for fmt_name in FORMATS:  # float32/float64 round in hardware: no kernel
        kern = get_format(fmt_name).bitkernel()
        if kern is not None:
            monkeypatch.setattr(
                kern, "compiled", _RecordingKernel(kern.compiled, strays, reductions)
            )
    monkeypatch.setattr(
        bitkernels, "native_reducer", _recording_native_reducer(strays, reductions)
    )
    ctx = get_context(name)
    matrix, _ = ctx.convert_matrix(fig1_matrix)
    with np.errstate(all="ignore"):
        partialschur(
            matrix, nev=12, tol=tolerance_for(name), restarts=25, ctx=ctx, seed=0, eps_floor=True
        )
    assert reductions, "the solve never took the compiled reduction"
    assert strays == []
