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
operands too: a silent fallback to the NumPy tree fails the test.  The
compiled eigensolver entries (``tridiagonalize``, ``ql`` and ``rotate``)
refuse other operands outright; the test records theirs as well, and every
eigensolve must reduce its matrix through the compiled ``tridiagonalize``.
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


class _RecordingExtension:
    """Delegates to the compiled extension, recording every array operand
    of the eigensolver entries ``tridiagonalize``, ``ql`` and ``rotate``
    that is not a C-contiguous ndarray, and the reductions and QL solves;
    a :class:`_RecordingKernel` they are given is replaced by the kernel it
    wraps."""

    def __init__(self, module, strays: list, solves: list, reduced: list):
        self._module = module
        self._strays = strays
        self._solves = solves
        self._reduced = reduced

    def tridiagonalize(self, AQ, sequential, kernel, resolve_scalar, resolve_array):
        _record_strays(self._strays, AQ)
        self._reduced.append(np.shape(AQ)[1:])
        return self._module.tridiagonalize(
            AQ, sequential, _unwrap(kernel), resolve_scalar, resolve_array
        )

    def __getattr__(self, name):
        return getattr(self._module, name)

    def ql(self, d, e, max_sweeps, eps, kernel, resolve):
        _record_strays(self._strays, d, e)
        self._solves.append(np.shape(d))
        return self._module.ql(d, e, max_sweeps, eps, _unwrap(kernel), resolve)

    def rotate(self, ZT, cols, cs, ss, kernel, resolve):
        _record_strays(self._strays, ZT, cols, cs, ss)
        return self._module.rotate(ZT, cols, cs, ss, _unwrap(kernel), resolve)


def _unwrap(kernel):
    return kernel._compiled if isinstance(kernel, _RecordingKernel) else kernel


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
    solves: list = []
    reduced: list = []
    for fmt_name in FORMATS:  # float32/float64 round in hardware: no kernel
        kern = get_format(fmt_name).bitkernel()
        if kern is not None:
            monkeypatch.setattr(
                kern, "compiled", _RecordingKernel(kern.compiled, strays, reductions)
            )
    monkeypatch.setattr(
        bitkernels, "native_reducer", _recording_native_reducer(strays, reductions)
    )
    extension = _RecordingExtension(bitkernels.extension(), strays, solves, reduced)
    monkeypatch.setattr(bitkernels, "extension", lambda: extension)
    ctx = get_context(name)
    matrix, _ = ctx.convert_matrix(fig1_matrix)
    with np.errstate(all="ignore"):
        partialschur(
            matrix, nev=12, tol=tolerance_for(name), restarts=25, ctx=ctx, seed=0, eps_floor=True
        )
    assert reductions, "the solve never took the compiled reduction"
    assert solves, "the solve never took the compiled eigensolver"
    # each QL solve of order n > 1 follows the compiled reduction of its matrix
    assert reduced == [(n, n) for (n,) in solves], "an eigensolve skipped the compiled reduction"
    assert strays == []
