"""The solver hands the compiled rounding kernel C-contiguous buffers only.

``Kernel.round_into(src, dst)`` rounds C-contiguous buffers in one pass,
every value in the kernel; it refuses any other operand with
``OperandError`` (a ``BufferError``) and ``BitKernel.round`` retries on a
contiguous copy, which costs an extra allocation and two copies per call.  Every rounded array op
of the contexts is one ufunc into a C-contiguous buffer, so a full
``partialschur`` solve in each paper format, as the figure runs it, must
reach the kernel with no other operand.  The solve's reductions take the
module's compiled ``reduce`` entry, which reads a non-contiguous operand
through a contiguous copy; the test records its operands too, and fails if
the solve never reduces through it.  The compiled eigensolver entries
(``tridiagonalize`` and ``ql``) refuse other operands outright; the test
records theirs as well, and every eigensolve must reduce its matrix
through the compiled ``tridiagonalize``.  So does the compiled
Arnoldi expansion (``arnoldi``), which every sequential solve must take.  The lockstep solver runs
each batch row through the same compiled entries: one ``tridiagonalize``
and one ``ql`` per live row per restart, and reductions that never round
through ``BatchedContext.round``.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro import get_context, partialschur
from repro.arithmetic import BatchedContext, BatchSpec, bitkernels, get_format
from repro.core.lockstep import batched_partialschur
from repro.arithmetic.registry import PAPER_FORMATS
from repro.datasets import get_suite
from repro.experiments.tolerances import tolerance_for

FORMATS = [name for width in (8, 16, 32, 64) for name in PAPER_FORMATS[width]]


def _record_strays(strays: list, *operands) -> None:
    for operand in operands:
        if not (isinstance(operand, np.ndarray) and operand.flags.c_contiguous):
            strays.append((np.shape(operand), getattr(operand, "strides", None)))


class _RecordingKernel:
    """Delegates to a compiled kernel, recording every ``round_into``
    operand that is not a C-contiguous ndarray."""

    def __init__(self, compiled, strays: list):
        self._compiled = compiled
        self._strays = strays

    def __getattr__(self, name):
        return getattr(self._compiled, name)

    def round_into(self, src, dst):
        _record_strays(self._strays, src, dst)
        return self._compiled.round_into(src, dst)


class _RecordingExtension:
    """Delegates to the compiled extension, recording every array operand
    of the entries ``reduce``, ``tridiagonalize``, ``ql`` and ``arnoldi``
    that is not a C-contiguous ndarray, and the reductions, the
    tridiagonalised matrices, the QL solves and the expansions' bases; a
    :class:`_RecordingKernel` they are given is replaced by the kernel it
    wraps."""

    def __init__(self, module, strays: list, reductions: list, solves: list, reduced: list):
        self._module = module
        self._strays = strays
        self._reductions = reductions
        self._solves = solves
        self._reduced = reduced
        self.expansions: list = []

    def reduce(self, values, indptr, sequential, kernel):
        _record_strays(self._strays, values, *(() if indptr is None else (indptr,)))
        self._reductions.append(np.shape(values))
        return self._module.reduce(values, indptr, sequential, _unwrap(kernel))

    def tridiagonalize(self, AQ, sequential, kernel):
        _record_strays(self._strays, AQ)
        self._reduced.append(np.shape(AQ)[1:])
        return self._module.tridiagonalize(AQ, sequential, _unwrap(kernel))

    def __getattr__(self, name):
        return getattr(self._module, name)

    def ql(self, d, e, ZT, max_sweeps, eps, kernel):
        _record_strays(self._strays, d, e, ZT)
        self._solves.append(np.shape(d))
        return self._module.ql(d, e, ZT, max_sweeps, eps, _unwrap(kernel))

    def arnoldi(self, V, S, b, v, start, csr, sequential, eta, kernel):
        matrices = () if csr is None else (S, b, *csr)
        _record_strays(self._strays, V, v, *matrices)
        self.expansions.append(np.shape(V))
        return self._module.arnoldi(V, S, b, v, start, csr, sequential, eta, _unwrap(kernel))


def _unwrap(kernel):
    return kernel._compiled if isinstance(kernel, _RecordingKernel) else kernel


@pytest.fixture(scope="module")
def fig1_matrix():
    return get_suite("general", size_range=(32, 32), seed=0, count=1)[0].matrix


@pytest.mark.parametrize("name", FORMATS)
def test_solve_rounds_only_contiguous_buffers(name, fig1_matrix, monkeypatch):
    strays: list = []
    reductions: list = []
    solves: list = []
    reduced: list = []
    for fmt_name in FORMATS:  # float32/float64 round in hardware: no kernel
        kern = get_format(fmt_name).bitkernel()
        if kern is not None:
            monkeypatch.setattr(kern, "compiled", _RecordingKernel(kern.compiled, strays))
    extension = _RecordingExtension(bitkernels.extension(), strays, reductions, solves, reduced)
    monkeypatch.setattr(bitkernels, "extension", lambda: extension)
    ctx = get_context(name)
    matrix, _ = ctx.convert_matrix(fig1_matrix)
    with np.errstate(all="ignore"):
        partialschur(
            matrix, nev=12, tol=tolerance_for(name), restarts=25, ctx=ctx, seed=0, eps_floor=True
        )
    assert reductions, "the solve never took the compiled reduction"
    assert extension.expansions, "the solve never took the compiled Arnoldi expansion"
    assert solves, "the solve never took the compiled eigensolver"
    # each QL solve of order n > 1 follows the compiled reduction of its matrix
    assert reduced == [(n, n) for (n,) in solves], "an eigensolve skipped the compiled reduction"
    assert strays == []


#: 16- to 64-bit formats in three work-dtype lanes (float32, float64 and
#: longdouble), none of which breaks down on the fig1 matrix
BATCH_FORMATS = ["float16", "bfloat16", "posit16", "float32", "takum32", "float64", "posit64"]


def test_batched_rows_take_the_compiled_reduction_and_eigensolver(fig1_matrix, monkeypatch):
    strays: list = []
    reductions: list = []
    solves: list = []
    reduced: list = []
    extension = _RecordingExtension(bitkernels.extension(), strays, reductions, solves, reduced)
    monkeypatch.setattr(bitkernels, "extension", lambda: extension)
    round_callers: set = set()
    batched_round = BatchedContext.round

    def recording_round(self, arr, rows):
        round_callers.add(sys._getframe(1).f_code.co_name)
        return batched_round(self, arr, rows)

    monkeypatch.setattr(BatchedContext, "round", recording_round)
    assert len(BatchSpec(BATCH_FORMATS).lanes()) == 3
    nev, maxdim = 6, 14
    with np.errstate(all="ignore"):
        results = batched_partialschur(
            fig1_matrix, BATCH_FORMATS, nev=nev, maxdim=maxdim, tol=1e-6, restarts=4, seed=0
        )
    assert {r.reason for r in results} <= {"converged", "maxiter"}
    # every row solves its projected matrix once per restart, and once more
    # on the expansion it retires after
    ritz_steps = sum(r.restarts + 1 for r in results)
    assert solves == [(maxdim,)] * ritz_steps
    assert reduced == [(maxdim, maxdim)] * ritz_steps
    assert reductions, "no batched row took the compiled reduction"
    # only the stacked elementwise ops round through the batch; a reduction
    # level never does
    assert round_callers <= {"add", "sub", "mul", "div"}, round_callers
    assert strays == []
