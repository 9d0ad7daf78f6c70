"""The rounded reduction tree against an independent level-by-level spelling.

Every rounded contraction of :class:`~repro.arithmetic.context.ComputeContext`
(``reduce_sum``, ``dot``, ``gemv``, ``gemv_t``, ``gemm``) forms its rounded
products and reduces them along one axis, and ``spmv`` reduces each CSR row
segment.  The reference below spells that reduction the plain way: the
pairwise strategy concatenates the rounded sums of adjacent pairs with any
odd leftover, level by level, through ``ctx.add``; the sequential strategy
adds left to right.  The products of ``gemv``, ``gemv_t`` and ``gemm`` are
formed row by row, and ``spmv`` is reduced one row at a time.  Every result
word and the op tally must match, at every length from 0 to 70, for 1-D,
2-D, 3-D and transposed (F-ordered) inputs, and for CSR rows that are
empty, of one element, of every length up to 70 and of a 300-vertex graph
Laplacian, holding ±0, ±inf, NaN and the extreme magnitudes of each
arithmetic, in every paper format and the reference.

Every reduction, in either order and in every context, is one call of
the compiled ``reduce`` entry, and each case runs in both positions of the
bit-kernel switch: with it on, the format's kernel rounds through its
lookup tables; with it off, the same entry rounds every sum by the
format's rule alone.  The values of the special binades (extreme finite
values, infinities and NaN) round in the kernel by the format's rule.  A
reduction counts one kernel call per pass (a tree level, or a column of
the sequential order), and ``NumberFormat.round_array`` one for its pass,
with every special value counted as handed back (the
``bitkernel.lut_fallback`` counter), in both switch positions, and writes
x87 slots with zero padding.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.arithmetic import LONGDOUBLE_EXTENDED, bitkernels, get_context, set_bitkernels_enabled
from repro.arithmetic.context import ComputeContext
from repro.arithmetic.registry import PAPER_FORMATS
from repro.datasets.graphs import generate_graph
from repro.sparse import CSRMatrix
from repro.sparse.laplacian import laplacian_from_adjacency
from repro.telemetry import core as telemetry

CONTEXTS = [name for width in (8, 16, 32, 64) for name in PAPER_FORMATS[width]] + ["reference"]
LENGTHS = range(71)
#: CSR row lengths: every length up to 70, with empty and one-element rows
#: between them
CSR_LENGTHS = [0, 1, 0, 0] + [n for k in range(71) for n in (k, k % 2, 0)] + [1, 0]

needs_compiled = pytest.mark.skipif(
    not bitkernels.bitkernels_enabled(), reason="no compiled kernel (or the bit kernels are off)"
)
#: the positions of the bit-kernel switch a case runs in: on, the format's
#: kernel rounds in the compiled reduction through its lookup tables; off,
#: by the format's rule alone (a run with the switch off from the start
#: stays off)
DISPATCHES = (True, False) if bitkernels.bitkernels_enabled() else (False,)


@contextlib.contextmanager
def _switch(enabled: bool):
    previous = set_bitkernels_enabled(enabled)
    try:
        yield
    finally:
        set_bitkernels_enabled(previous)


def _words(values) -> np.ndarray:
    """The significant bytes of each value (x87 longdouble: its 10 bytes),
    every NaN written as the one positive quiet NaN: when both operands of
    an addition are NaN, the NaN NumPy returns depends on its loop, so the
    sign bit of a NaN is not part of the result."""
    arr = np.array(np.atleast_1d(np.asarray(values)), order="C")
    arr[np.isnan(arr)] = np.nan
    size = 10 if arr.dtype == np.longdouble and LONGDOUBLE_EXTENDED else arr.itemsize
    return arr.view(np.uint8).reshape(arr.shape + (arr.itemsize,))[..., :size]


def _specials(ctx) -> list:
    fmt = getattr(ctx, "format", None)
    if fmt is not None:
        big, tiny = fmt.max_value, fmt.min_positive
    else:
        info = np.finfo(ctx.dtype)
        big, tiny = info.max, info.smallest_subnormal
    return [0.0, -0.0, np.inf, -np.inf, np.nan, big, -big, tiny, -tiny]


def _values(ctx, shape, seed: int) -> np.ndarray:
    """Representable values of ``ctx``: mostly O(1), some specials."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(shape).astype(ctx.dtype)
    special = np.asarray(_specials(ctx), dtype=ctx.dtype)
    mask = rng.random(shape) < 0.04
    raw[mask] = special[rng.integers(0, special.size, int(mask.sum()))]
    return np.asarray(ctx.round(raw), dtype=ctx.dtype)


def _reference_reduce(ctx, prods: np.ndarray):
    """Reduce the last axis of ``prods`` by concatenating levels."""
    level = prods
    if level.shape[-1] == 0:
        return np.zeros(level.shape[:-1], dtype=ctx.dtype)
    if ctx.accumulation == "sequential":
        acc = level[..., 0]
        for j in range(1, level.shape[-1]):
            acc = ctx.add(acc, level[..., j])
        return acc
    while level.shape[-1] > 1:
        half = level.shape[-1] // 2
        sums = ctx.add(level[..., 0 : 2 * half : 2], level[..., 1 : 2 * half : 2])
        level = np.concatenate((sums, level[..., 2 * half :]), axis=-1)
    return level[..., 0]


def _rows(ctx, pairs) -> np.ndarray:
    """Rounded elementwise products, one ``ctx.mul`` per pair of rows."""
    return np.stack([ctx.mul(a, b) for a, b in pairs])


def _cases(ctx, m: int):
    """``(label, kernel call, reference call)`` for one length ``m``."""
    v1 = _values(ctx, (m,), m)
    v2 = _values(ctx, (3, m), m + 1)
    v3 = _values(ctx, (2, 3, m), m + 2)
    x, y = _values(ctx, (m,), m + 3), _values(ctx, (m,), m + 4)
    M = _values(ctx, (3, m), m + 5)
    Mt = _values(ctx, (m, 3), m + 6)
    A, B = _values(ctx, (2, m), m + 7), _values(ctx, (m, 3), m + 8)
    F = np.asfortranarray
    ref = _reference_reduce
    yield "reduce_sum 1-D", lambda c: c.reduce_sum(v1), lambda c: ref(c, v1)
    yield "reduce_sum 2-D", lambda c: c.reduce_sum(v2), lambda c: ref(c, v2)
    yield "reduce_sum 3-D", lambda c: c.reduce_sum(v3), lambda c: ref(c, v3)
    yield "reduce_sum F 2-D", lambda c: c.reduce_sum(F(v2)), lambda c: ref(c, v2)
    yield (
        "reduce_sum axis 0",
        lambda c: c.reduce_sum(v3.T, axis=0),
        lambda c: ref(c, np.moveaxis(v3.T, 0, -1)),
    )
    yield "dot", lambda c: c.dot(x, y), lambda c: ref(c, c.mul(x, y))
    for label, mat in (("gemv", M), ("gemv F", F(M)), ("gemv T", Mt.T)):
        yield (
            label,
            lambda c, mat=mat: c.gemv(mat, x),
            lambda c, mat=mat: ref(c, _rows(c, ((row, x) for row in mat))),
        )
    for label, mat in (("gemv_t", Mt), ("gemv_t F", F(Mt)), ("gemv_t T", M.T)):
        yield (
            label,
            lambda c, mat=mat: c.gemv_t(mat, x),
            lambda c, mat=mat: ref(c, _rows(c, ((col, x) for col in mat.T))),
        )
    for label, a, b in (("gemm", A, B), ("gemm F", F(A), F(B)), ("gemm C F", A, F(B))):
        yield (
            label,
            lambda c, a=a, b=b: c.gemm(a, b),
            lambda c, a=a, b=b: np.stack(
                [ref(c, _rows(c, ((row, col) for col in b.T))) for row in a]
            ),
        )


def _csr(ctx, lengths, seed: int, ncols: int = 71) -> CSRMatrix:
    """A CSR matrix of representable values with the given row lengths."""
    indptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    nnz = int(indptr[-1])
    indices = np.random.default_rng(seed).integers(0, ncols, nnz)
    return CSRMatrix(_values(ctx, (nnz,), seed), indices, indptr, (len(lengths), ncols))


def _laplacian(ctx) -> CSRMatrix:
    """A 300-vertex infrastructure graph Laplacian converted into ``ctx``."""
    lap = laplacian_from_adjacency(generate_graph("inf", 0, 300, seed=0)[0])
    return ctx.convert_matrix(lap)[0]


def _spelled_spmv(ctx, matrix: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """``spmv`` as rounded products reduced one row segment at a time."""
    if matrix.data.size == 0:
        return np.zeros(matrix.shape[0], dtype=ctx.dtype)
    prods = ctx.mul(np.asarray(matrix.data, dtype=ctx.dtype), x[matrix.indices])
    ptr = matrix.indptr
    return np.array(
        [_reference_reduce(ctx, prods[a:b]) for a, b in zip(ptr[:-1], ptr[1:])], dtype=ctx.dtype
    )


def _csr_cases(ctx):
    """``(label, kernel call, reference call)`` for the CSR row segments."""
    for label, matrix in (
        ("spmv rows 0-70", _csr(ctx, CSR_LENGTHS, 1)),
        ("spmv empty rows", _csr(ctx, [0, 0, 0], 2)),
        ("spmv one row", _csr(ctx, [37], 3)),
        ("spmv laplacian 300", _laplacian(ctx)),
    ):
        x = _values(ctx, (matrix.shape[1],), matrix.shape[0])
        yield (
            label,
            lambda c, matrix=matrix, x=x: c.spmv(matrix, x),
            lambda c, matrix=matrix, x=x: _spelled_spmv(c, matrix, x),
        )


def _mismatches(name: str, accumulation: str) -> list:
    """Every case whose kernel words or op tally differ from the reference."""
    kernel = get_context(name, accumulation=accumulation)
    reference = get_context(name, accumulation=accumulation)
    cases = [(m, case) for m in LENGTHS for case in _cases(kernel, m)]
    cases += [("csr", case) for case in _csr_cases(kernel)]
    bad = []
    with np.errstate(all="ignore"):
        for m, (label, call, spelled) in cases:
            k0, r0 = kernel.op_count, reference.op_count
            got, want = call(kernel), spelled(reference)
            if np.shape(got) != np.shape(want) or not np.array_equal(_words(got), _words(want)):
                bad.append(f"{label} m={m}: words differ")
            elif kernel.op_count - k0 != reference.op_count - r0:
                bad.append(
                    f"{label} m={m}: {kernel.op_count - k0} ops, "
                    f"reference {reference.op_count - r0}"
                )
    return bad


@pytest.mark.parametrize("accumulation", ["pairwise", "sequential"])
@pytest.mark.parametrize("name", CONTEXTS)
def test_reduction_matches_level_by_level_reference(name, accumulation):
    bad = {}
    for enabled in DISPATCHES:
        with _switch(enabled):
            bad[enabled] = _mismatches(name, accumulation)
    assert bad == {enabled: [] for enabled in DISPATCHES}


def _no_level(*args, **kwargs):
    raise AssertionError("a rounded NumPy level ran")


@pytest.mark.parametrize("name", CONTEXTS)
def test_compiled_tree_is_one_call(name, monkeypatch):
    """A reduction runs no rounded NumPy level: in both switch positions,
    both accumulation orders, dense rows and CSR segments, in every
    emulated and native context."""
    monkeypatch.setattr(ComputeContext, "_round_ufunc", _no_level)
    for accumulation in ("pairwise", "sequential"):
        ctx = get_context(name, accumulation=accumulation)
        v1, buf = _values(ctx, (40,), 0), _values(ctx, (3, 40), 1)
        matrix = _csr(ctx, CSR_LENGTHS, 1)
        for enabled in DISPATCHES:
            with _switch(enabled), np.errstate(all="ignore"):
                ctx.reduce_sum(v1)
                ctx.reduce_sum(buf)
                ctx._segmented_reduce(matrix.data, matrix.indptr)


class _RecordingCompiled:
    """Delegates to a compiled kernel, recording every ``round_into``
    call in ``entries``."""

    def __init__(self, compiled, entries: list):
        self._compiled = compiled
        self.entries = entries

    def __getattr__(self, name):
        return getattr(self._compiled, name)

    def round_into(self, src, dst):
        self.entries.append("round_into")
        return self._compiled.round_into(src, dst)


class _RecordingExtension:
    """Delegates to the compiled extension, recording every ``reduce`` call
    in ``entries``; a :class:`_RecordingCompiled` it is given is replaced
    by the kernel it wraps."""

    def __init__(self, module, entries: list):
        self._module = module
        self.entries = entries

    def __getattr__(self, name):
        return getattr(self._module, name)

    def reduce(self, values, indptr, sequential, kernel):
        self.entries.append("reduce")
        if isinstance(kernel, _RecordingCompiled):
            kernel = kernel._compiled
        return self._module.reduce(values, indptr, sequential, kernel)


def _record_entries(kern, monkeypatch) -> list:
    """The list the compiled entries ``round_into`` (of ``kern``) and
    ``reduce`` append their names to."""
    entries: list = []
    monkeypatch.setattr(kern, "compiled", _RecordingCompiled(kern.compiled, entries))
    extension = _RecordingExtension(bitkernels.extension(), entries)
    monkeypatch.setattr(bitkernels, "extension", lambda: extension)
    return entries


#: ``(format, value)``: every sum of copies of ``value`` is non-finite, which
#: the kernel rounds by the format's non-finite policy to +NaN (E4M3 inf
#: and overflow to NaN, posit and takum NaR), and ``value`` lies in a
#: special binade too
HAND_BACKS = [
    ("E4M3", np.inf),
    ("E4M3", 256.0),
    ("posit8", -np.inf),
    ("posit64", np.nan),
    ("takum64", np.inf),
]

#: ``(format, value)``: ``value`` and every sum of its copies lie in a
#: special binade whose finite values the kernel rounds by the format's
#: rule (the extreme regimes of posit8 and posit64, takum64 beyond its
#: largest value)
FINITE_EXTREMES = [("posit8", 2.0**20), ("posit64", 2.0**300), ("takum64", 2.0**300)]

_X87 = bitkernels.extended_layout_supported()


def _filled(ctx, shape, big: float) -> np.ndarray:
    """An array of copies of ``big``; x87 slots carry non-zero padding."""
    buf = np.full(shape, big, dtype=ctx.dtype)
    if _X87 and ctx.dtype is np.longdouble:
        buf.view(np.uint64)[..., 1::2] |= np.uint64(0xDEADBEEF0000)
    return buf


def _padding(values) -> np.ndarray:
    """The padding bits of each x87 slot of ``values`` (none for other
    dtypes)."""
    arr = np.ascontiguousarray(np.atleast_1d(values))
    if not (_X87 and arr.dtype == np.longdouble):
        return np.zeros(0, dtype=np.uint64)
    return arr.view(np.uint64)[..., 1::2] >> np.uint64(16)


def _extreme_passes(ctx, big: float):
    """``(label, call, compiled entries called, values per pass)``:
    rounding passes whose every value is a copy or a sum of ``big``, spread
    over several rows: the reductions (one pass per tree level) and
    ``NumberFormat.round_array`` (one pass; a strided ``out`` costs one
    refused call first)."""
    fmt = ctx.format
    buf = _filled(ctx, (4, 16), big)
    vals, indptr = _filled(ctx, (37,), big), np.array([0, 16, 16, 21, 37])
    strided = np.empty((4, 32), dtype=ctx.dtype)[:, ::2]

    def in_place():
        work = buf.copy()
        return fmt.round_array(work, out=work)

    return [
        ("rows", lambda: ctx.reduce_sum(buf), ["reduce"], [32, 16, 8, 4]),
        ("csr", lambda: ctx._segmented_reduce(vals, indptr), ["reduce"], [18, 9, 5, 2]),
        ("round_array", lambda: fmt.round_array(buf), ["round_into"], [64]),
        ("round_array in place", in_place, ["round_into"], [64]),
        (
            "round_array strided out",
            lambda: fmt.round_array(buf, out=strided),
            ["round_into", "round_into"],
            [64],
        ),
    ]


def _run_counted(ctx, call):
    """``(result, kernel counts)`` of one call through the format's bound
    kernel."""
    kern = ctx.format._bound_kernel
    kern.compiled.take_counts()
    previous = telemetry.set_enabled(True)
    try:
        with np.errstate(all="ignore"):
            result = call()
    finally:
        telemetry.set_enabled(previous)
    return result, kern.compiled.take_counts()


def _nan_words(dtype) -> bytes:
    """The significant bytes of the one positive quiet NaN of ``dtype``."""
    return _words(np.asarray([np.nan], dtype=dtype)).tobytes()


@needs_compiled
@pytest.mark.parametrize("name, big", HAND_BACKS)
def test_non_finite_sums_take_the_rule_step_once_per_level(name, big, monkeypatch):
    """Each rounding pass (a tree level of every row, or one ``round_into``
    over a whole buffer) whose sums are non-finite rounds them in the
    kernel, and the kernel counts one call per pass with every value
    counted as handed back; every sum of a non-empty row is +NaN, word for
    word, and x87 slots hold zero padding.  With the switch off the same
    call gives the same words and the same counts."""
    _check_extreme_passes(name, big, monkeypatch)
    ctx = get_context(name)
    for label, call, want_entries, _ in _extreme_passes(ctx, big):
        if want_entries == ["reduce"]:
            got, _ = _run_counted(ctx, call)
            sums = _raw_words(got[got != 0])  # the empty CSR row sums to 0
            assert sums.size and all(w.tobytes() == _nan_words(ctx.dtype) for w in sums), label


@needs_compiled
@pytest.mark.parametrize("name, big", FINITE_EXTREMES)
def test_finite_extremes_round_in_the_kernel(name, big, monkeypatch):
    """The same passes over finite values of special binades: the kernel
    rounds them by the format's rule and counts every one of them as
    handed back (the ``bitkernel.lut_fallback`` counter), one call per
    pass, with the words and counts of the switched-off run."""
    _check_extreme_passes(name, big, monkeypatch)


def _raw_words(values) -> np.ndarray:
    """The significant bytes of each value (x87 longdouble: its 10 bytes),
    NaN bits as they are."""
    arr = np.ascontiguousarray(np.atleast_1d(values))
    size = arr.dtype.itemsize
    nbytes = 10 if arr.dtype == np.longdouble and size == 16 else size
    return arr.reshape(-1).view(np.uint8).reshape(-1, size)[:, :nbytes]


def _check_extreme_passes(name, big, monkeypatch):
    ctx = get_context(name)
    kern = ctx.format._bound_kernel
    entries = _record_entries(kern, monkeypatch)
    for label, call, want_entries, per_pass in _extreme_passes(ctx, big):
        entries.clear()
        got, counts = _run_counted(ctx, call)
        assert entries == want_entries, label
        total = sum(per_pass)
        # (calls, elements, handed_back, zeros): one call per pass
        assert counts == (len(per_pass), total, total, 0), label
        assert not _padding(got).any(), label
        with _switch(False):
            want, counts_off = _run_counted(ctx, call)
        assert counts_off == counts, label
        assert np.array_equal(_raw_words(got), _raw_words(want)), label


@needs_compiled
@pytest.mark.parametrize("name", ["posit16", "E4M3", "takum64"])
def test_sequential_csr_sum_rounds_once_per_column(name):
    """The sequential accumulation of CSR rows adds column ``k`` of every
    row longer than ``k`` in one rounding call: ``max_len - 1`` kernel
    calls, with one element per row still accumulating."""
    ctx = get_context(name, accumulation="sequential")
    counts = np.array([16, 0, 5, 16, 1])
    indptr = np.concatenate(([0], np.cumsum(counts)))
    vals = ctx.round(np.random.default_rng(0).standard_normal(indptr[-1]))
    _, (calls, elements, _, _) = _run_counted(ctx, lambda: ctx._segmented_reduce(vals, indptr))
    assert calls == counts.max() - 1
    assert elements == sum(int(np.count_nonzero(counts > k)) for k in range(1, counts.max()))


def test_reduce_refuses_bad_arguments():
    """The compiled ``reduce`` refuses segments outside its values with
    ``ValueError``, and a kernel that does not match the dtype of the
    values, or a callable beside it, with ``TypeError``."""
    reduce = bitkernels.extension().reduce
    vals = np.arange(6, dtype=np.float64)
    fmt = get_context("posit16").format
    kernel = fmt._build_bitkernel().compiled  # a float64 kernel in either switch position
    for indptr in ([0, 4, 2, 6], [0, 3, 7], [-1, 3, 6], []):  # decreasing, past the end, empty
        with pytest.raises(ValueError):
            reduce(vals, np.array(indptr, dtype=np.intp), False, None)
    with pytest.raises(ValueError):
        reduce(vals.reshape(2, 3), np.array([0, 3, 6]), False, None)
    with pytest.raises(TypeError):  # a float64 kernel, float32 values
        reduce(vals.astype(np.float32), None, False, kernel)
    with pytest.raises(TypeError):  # a callable in place of the kernel
        reduce(vals, None, False, fmt.round_array)
    with pytest.raises(TypeError):  # a resolver beside the kernel
        reduce(vals, None, False, kernel, fmt.round_array)
    with pytest.raises(TypeError):  # integer values
        reduce(np.arange(6), None, False, None)
    with pytest.raises(TypeError):  # not an array
        reduce([1.0, 2.0], None, False, None)
    assert reduce(vals, np.array([0, 2, 2, 6]), False, None).tolist() == [1, 0, 14]


def _drop_odd_leftover(self, buf):
    """The pairwise tree with the carry of the odd leftover removed."""
    parts = buf if buf.ndim == 1 else buf.transpose((buf.ndim - 1,) + tuple(range(buf.ndim - 1)))
    m = parts.shape[0]
    if m == 0:
        return np.zeros(buf.shape[:-1], dtype=self.dtype)
    while m > 1:
        half = m // 2
        parts = self.add(parts[0 : 2 * half : 2], parts[1 : 2 * half : 2])
        m = half
    return parts[0] if buf.ndim == 1 else np.ascontiguousarray(parts[0])


def test_reference_catches_a_dropped_odd_leftover(monkeypatch):
    monkeypatch.setattr(ComputeContext, "_reduce_last_axis", _drop_odd_leftover)
    bad = _mismatches("posit16", "pairwise")
    assert any(" m=3:" in line for line in bad)
    assert not any(" m=4:" in line or " m=8:" in line for line in bad)
