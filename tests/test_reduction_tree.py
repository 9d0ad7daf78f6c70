"""The rounded reduction tree against an independent level-by-level spelling.

Every rounded contraction of :class:`~repro.arithmetic.context.ComputeContext`
(``reduce_sum``, ``dot``, ``gemv``, ``gemv_t``, ``gemm``) forms its rounded
products and reduces them along one axis.  The reference below spells that
reduction the plain way: the pairwise strategy concatenates the rounded sums
of adjacent pairs with any odd leftover, level by level, through ``ctx.add``;
the sequential strategy adds left to right.  The products of ``gemv``,
``gemv_t`` and ``gemm`` are formed row by row.  Every result word and the op
tally must match, at every length from 0 to 70, for 1-D, 2-D, 3-D and
transposed (F-ordered) inputs holding ±0, ±inf, NaN and the extreme
magnitudes of each arithmetic, in every paper format and the reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arithmetic import LONGDOUBLE_EXTENDED, get_context
from repro.arithmetic.context import ComputeContext
from repro.arithmetic.registry import PAPER_FORMATS

CONTEXTS = [name for width in (8, 16, 32, 64) for name in PAPER_FORMATS[width]] + ["reference"]
LENGTHS = range(71)


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


def _mismatches(name: str, accumulation: str) -> list:
    """Every case whose kernel words or op tally differ from the reference."""
    kernel = get_context(name, accumulation=accumulation)
    reference = get_context(name, accumulation=accumulation)
    bad = []
    with np.errstate(all="ignore"):
        for m in LENGTHS:
            for label, call, spelled in _cases(kernel, m):
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
    assert _mismatches(name, accumulation) == []


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
