"""Bit-identity proofs for the integer bit-twiddling rounding engine.

The kernels in :mod:`repro.arithmetic.bitkernels` must reproduce the analytic
ground truth (``round_array_analytic`` / ``decode_code`` /
``encode_analytic``) bit for bit:

* **exhaustively** against the lookup tables for every format of <= 16 bits
  (all representable values, every adjacent-code midpoint — the exact
  rounding ties — and their work-precision neighbours);
* by **randomized, boundary and tie sweeps** against the preserved analytic
  kernels for the wide formats (posit32/64, takum32/64, float32/64; the
  64-bit tapered formats run the two-word extended kernel, the cast IEEE
  widths keep the hardware cast);
* through a shared **NaR/NaN/inf/signed-zero battery** for every family.

The sweep generators and comparators live in :mod:`tests._kernel_harness`;
the 64-bit extended-kernel battery is in ``test_bitkernels_64bit.py``.

The ``out=`` plumbing (``round_array(..., out=)`` through the contexts down
to the kernels) is checked for aliasing safety and allocation-free identity.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arithmetic import bitkernels as bk
from repro.arithmetic import get_context, get_format, table_for
from repro.arithmetic.base import SCALAR_CUTOFF
from tests._kernel_harness import (
    assert_rounded_equal,
    edge_battery,
    midpoint_sweep,
    random_sweep,
    solver_regime_sweep,
)

# these are identity proofs *of* the engine: with the engine globally
# disabled (the REPRO_DISABLE_BITKERNELS=1 analytic-only CI job) there is
# nothing to difference against
pytestmark = pytest.mark.skipif(
    not bk.bitkernels_enabled(),
    reason="bit kernels globally disabled (REPRO_DISABLE_BITKERNELS)",
)

#: formats with a one-word (float64) integer kernel, by family
KERNEL_FORMATS = [
    "posit8",
    "posit16",
    "posit32",
    "takum8",
    "takum16",
    "takum32",
    "float16",
    "bfloat16",
    "E5M2",
    "E4M3",
]
#: table-eligible formats (<= 16 bits): exhaustive identity required
TABLE_FORMATS = ["posit8", "posit16", "takum8", "takum16", "float16", "bfloat16", "E5M2", "E4M3"]
#: wide formats: sweep-based identity of the dispatch (the 64-bit tapered
#: formats round through the two-word extended kernel, the cast IEEE widths
#: through the hardware cast)
WIDE_FORMATS = ["posit32", "takum32", "posit64", "takum64", "float32", "float64"]

_U = np.uint64


def exhaustive_table_inputs(fmt) -> np.ndarray:
    """Every representable value, every adjacent midpoint (the exact ties)
    and their one-ulp float64 neighbours, for a <= 16-bit format."""
    table = table_for(fmt)
    assert table is not None, fmt.name
    mags = table.magnitudes
    mids = (mags[:-1] + mags[1:]) * 0.5  # exact: adjacent codes share bits
    around = np.concatenate(
        [
            mags,
            mids,
            np.nextafter(mids, np.inf),
            np.nextafter(mids, -np.inf),
            np.nextafter(mags, np.inf),
            np.nextafter(mags, -np.inf),
            [float(mags[-1]) * 2.0, float(mags[-1]) * 1e10],
        ]
    )
    return np.concatenate([around, -around, edge_battery()])


# --------------------------------------------------------------------- #
# rounding identity
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", TABLE_FORMATS)
def test_round_exhaustive_vs_tables(name):
    """Kernel rounding == table rounding == analytic, over every
    representable value and every exact tie of the format."""
    fmt = get_format(name)
    kern = fmt.bitkernel()
    assert kern is not None
    values = exhaustive_table_inputs(fmt)
    analytic = fmt.round_array_analytic(values)
    assert_rounded_equal(kern.round(values), analytic, f"{name} kernel-vs-analytic")
    assert_rounded_equal(
        table_for(fmt).round_values(values), analytic, f"{name} table-vs-analytic"
    )


@pytest.mark.parametrize("name", KERNEL_FORMATS)
@pytest.mark.parametrize("sweep", ["whole_range", "solver_regime"])
def test_round_random_sweeps(name, sweep):
    fmt = get_format(name)
    values = (
        random_sweep(fmt, 150_000, seed=5)
        if sweep == "whole_range"
        else solver_regime_sweep(fmt, 80_000, seed=6)
    )
    assert_rounded_equal(
        fmt.bitkernel().round(values),
        fmt.round_array_analytic(values),
        f"{name} {sweep}",
    )


@pytest.mark.parametrize("name", KERNEL_FORMATS)
def test_round_tie_sweep(name):
    """Exact midpoints of adjacent representable codes (the rounding ties)
    across the small, middle and large ends of the code range."""
    fmt = get_format(name)
    values = midpoint_sweep(fmt)
    assert_rounded_equal(
        fmt.bitkernel().round(values),
        fmt.round_array_analytic(values),
        f"{name} ties",
    )


@pytest.mark.parametrize("name", KERNEL_FORMATS)
def test_round_edge_battery(name):
    fmt = get_format(name)
    values = edge_battery()
    assert_rounded_equal(
        fmt.bitkernel().round(values), fmt.round_array_analytic(values), name
    )


@pytest.mark.parametrize("name", WIDE_FORMATS)
def test_wide_dispatch_matches_analytic(name):
    """``round_array`` (bit kernel for the 32-bit tapered formats, hardware
    cast / longdouble fallback elsewhere) stays bit-identical to the
    preserved analytic kernels across random/boundary/tie sweeps."""
    fmt = get_format(name)
    rng = np.random.default_rng(17)
    values = (
        rng.standard_normal(5_000) * np.exp(rng.uniform(-320, 320, 5_000))
    ).astype(fmt.work_dtype)
    battery = edge_battery(fmt.work_dtype)
    for sweep in (values, battery):
        got = fmt.round_array(sweep)
        expected = fmt.round_array_analytic(sweep)
        nan_g, nan_e = np.isnan(got), np.isnan(expected)
        assert np.array_equal(nan_g, nan_e), name
        assert np.array_equal(got[~nan_g], expected[~nan_e]), name


def test_64bit_formats_get_extended_kernel():
    """posit64/takum64 run in extended precision, served by the two-word
    extended kernels on 80-bit-longdouble hosts (the deep battery lives in
    ``test_bitkernels_64bit.py``)."""
    for name in ("posit64", "takum64"):
        fmt = get_format(name)
        kern = fmt.bitkernel()
        if not bk.extended_layout_supported():
            pytest.skip("host longdouble is not the two-word extended layout")
        assert kern is not None, name
        assert not kern.supports_codec, name


def test_cast_ieee_formats_have_no_kernel():
    """float32/float64 round via one hardware cast; no kernel can beat it."""
    for name in ("float32", "float64"):
        assert get_format(name).bitkernel() is None, name


# --------------------------------------------------------------------- #
# decode / encode identity
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", TABLE_FORMATS)
def test_decode_exhaustive(name):
    """Kernel decode == scalar ``decode_code`` for every code (this is the
    path the lookup-table engine builds its decode LUT through)."""
    fmt = get_format(name)
    codes = np.arange(1 << fmt.bits, dtype=np.uint64)
    expected = np.asarray([fmt.decode_code(int(c)) for c in codes], dtype=np.float64)
    assert_rounded_equal(fmt.bitkernel().decode(codes), expected, name)


@pytest.mark.parametrize("name", ["posit32", "takum32"])
def test_decode_sampled_32bit(name):
    fmt = get_format(name)
    rng = np.random.default_rng(23)
    codes = np.unique(
        np.concatenate(
            [
                rng.integers(0, 1 << 32, 30_000, dtype=np.uint64),
                np.arange(0, 4_096, dtype=np.uint64),  # tiny magnitudes
                (1 << 32) - 1 - np.arange(0, 4_096, dtype=np.uint64),
                (1 << 31) + np.arange(-2_048, 2_048, dtype=np.int64).astype(np.uint64),
            ]
        )
    )
    expected = np.asarray([fmt.decode_code(int(c)) for c in codes], dtype=np.float64)
    assert_rounded_equal(fmt.bitkernel().decode(codes), expected, name)


@pytest.mark.parametrize("name", KERNEL_FORMATS)
def test_encode_matches_analytic(name):
    fmt = get_format(name)
    values = fmt.round_array_analytic(random_sweep(fmt, 40_000, seed=5))
    expected = fmt.encode_analytic(values)
    assert np.array_equal(fmt.bitkernel().encode(values), expected), name
    # the format-level dispatch must agree as well (table- or kernel-served)
    assert np.array_equal(fmt.encode(values), expected), name


@pytest.mark.parametrize("name", KERNEL_FORMATS)
def test_encode_decode_roundtrip(name):
    fmt = get_format(name)
    kern = fmt.bitkernel()
    values = fmt.round_array_analytic(solver_regime_sweep(fmt, 10_000))
    if name == "E4M3":
        # E4M3 has no signed-zero code: -0.0 canonicalises to +0.0 on encode
        values = np.where(values == 0.0, 0.0, values)
    codes = kern.encode(values)
    assert_rounded_equal(kern.decode(codes), values, name)


# --------------------------------------------------------------------- #
# out= plumbing
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ["posit32", "takum32", "posit16", "bfloat16", "E4M3", "posit64"])
def test_round_array_out(name):
    """``round_array(values, out=)`` writes into ``out`` (including when it
    aliases the input) and matches the allocating form bit for bit."""
    fmt = get_format(name)
    rng = np.random.default_rng(31)
    values = (rng.standard_normal(512) * np.exp(rng.uniform(-20, 20, 512))).astype(
        fmt.work_dtype
    )
    expected = fmt.round_array(values.copy())
    out = np.empty_like(values)
    res = fmt.round_array(values, out=out)
    assert res is out
    assert np.array_equal(out, expected, equal_nan=True), name
    aliased = values.copy()
    res = fmt.round_array(aliased, out=aliased)
    assert res is aliased
    assert np.array_equal(aliased, expected, equal_nan=True), name


@pytest.mark.parametrize("name", ["posit32", "posit16", "E4M3", "float32", "reference"])
def test_context_ops_round_in_place(name):
    """The contexts' elementwise ops honour ``out=`` and produce the same
    rounded values as the allocating form."""
    ctx = get_context(name)
    rng = np.random.default_rng(37)
    a = ctx.round(rng.standard_normal(64))
    b = ctx.round(rng.standard_normal(64) + 1.5)
    expected = ctx.add(a, b)
    buf = np.empty_like(np.asarray(expected))
    got = ctx.add(a, b, out=buf)
    assert got is buf
    assert np.array_equal(np.asarray(got), np.asarray(expected), equal_nan=True)
    # aliasing an operand is the in-place accumulation path
    acc = np.array(a, copy=True)
    got = ctx.add(acc, b, out=acc)
    assert got is acc
    assert np.array_equal(acc, np.asarray(expected), equal_nan=True)


@pytest.mark.parametrize("name", ["posit32", "posit16", "E4M3"])
def test_out_supports_noncontiguous_views(name):
    """Updating a column view in place must not write into a ravel() copy
    (the FArray ``V[:, j] += w`` pattern)."""
    ctx = get_context(name)
    rng = np.random.default_rng(47)
    for n in (4, 64):  # scalar-loop path and vector-kernel path
        M = np.asarray(ctx.round(rng.standard_normal((n, 3))))
        col = M[:, 1]  # non-contiguous view
        w = np.asarray(ctx.round(rng.standard_normal(n)))
        expected = np.asarray(ctx.add(col.copy(), w))
        got = ctx.add(col, w, out=col)
        assert got is col
        assert np.array_equal(M[:, 1], expected, equal_nan=True), (name, n)


@pytest.mark.parametrize("name", ["posit16", "posit64"])  # one- and two-word kernels
def test_scratch_cache_bounds_large_calls(name):
    """Exact sizes up to the limit are cached; larger calls share one
    most-recent slot, which repeated same-size calls reuse."""
    fmt = get_format(name)
    kern = fmt.bitkernel()
    big = bk._MAX_SCRATCH_ELEMENTS + 1
    for size in (25, 100, big, big + 7, big + 7):
        values = np.linspace(-3.0, 3.0, size).astype(fmt.work_dtype)
        assert np.array_equal(kern.round(values), fmt.round_array_analytic(values))
    assert 0 < max(kern._scratch) <= bk._MAX_SCRATCH_ELEMENTS
    assert kern._large_scratch[0] == big + 7
    assert kern._scratch_for(big + 7) is kern._large_scratch[1]


def test_farray_inplace_operators_match_out_of_place():
    ctx = get_context("posit16")
    rng = np.random.default_rng(41)
    base = rng.standard_normal(96)
    other = rng.standard_normal(96) * 3.0
    for op in ("add", "sub", "mul", "truediv"):
        x = ctx.array(base)
        y = ctx.array(other)
        expected = {
            "add": x + y,
            "sub": x - y,
            "mul": x * y,
            "truediv": x / y,
        }[op]
        z = ctx.array(base)
        buf = z.data
        if op == "add":
            z += y
        elif op == "sub":
            z -= y
        elif op == "mul":
            z *= y
        else:
            z /= y
        assert z.data is buf, op  # genuinely in place, no reallocation
        assert np.array_equal(z.data, expected.data, equal_nan=True), op


def test_farray_inplace_on_zero_dim_buffer():
    """Regression: the contexts' all-scalar branch ignores ``out=`` for a
    0-d buffer, so ``+=`` used to silently drop the update."""
    ctx = get_context("posit16")
    for value, operand, op in ((2.0, 1.0, "add"), (2.0, 3.0, "mul")):
        # ctx.array routes 0-d input to FScalar; ctx.wrap keeps the buffer
        a = ctx.wrap(np.asarray(value, dtype=ctx.dtype))
        assert a.data.ndim == 0
        buf = a.data
        if op == "add":
            a += operand
            expected = ctx.add(value, operand)
        else:
            a *= operand
            expected = ctx.mul(value, operand)
        assert a.data is buf
        assert float(a.data) == float(expected)


# --------------------------------------------------------------------- #
# engine plumbing
# --------------------------------------------------------------------- #
def test_disable_switch_falls_back_to_analytic():
    fmt = get_format("posit32")
    values = np.asarray([0.3, -1.7, 1e30, -1e-30])
    previous = bk.set_enabled(False)
    try:
        assert fmt.bitkernel() is None
        assert np.array_equal(fmt.round_array(values), fmt.round_array_analytic(values))
    finally:
        bk.set_enabled(previous)
    assert fmt.bitkernel() is not None


def test_use_tables_false_bypasses_bitkernels():
    """The verification context must run the pure analytic kernels even for
    formats whose default dispatch is the bit kernel."""
    ctx = get_context("posit32", use_tables=False)
    values = np.asarray([0.3, -1.7, 64.25, 1e-40])
    assert np.array_equal(
        ctx.round(values), get_format("posit32").round_array_analytic(values)
    )


def test_table_construction_decodes_via_bitkernels():
    """The lookup tables are built from the vectorised kernel decode; their
    decode LUT must equal the scalar decoder exactly (NaN-aware)."""
    fmt = get_format("takum16")
    table = table_for(fmt)
    sample = np.concatenate(
        [np.arange(0, 2_000, dtype=np.uint64), np.arange(30_000, 34_000, dtype=np.uint64)]
    )
    expected = np.asarray([fmt.decode_code(int(c)) for c in sample])
    assert_rounded_equal(table.decode_values(sample), expected, "takum16 lut")


def test_scalar_cutoff_path_unchanged():
    """Tiny arrays still take the scalar loop, not the kernel (dispatch)."""
    fmt = get_format("posit32")
    rng = np.random.default_rng(43)
    values = rng.standard_normal(SCALAR_CUTOFF)
    assert np.array_equal(fmt.round_array(values), fmt.round_array_analytic(values))


@pytest.mark.extended_longdouble
def test_longdouble_capability_flag_consistent():
    from repro.arithmetic import LONGDOUBLE_EXTENDED

    assert LONGDOUBLE_EXTENDED
    assert np.finfo(np.longdouble).nmant > 52
