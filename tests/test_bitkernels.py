"""Bit-identity proofs for the compiled rounding engine.

The kernels in :mod:`repro.arithmetic.bitkernels` must reproduce the
differential reference of ``tests/_reference.py`` bit for bit, NaN bits
included, in either position of the bit-kernel switch (through the integer
lookup tables, or by the format's rule alone), and the formats' codecs
(``decode``/``encode``) must agree with the exact decoder of
``tests/_oracle.py``:

* **exhaustively** for every format of <= 16 bits (all representable
  values, every adjacent-code midpoint — the exact rounding ties — and
  their work-precision neighbours);
* by **randomized, boundary and tie sweeps** for the wide formats
  (posit32/64, takum32/64, float32/64; the 64-bit tapered formats run the
  two-word extended kernel, the cast IEEE widths keep the hardware cast);
* through a shared **NaR/NaN/inf/signed-zero battery** for every family;
* for the codecs: every code of every format of <= 16 bits, and for the
  wide formats every binade edge, the subnormals, NaN/NaR and ±0 plus
  codes drawn by ``hypothesis``.

The sweep generators and comparators live in :mod:`tests._kernel_harness`;
the 64-bit extended-kernel battery is in ``test_bitkernels_64bit.py``.

The ``out=`` plumbing (``round_array(..., out=)`` through the contexts down
to the kernels) is checked for aliasing safety and allocation-free identity.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arithmetic import bitkernels as bk
from repro.arithmetic import get_context, get_format, preload_tables
from repro.arithmetic.context import EmulatedContext
from tests import _oracle
from tests._reference import round_array_analytic
from tests._kernel_harness import (
    CANONICAL_NAN_CODES,
    E4M3_SATURATING,
    UNREGISTERED_TAPERED,
    assert_rounded_equal,
    assert_same_words,
    differential_round_check,
    edge_battery,
    exhaustive_sweep,
    format_for,
    midpoint_sweep,
    random_sweep,
    solver_regime_sweep,
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
    E4M3_SATURATING,
    *UNREGISTERED_TAPERED,
]
#: formats of <= 16 bits: exhaustive identity required
NARROW_FORMATS = ["posit8", "posit16", "takum8", "takum16", "float16", "bfloat16", "E5M2", "E4M3"]
NARROW_FORMATS += [E4M3_SATURATING]
NARROW_FORMATS += [name for name in UNREGISTERED_TAPERED if format_for(name).bits <= 16]
#: wide formats: sweep-based identity of the dispatch (the 64-bit tapered
#: formats round through the two-word extended kernel, the cast IEEE widths
#: through the hardware cast)
WIDE_FORMATS = ["posit32", "takum32", "posit64", "takum64", "float32", "float64"]

_U = np.uint64


# --------------------------------------------------------------------- #
# rounding identity
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", NARROW_FORMATS)
def test_round_exhaustive_vs_analytic(name):
    """Kernel rounding == ``round_array`` == ``round_scalar`` == the
    reference, over every representable value and every exact tie of the
    format, word for word."""
    fmt = format_for(name)
    kern = fmt.bitkernel()
    assert kern is not None
    values = exhaustive_sweep(fmt)
    differential_round_check(fmt, kern.round, values, " kernel")
    reference = round_array_analytic(fmt, values)
    assert_same_words(fmt.round_array(values), reference, f"{name} round_array")
    scalar = np.array([fmt.round_scalar(v) for v in values.tolist()])
    assert_same_words(scalar, reference, f"{name} round_scalar")


@pytest.mark.parametrize("name", KERNEL_FORMATS)
@pytest.mark.parametrize("sweep", ["whole_range", "solver_regime"])
def test_round_random_sweeps(name, sweep):
    fmt = format_for(name)
    values = (
        random_sweep(fmt, 150_000, seed=5)
        if sweep == "whole_range"
        else solver_regime_sweep(fmt, 80_000, seed=6)
    )
    assert_same_words(
        fmt.bitkernel().round(values),
        round_array_analytic(fmt, values),
        f"{name} {sweep}",
    )


@pytest.mark.parametrize("name", KERNEL_FORMATS)
def test_round_tie_sweep(name):
    """Exact midpoints of adjacent representable codes (the rounding ties)
    across the small, middle and large ends of the code range."""
    fmt = format_for(name)
    values = midpoint_sweep(fmt)
    assert_same_words(
        fmt.bitkernel().round(values),
        round_array_analytic(fmt, values),
        f"{name} ties",
    )


@pytest.mark.parametrize("name", KERNEL_FORMATS)
def test_round_edge_battery(name):
    fmt = format_for(name)
    values = edge_battery()
    assert_same_words(fmt.bitkernel().round(values), round_array_analytic(fmt, values), name)


@pytest.mark.parametrize("name", WIDE_FORMATS)
def test_wide_dispatch_matches_analytic(name):
    """``round_array`` (the one-word kernel for the 32-bit tapered formats,
    the extended kernel for the 64-bit ones, the hardware cast for
    float32/float64) stays word-identical to the reference across random
    and edge sweeps."""
    fmt = format_for(name)
    rng = np.random.default_rng(17)
    values = (
        rng.standard_normal(5_000) * np.exp(rng.uniform(-320, 320, 5_000))
    ).astype(fmt.work_dtype)
    battery = edge_battery(fmt.work_dtype)
    for sweep in (values, battery):
        assert_same_words(fmt.round_array(sweep), round_array_analytic(fmt, sweep), name)


def test_64bit_formats_get_extended_kernel():
    """posit64/takum64 run in extended precision, served by the two-word
    extended kernels on 80-bit-longdouble hosts (the deep battery lives in
    ``test_bitkernels_64bit.py``)."""
    for name in ("posit64", "takum64"):
        fmt = format_for(name)
        kern = fmt.bitkernel()
        if not bk.extended_layout_supported():
            pytest.skip("host longdouble is not the two-word extended layout")
        assert kern is not None, name


def test_cast_ieee_formats_have_no_kernel():
    """float32/float64 round via one hardware cast; no kernel can beat it."""
    for name in ("float32", "float64"):
        assert get_format(name).bitkernel() is None, name


#: the float64 words of NaN, -NaN, inf and -inf
_NAN, _NEG_NAN, _INF, _NEG_INF = 0x7FF8 << 48, 0xFFF8 << 48, 0x7FF0 << 48, 0xFFF0 << 48


def _pinned_words(name) -> tuple:
    """``(NaN, -NaN, inf, -inf)`` rounded to the format ``name``, and the
    pairwise sums of ``[max, max]`` and ``[-max, -max]``, as float64
    words (``None``: the format's largest value, of that sign)."""
    if name in ("float16", "bfloat16", "E5M2"):  # NaN bits and ±inf kept
        return (_NAN, _NEG_NAN, _INF, _NEG_INF), (_INF, _NEG_INF)
    if name == "E4M3":  # NaN to NaN; ±inf and overflow to the NaN of their sign
        return (_NAN, _NAN, _NAN, _NEG_NAN), (_NAN, _NEG_NAN)
    if name == E4M3_SATURATING:  # NaN to NaN; ±inf and overflow to ±448
        w448 = int(np.float64(448.0).view(np.uint64))
        return (_NAN, _NAN, w448, w448 | 1 << 63), (w448, w448 | 1 << 63)
    return (_NAN,) * 4, (None, None)  # posit and takum: NaR; sums saturate


@pytest.mark.parametrize("enabled", [True, False], ids=["lut", "rule"])
@pytest.mark.parametrize("name", KERNEL_FORMATS + ["posit64", "takum64"])
def test_nonfinite_words_are_pinned(name, enabled):
    """NaN, -NaN, inf and -inf round to the words each standard fixes,
    through ``round_one`` and ``round_array``, in both switch positions,
    and so does a pairwise sum that overflows: IEEE formats keep NaN bits
    and ±inf, E4M3 maps NaN to +NaN and ±inf to the NaN of its sign (±448
    saturating), posits and takums map all four to NaR (+NaN) and saturate
    the sum.  x87 values compare their 10 value bytes, with zero padding."""
    fmt = format_for(name)
    wd = fmt.work_dtype
    specials, sums = _pinned_words(name)
    words = np.asarray(specials, dtype=np.uint64).view(np.float64)
    expected = words.astype(wd)  # NaN bits survive the widening
    previous = bk.set_enabled(enabled)
    try:
        inputs = np.asarray([np.nan, -np.nan, np.inf, -np.inf], dtype=wd)
        assert_same_words(fmt.round_array(inputs), expected, f"{name} round_array", zero_padding=True)
        scalars = np.zeros(4, dtype=wd)
        slots = scalars.view(np.uint8).reshape(4, -1)
        for i, v in enumerate(inputs):
            slots[i] = np.frombuffer(memoryview(fmt._round_one(v)).cast("B"), dtype=np.uint8)
        assert_same_words(scalars, expected, f"{name} round_one", zero_padding=True)
        top = wd(fmt.max_value)
        ctx = EmulatedContext(fmt)
        overflow = ctx.reduce_sum(np.asarray([[top, top], [-top, -top]], dtype=wd))
    finally:
        bk.set_enabled(previous)
    want = np.asarray([top, -top], dtype=wd)
    if sums[0] is not None:
        want = np.asarray(sums, dtype=np.uint64).view(np.float64).astype(wd)
    assert_same_words(overflow, want, f"{name} overflowing sum", zero_padding=True)


# --------------------------------------------------------------------- #
# decode / encode identity
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", NARROW_FORMATS)
def test_decode_exhaustive(name):
    """``decode`` == the oracle for every code, word for word (this is the
    path the narrow formats build their magnitude tables through)."""
    fmt = format_for(name)
    codes = np.arange(1 << fmt.bits, dtype=np.uint64)
    assert_same_words(fmt.decode(codes), _oracle.values(fmt, codes), name)


@pytest.mark.parametrize("name", ["posit32", "takum32"])
def test_decode_sampled_32bit(name):
    fmt = format_for(name)
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
    assert_same_words(fmt.decode(codes), _oracle.values(fmt, codes), name)


def _check_wide_codes(fmt, codes):
    """``decode`` agrees with the oracle word for word, and ``encode``
    returns every code it decoded (NaN codes: the canonical one)."""
    codes = np.asarray(codes, dtype=np.uint64)
    decoded = fmt.decode(codes)
    assert decoded.dtype == fmt.work_dtype
    assert_same_words(decoded, _oracle.values(fmt, codes), fmt.name)
    expected = np.where(np.isnan(decoded), np.uint64(CANONICAL_NAN_CODES[fmt.name]), codes)
    assert np.array_equal(fmt.encode(decoded), expected), fmt.name


@pytest.mark.parametrize("name", WIDE_FORMATS)
def test_wide_codec_at_every_binade_edge(name):
    """Every binade edge of the wide formats (subnormals included), ±0,
    NaN/NaR and infinities: decode equals the oracle and encode inverts
    it."""
    fmt = format_for(name)
    _check_wide_codes(fmt, _oracle.edge_codes(fmt))


@pytest.mark.parametrize("name", WIDE_FORMATS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_wide_codec_sampled_codes(name, data):
    """Codes drawn uniformly and from the binade edges, in batches."""
    fmt = format_for(name)
    edges = st.sampled_from(_oracle.edge_codes(fmt).tolist())
    code = st.one_of(st.integers(0, (1 << fmt.bits) - 1), edges)
    _check_wide_codes(fmt, data.draw(st.lists(code, min_size=1, max_size=64)))


@pytest.mark.parametrize("name", KERNEL_FORMATS)
def test_encode_matches_analytic(name):
    """``encode`` of the reference's rounded values gives codes whose oracle
    values are those values (zero signs included, E4M3's ``-0.0`` aside:
    it has no signed-zero code), and the canonical code for every NaN."""
    fmt = format_for(name)
    values = round_array_analytic(fmt, random_sweep(fmt, 40_000, seed=5))
    if name in ("E4M3", E4M3_SATURATING):
        values = np.where(values == 0.0, 0.0, values)
    codes = fmt.encode(values)
    assert_rounded_equal(_oracle.values(fmt, codes), values, name)
    nan = np.isnan(values)
    assert nan.any() and np.all(codes[nan] == CANONICAL_NAN_CODES[name]), name


@pytest.mark.parametrize("name", KERNEL_FORMATS)
def test_encode_decode_roundtrip(name):
    fmt = format_for(name)
    values = round_array_analytic(fmt, solver_regime_sweep(fmt, 10_000))
    if name in ("E4M3", E4M3_SATURATING):
        # E4M3 has no signed-zero code: -0.0 canonicalises to +0.0 on encode
        values = np.where(values == 0.0, 0.0, values)
    codes = fmt.encode(values)
    assert_rounded_equal(fmt.decode(codes), values, name)


# --------------------------------------------------------------------- #
# out= plumbing
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ["posit32", "takum32", "posit16", "bfloat16", "E4M3", "posit64"])
def test_round_array_out(name):
    """``round_array(values, out=)`` writes into ``out`` (including when it
    aliases the input) and matches the allocating form bit for bit."""
    fmt = format_for(name)
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
def test_kernel_rounds_any_size_and_layout(name):
    """The compiled kernel keeps no per-size state: every size, repeated
    sizes, non-contiguous inputs and outputs, and an ``out`` that overlaps
    the input without aliasing it all round like the reference."""
    fmt = format_for(name)
    kern = fmt.bitkernel()
    for size in (0, 1, 25, 100, 1025, 1032, 1032):
        values = np.linspace(-3.0, 3.0, size).astype(fmt.work_dtype)
        assert np.array_equal(kern.round(values), round_array_analytic(fmt, values))
    values = np.linspace(-5.0, 5.0, 64).astype(fmt.work_dtype)
    expected = round_array_analytic(fmt, values)
    strided = np.repeat(values, 2)[::2]
    assert not strided.flags.c_contiguous
    assert np.array_equal(kern.round(strided), expected)
    grid = np.zeros((64, 3), dtype=fmt.work_dtype)
    assert kern.round(values, out=grid[:, 1]) is not None
    assert np.array_equal(grid[:, 1], expected)
    shifted = np.concatenate([values, values[-1:]])
    kern.round(shifted[1:], out=shifted[:-1])  # overlapping, not aliased
    moved = np.concatenate([values[1:], values[-1:]])
    assert np.array_equal(shifted[:-1], round_array_analytic(fmt, moved))


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
def test_import_builds_no_kernel():
    """``import repro.arithmetic`` in a fresh interpreter neither builds nor
    loads the compiled library, and a format decodes without building its
    kernel (the codec is the format's own)."""
    script = (
        "import numpy as np\n"
        "import repro.arithmetic as ra\n"
        "from repro.arithmetic import bitkernels\n"
        "assert bitkernels._extension is None\n"
        "fmt = ra.get_format('E4M3')\n"
        "assert fmt.decode(0x38) == 1.0 and fmt.decode(np.arange(256)).shape == (256,)\n"
        "assert bitkernels._extension is None\n"
        "assert '_kernels_built' not in fmt.__dict__\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_disable_switch_falls_back_to_analytic():
    """The switch off builds the kernel without its lookup tables: it
    rounds every value by the format's rule, like the reference."""
    fmt = get_format("posit32")
    values = np.asarray([0.3, -1.7, 1e30, -1e-30, np.inf, np.nan])
    previous = bk.set_enabled(False)
    try:
        assert fmt.bitkernel()._special is None
        assert_same_words(fmt.round_array(values), round_array_analytic(fmt, values))
    finally:
        bk.set_enabled(previous)
    assert (fmt.bitkernel()._special is None) == (not previous)


def test_analytic_kernels_bypass_bitkernels():
    """With the integer transform disabled a context rounds by the format's
    rule alone; it agrees with the switched-on kernel and the reference bit
    for bit.  The ops that round their work buffer in place (an aliased
    ``out``, a fresh product, the Givens rotation) give the
    reference's words too."""
    values = np.tile([0.3, -1.7, 64.25, 1e-40], 8)
    other = np.tile([1.1, -0.7, 3.0, 2e-3], 8)
    c, s = 0.6, 0.8
    fmt = get_format("posit32")
    fast = get_context("posit32").round(values)
    previous = bk.set_enabled(False)
    try:
        ctx = get_context("posit32")
        analytic = ctx.round(values)
        acc = analytic.copy()
        summed = ctx.add(acc, other, out=acc)
        product = ctx.mul(analytic, other)
        rotated = ctx.rotate_columns(c, s, analytic, product)
    finally:
        bk.set_enabled(previous)
    def ref(values):
        return round_array_analytic(fmt, values)

    assert np.array_equal(analytic, ref(values))
    assert np.array_equal(analytic, fast)
    assert summed is acc
    assert np.array_equal(summed, ref(analytic + other))
    assert np.array_equal(product, ref(analytic * other))
    prods = ref(np.stack((c * analytic, s * product, s * analytic, c * product)))
    assert np.array_equal(rotated, ref(np.stack((prods[0] - prods[1], prods[2] + prods[3]))))


@pytest.mark.parametrize("name", ["posit16", "takum16", "E4M3"])
def test_magnitude_tables_match_oracle(name):
    """The narrow formats enumerate the magnitude tables their rules search
    through their own ``decode`` (built here by ``preload_tables``); the
    table must equal the oracle's exactly, codes included."""
    fmt = format_for(name)
    preload_tables([name])
    assert "_table" in fmt.__dict__
    for got, expected in zip(fmt._table, _oracle.table(fmt)):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected), name


def test_scalar_cutoff_path_unchanged():
    """Arrays of a few elements round through the kernel like the
    reference."""
    fmt = get_format("posit32")
    rng = np.random.default_rng(43)
    values = rng.standard_normal(8)
    assert np.array_equal(fmt.round_array(values), round_array_analytic(fmt, values))


@pytest.mark.extended_longdouble
def test_longdouble_capability_flag_consistent():
    from repro.arithmetic import LONGDOUBLE_EXTENDED

    assert LONGDOUBLE_EXTENDED
    assert np.finfo(np.longdouble).nmant > 52
