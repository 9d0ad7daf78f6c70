"""Bit-identity battery for the two-word (extended) 64-bit bit kernels.

posit64/takum64 round in 80-bit extended precision; on hosts whose
``np.longdouble`` is the x87 two-word layout they are served by
``PositExtendedBitKernel``/``TakumExtendedBitKernel``, which must be
bit-identical to the differential reference of ``tests/_reference.py`` in
either position of the bit-kernel switch (through the lookup tables, or by
the format's rule alone):

* differential random/boundary/midpoint sweeps (:mod:`tests._kernel_harness`);
* **tie-exhaustive coverage**: sampled regime/binade boundaries across each
  format's full dynamic range, with *all* adjacent-code midpoints in a
  window around every boundary asserted against the reference and the
  ties-to-even-code rule;
* **forced-fallback regression**: with ``LONGDOUBLE_EXTENDED`` monkeypatched
  off (the Windows/ARM degradation), the 64-bit formats must drop to float64
  work precision, keep a bit-exact one-word kernel, and emit no
  precision-loss warning — Windows/ARM correctness tested on Linux CI
  rather than hoped for.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from repro.arithmetic import bitkernels as bk
from repro.arithmetic import get_context, get_format
from repro.arithmetic import base as base_mod
from repro.arithmetic.bitkernels import (
    PositExtendedBitKernel,
    TakumExtendedBitKernel,
    extended_layout_supported,
)
from repro.arithmetic.posit import PositFormat
from repro.arithmetic.takum import TakumFormat
from tests import _oracle
from tests._reference import round_array_analytic
from tests._kernel_harness import (
    assert_rounded_equal,
    assert_same_words,
    binade_boundary_codes,
    code_midpoints,
    differential_round_check,
    midpoint_sweep,
    random_sweep,
    run_differential_sweeps,
)

FORMATS_64 = ["posit64", "takum64"]

extended_only = pytest.mark.skipif(
    not extended_layout_supported(),
    reason="host longdouble is not the two-word x87 extended layout",
)


def boundary_exponents(fmt, count=33):
    """Binade exponents sampled across the format's full range, always
    including the dense-precision centre and the range extremes."""
    top = int(math.log2(float(fmt.max_value)))
    sampled = np.unique(
        np.concatenate(
            [
                np.linspace(-top, top, count).astype(int),
                [-top, -top + 1, -2, -1, 0, 1, 2, top - 1, top],
            ]
        )
    )
    return sampled


# --------------------------------------------------------------------- #
# extended-kernel identity (extended hosts)
# --------------------------------------------------------------------- #
@extended_only
@pytest.mark.parametrize("name", FORMATS_64)
def test_extended_kernel_differential_sweeps(name):
    fmt = get_format(name)
    kern = fmt.bitkernel()
    assert isinstance(kern, (PositExtendedBitKernel, TakumExtendedBitKernel))
    assert fmt.work_dtype is np.longdouble
    run_differential_sweeps(fmt, kern.round, n=30_000, seed=13)


@extended_only
@pytest.mark.parametrize("name", FORMATS_64)
def test_tie_exhaustive_at_binade_boundaries(name):
    """All adjacent-code midpoints around sampled regime/binade boundaries
    round ties-to-even, identically to the reference."""
    fmt = get_format(name)
    kern = fmt.bitkernel()
    codes = binade_boundary_codes(fmt, boundary_exponents(fmt), window=24)
    mids = code_midpoints(fmt, codes)
    assert mids.size > 1_000, "boundary sampling produced too few ties"
    differential_round_check(fmt, kern.round, mids, " boundary-ties")
    # the tie rule itself: every exact midpoint must land on an even code
    rounded = round_array_analytic(fmt, mids)
    finite = np.isfinite(rounded) & (rounded != 0)
    recoded = fmt.encode(rounded[finite])
    assert not np.any(recoded & np.uint64(1)), f"{name}: tie broke to an odd code"


@extended_only
@pytest.mark.parametrize("name", FORMATS_64)
def test_encode_roundtrips_boundary_codes(name):
    """``encode`` of the oracle's value of ``c`` is ``c`` around every
    sampled binade boundary (regression: the encoders used to round the
    59-bit fraction through float64, shifting codes near characteristic
    transitions)."""
    fmt = get_format(name)
    codes = binade_boundary_codes(fmt, boundary_exponents(fmt), window=24)
    values = _oracle.values(fmt, codes)
    assert values.dtype == np.longdouble
    recoded = fmt.encode(values)
    assert np.array_equal(recoded, codes.astype(np.uint64)), name


@extended_only
@pytest.mark.parametrize("name", FORMATS_64)
def test_extended_kernel_out_aliasing(name):
    """``out=`` may alias the input or be a non-contiguous view."""
    fmt = get_format(name)
    kern = fmt.bitkernel()
    rng = np.random.default_rng(29)
    x = (np.longdouble(2.0) ** rng.uniform(-80, 80, 96).astype(np.longdouble)) * np.sign(
        rng.standard_normal(96)
    ).astype(np.longdouble)
    expected = round_array_analytic(fmt, x.copy())
    aliased = x.copy()
    res = kern.round(aliased, out=aliased)
    assert res is aliased
    assert_rounded_equal(aliased, expected, f"{name} aliased out")
    mat = np.zeros((96, 3), dtype=np.longdouble)
    col = mat[:, 1]
    kern.round(x, out=col)
    assert_rounded_equal(mat[:, 1], expected, f"{name} column out")


@extended_only
@pytest.mark.parametrize("name", FORMATS_64)
def test_dispatch_round_array_uses_extended_kernel(name):
    """``round_array`` is bit-identical to the reference (it routes
    through the extended kernel)."""
    fmt = get_format(name)
    rng = np.random.default_rng(31)
    x = (np.longdouble(2.0) ** rng.uniform(-200, 200, 4_096).astype(np.longdouble)) * np.sign(
        rng.standard_normal(4_096)
    ).astype(np.longdouble)
    assert_same_words(fmt.round_array(x.copy()), round_array_analytic(fmt, x.copy()), name)


@extended_only
@pytest.mark.parametrize("name", FORMATS_64)
def test_extended_kernel_has_no_codec(name):
    """The two-word kernels only round; the format's own codec decodes and
    encodes in ``long double``, exactly as the oracle."""
    fmt = get_format(name)
    kern = fmt.bitkernel()
    assert not hasattr(kern, "decode") and not hasattr(kern, "encode")
    codes = _oracle.edge_codes(fmt)
    decoded = fmt.decode(codes)
    assert decoded.dtype == np.longdouble
    assert_same_words(decoded, _oracle.values(fmt, codes), name)


@pytest.mark.parametrize("name", FORMATS_64)
def test_disable_switch_removes_64bit_kernel(name):
    """The switch off leaves the 64-bit kernels without their lookup
    tables: they round by the rule alone, in ``long double``."""
    previous = bk.set_enabled(False)
    try:
        fmt = get_format(name)
        assert fmt.bitkernel()._special is None
        x = np.asarray([0.3, -1.7, 1e30, np.inf, np.nan], dtype=fmt.work_dtype)
        assert_same_words(fmt.round_array(x), round_array_analytic(fmt, x), name)
    finally:
        bk.set_enabled(previous)


# --------------------------------------------------------------------- #
# forced fallback: the Windows/ARM degradation, simulated on any host
# --------------------------------------------------------------------- #
@pytest.fixture
def degraded_longdouble(monkeypatch):
    """Pretend the host longdouble collapses to float64."""
    monkeypatch.setattr(base_mod, "LONGDOUBLE_EXTENDED", False)


@pytest.mark.parametrize("family", [PositFormat, TakumFormat])
def test_forced_fallback_is_warning_free(degraded_longdouble, family):
    """Constructing the 64-bit formats on a degraded platform must not emit
    a RuntimeWarning: they degrade cleanly to float64 work precision."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fmt = family(64)
    assert fmt.work_dtype is np.float64


@pytest.mark.parametrize("family", [PositFormat, TakumFormat])
def test_forced_fallback_keeps_bit_exact_kernel(degraded_longdouble, family):
    """On degraded platforms the 64-bit formats get the one-word kernel
    (binades finer than float64 become identity rows) and stay bit-exact
    against the reference at float64 work precision."""
    fmt = family(64)
    kern = fmt.bitkernel()
    assert kern is not None
    assert kern.work_dtype is np.float64  # the plain one-word family kernel
    run_differential_sweeps(fmt, kern.round, n=30_000, seed=17)


@pytest.mark.parametrize("family", [PositFormat, TakumFormat])
def test_forced_fallback_dispatch_round_array(degraded_longdouble, family):
    fmt = family(64)
    rng = np.random.default_rng(19)
    x = rng.standard_normal(2_048) * 10.0 ** rng.uniform(-300, 300, 2_048)
    assert_same_words(fmt.round_array(x.copy()), round_array_analytic(fmt, x.copy()), fmt.name)


# --------------------------------------------------------------------- #
# the compiled scalar entry: BitKernel.round_one
# --------------------------------------------------------------------- #
_EXP_FIELDS = 1 << 15
_SIG_TOP = 1 << 63


def _from_words(sigs, his) -> np.ndarray:
    """Longdouble array assembled from significand and sign/exponent words."""
    words = np.empty(2 * len(sigs), dtype=np.uint64)
    words[0::2] = np.asarray(sigs, dtype=np.uint64)
    words[1::2] = np.asarray(his, dtype=np.uint64)
    return words.view(np.longdouble)


def _scalar_padding(value) -> bytes:
    """The six padding bytes of a longdouble scalar, read from its buffer."""
    return bytes(memoryview(value).cast("B"))[10:]


def _round_one_elementwise(fmt):
    """``round_one`` element by element, each result's 16 bytes copied as
    they are (padding included)."""
    kern = fmt.bitkernel()

    def round_fn(values):
        out = np.empty(values.shape, dtype=np.longdouble)
        slots = out.reshape(-1).view(np.uint8).reshape(-1, out.itemsize)
        for i, v in enumerate(values):
            slots[i] = np.frombuffer(memoryview(kern.round_one(v)).cast("B"), dtype=np.uint8)
        return out

    return round_fn


def _assert_round_one_words(fmt, values, context):
    """``round_one`` on every value equals the reference word for word, and
    returns scalars with zero padding."""
    kern = fmt.bitkernel()
    got = np.empty(values.shape, dtype=np.longdouble)
    for i, v in enumerate(values):
        res = kern.round_one(v)
        assert res is not None, f"{fmt.name}{context}: {v!r} not rounded"
        assert _scalar_padding(res) == bytes(6), f"{fmt.name}{context}: padding"
        got[i] = res
    assert_same_words(got, round_array_analytic(fmt, values.copy()), f"{fmt.name}{context}")


def _special_lut(kern):
    """The special codes of the kernel's lookup table over the exponent
    field, also when the switch is off (which builds the kernel without
    it)."""
    return kern._luts()[2]


def _served_fields(kern) -> list:
    special = _special_lut(kern)
    return [e for e in range(_EXP_FIELDS) if special[e] == 0]


@extended_only
@pytest.mark.parametrize("name", FORMATS_64)
def test_round_one_differential_sweeps(name):
    fmt = get_format(name)
    run_differential_sweeps(fmt, _round_one_elementwise(fmt), n=10_000, seed=23, span=96)


@extended_only
@pytest.mark.parametrize("name", FORMATS_64)
def test_round_one_every_served_binade(name):
    """Every served exponent field, both signs: a random significand, the
    all-ones significand (its round-up carries out of the binade) and the
    exact midpoints of codes inside the binade."""
    fmt = get_format(name)
    kern = fmt.bitkernel()
    fields = _served_fields(kern)
    assert len(fields) > 400, "too few served binades"
    rng = np.random.default_rng(37)
    random_sigs = rng.integers(0, 1 << 63, len(fields), dtype=np.uint64) | np.uint64(_SIG_TOP)
    for sign in (0, 1 << 15):
        his = [e | sign for e in fields]
        _assert_round_one_words(fmt, _from_words(random_sigs, his), " random significand")
        ones = [(1 << 64) - 1] * len(fields)
        _assert_round_one_words(fmt, _from_words(ones, his), " all-ones significand")
    exponents = [e - kern.WORD_BIAS for e in fields]
    mids = code_midpoints(fmt, binade_boundary_codes(fmt, exponents, window=2))
    assert mids.size > 1_000, "too few midpoints"
    _assert_round_one_words(fmt, mids, " midpoints")


@extended_only
@pytest.mark.parametrize("name", FORMATS_64)
def test_round_one_hands_back_every_special(name):
    """Every value of a special binade (the binades whose values the kernel
    rounds by the format's rule and counts as handed back: extreme regimes,
    characteristic bounds, subnormals, inf and NaN), in both signs, rounds
    in the kernel word for word as the reference, with zero padding: inf
    and NaN to NaR (+NaN), and the zeros of the special exponent field to
    the unsigned ``+0.0``."""
    fmt = get_format(name)
    kern = fmt.bitkernel()
    lut = _special_lut(kern)
    special = [e for e in range(1, _EXP_FIELDS - 1) if lut[e] != 0]
    assert special
    nar = np.asarray([np.nan], dtype=np.longdouble)
    for sign in (0, 1 << 15):
        sigs = [_SIG_TOP | 0x1234567] * len(special) + [(1 << 64) - 1] * len(special)
        values = _from_words(sigs, [e | sign for e in special] * 2)
        subnormals = _from_words([1, _SIG_TOP - 1], [sign, sign])
        _assert_round_one_words(fmt, np.concatenate([values, subnormals]), " special")
        non_finite = _from_words([_SIG_TOP, _SIG_TOP | (1 << 62)], [sign | 0x7FFF] * 2)
        _assert_round_one_words(fmt, non_finite, " inf/NaN")
        for v in non_finite:
            assert_same_words(np.asarray([kern.round_one(v)]), nar, f"{name}: {v!r} -> NaR")
        zero = kern.round_one(_from_words([0], [sign])[0])
        assert zero == 0 and not np.signbit(zero), f"{name}: signed zero"
        assert _scalar_padding(zero) == bytes(6)


@extended_only
@pytest.mark.parametrize("name", FORMATS_64)
def test_round_one_masks_input_padding(name):
    """Garbage in the six padding bytes of the input is dropped and the
    result is returned with zero padding."""
    fmt = get_format(name)
    kern = fmt.bitkernel()
    x = np.asarray([np.longdouble(1) / np.longdouble(3), -np.longdouble(7) / np.longdouble(9)])
    dirty = x.copy()
    dirty.view(np.uint64)[1::2] |= np.uint64(0xFFFFFFFFFFFF) << np.uint64(16)
    expected = round_array_analytic(fmt, x)
    for v, e in zip(dirty, expected):
        assert _scalar_padding(v) != bytes(6)
        res = kern.round_one(v)
        assert _scalar_padding(res) == bytes(6)
        assert res == e


@extended_only
@pytest.mark.parametrize("name", FORMATS_64)
def test_round_one_results_are_independent(name):
    """Two back-to-back calls return independent scalars, not views of the
    kernel's buffer."""
    fmt = get_format(name)
    kern = fmt.bitkernel()
    a, b = np.longdouble(1) / np.longdouble(3), np.longdouble(-5) / np.longdouble(7)
    ra = kern.round_one(a)
    rb = kern.round_one(b)
    assert ra == round_array_analytic(fmt, np.asarray([a]))[0]
    assert rb == round_array_analytic(fmt, np.asarray([b]))[0]
    assert ra != rb
    assert isinstance(ra, np.longdouble) and isinstance(rb, np.longdouble)


@extended_only
@pytest.mark.parametrize("name", FORMATS_64)
def test_round_scalar_identical_with_kernels_disabled(name):
    """A context's ``round_scalar`` returns the same words through the
    kernel's lookup tables as by the rule alone (the switch off, flipped
    after the context was built)."""
    fmt = get_format(name)
    ctx = get_context(name)
    values = np.concatenate([random_sweep(fmt, 4_000, seed=41), midpoint_sweep(fmt, 64)])
    on = np.asarray([ctx.round_scalar(v) for v in values], dtype=np.longdouble)
    previous = bk.set_enabled(False)
    try:
        assert fmt._bound_kernel._special is None
        off = np.asarray([ctx.round_scalar(v) for v in values], dtype=np.longdouble)
    finally:
        bk.set_enabled(previous)
    assert_same_words(on, off, name)


@extended_only
@pytest.mark.parametrize("name", FORMATS_64)
def test_round_writes_zero_output_padding(name):
    """Every element of a longdouble output has zero padding bytes: served,
    zero and rule-rounded elements alike, whatever the input padding and
    the prior contents of ``out``."""
    fmt = get_format(name)
    kern = fmt.bitkernel()
    tiny = np.longdouble(2.0) ** -16000  # extreme binade: rounded by the rule
    x = np.asarray(
        [1 / np.longdouble(3), -0.0, 0.0, tiny, -tiny, np.nan, np.inf, np.longdouble(2.0) ** 16000],
        dtype=np.longdouble,
    )
    dirty = x.copy()
    dirty.view(np.uint64)[1::2] |= np.uint64(0xABCDEF) << np.uint64(16)
    out = np.empty_like(x)
    out.view(np.uint8)[:] = 0xFF
    kern.round(dirty, out=out)
    assert_same_words(out, round_array_analytic(fmt, x), name, zero_padding=True)
