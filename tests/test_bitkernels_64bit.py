"""Bit-identity battery for the two-word (extended) 64-bit bit kernels.

posit64/takum64 round in 80-bit extended precision; on hosts whose
``np.longdouble`` is the x87 two-word layout they are served by
``PositExtendedBitKernel``/``TakumExtendedBitKernel``, which must be
bit-identical to ``round_array_analytic``:

* differential random/boundary/midpoint sweeps (:mod:`tests._kernel_harness`);
* **tie-exhaustive coverage**: sampled regime/binade boundaries across each
  format's full dynamic range, with *all* adjacent-code midpoints in a
  window around every boundary asserted against the analytic kernel and the
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
from repro.arithmetic import get_format
from repro.arithmetic import base as base_mod
from repro.arithmetic.bitkernels import (
    PositExtendedBitKernel,
    TakumExtendedBitKernel,
    extended_layout_supported,
)
from repro.arithmetic.posit import PositFormat
from repro.arithmetic.takum import TakumFormat
from tests._kernel_harness import (
    assert_rounded_equal,
    binade_boundary_codes,
    code_midpoints,
    differential_round_check,
    midpoint_sweep,
    random_sweep,
    run_differential_sweeps,
)

FORMATS_64 = ["posit64", "takum64"]

# kernel-identity proofs: nothing to difference when the engine is off
# (the REPRO_DISABLE_BITKERNELS=1 analytic-only CI job)
pytestmark = pytest.mark.skipif(
    not bk.bitkernels_enabled(),
    reason="bit kernels globally disabled (REPRO_DISABLE_BITKERNELS)",
)

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
    round ties-to-even, identically to the analytic kernel."""
    fmt = get_format(name)
    kern = fmt.bitkernel()
    codes = binade_boundary_codes(fmt, boundary_exponents(fmt), window=24)
    mids = code_midpoints(fmt, codes)
    assert mids.size > 1_000, "boundary sampling produced too few ties"
    differential_round_check(fmt, kern.round, mids, " boundary-ties")
    # the tie rule itself: every exact midpoint must land on an even code
    rounded = fmt.round_array_analytic(mids)
    finite = np.isfinite(rounded) & (rounded != 0)
    recoded = fmt.encode_analytic(rounded[finite])
    assert not np.any(recoded & np.uint64(1)), f"{name}: tie broke to an odd code"


@extended_only
@pytest.mark.parametrize("name", FORMATS_64)
def test_encode_roundtrips_boundary_codes(name):
    """``encode_analytic(decode_code(c)) == c`` around every sampled binade
    boundary (regression: the encoders used to round the 59-bit fraction
    through float64, shifting codes near characteristic transitions)."""
    fmt = get_format(name)
    codes = binade_boundary_codes(fmt, boundary_exponents(fmt), window=24)
    values = np.asarray(
        [fmt.decode_code(int(c)) for c in codes], dtype=np.longdouble
    )
    recoded = fmt.encode_analytic(values)
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
    expected = fmt.round_array_analytic(x.copy())
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
    """``round_array`` above the scalar cutoff is bit-identical to the
    analytic kernel (it routes through the extended kernel)."""
    fmt = get_format(name)
    rng = np.random.default_rng(31)
    x = (np.longdouble(2.0) ** rng.uniform(-200, 200, 4_096).astype(np.longdouble)) * np.sign(
        rng.standard_normal(4_096)
    ).astype(np.longdouble)
    assert_rounded_equal(
        fmt.round_array(x.copy()), fmt.round_array_analytic(x.copy()), name
    )


@extended_only
@pytest.mark.parametrize("name", FORMATS_64)
def test_extended_kernel_has_no_codec(name):
    """The two-word kernels only round; the family codecs stay float64."""
    kern = get_format(name).bitkernel()
    assert not kern.supports_codec
    with pytest.raises(NotImplementedError):
        kern.decode(np.asarray([1], dtype=np.uint64))
    with pytest.raises(NotImplementedError):
        kern.encode(np.asarray([1.0], dtype=np.longdouble))


@pytest.mark.parametrize("name", FORMATS_64)
def test_disable_switch_removes_64bit_kernel(name):
    previous = bk.set_enabled(False)
    try:
        assert get_format(name).bitkernel() is None
        x = np.asarray([0.3, -1.7, 1e30], dtype=get_format(name).work_dtype)
        fmt = get_format(name)
        assert_rounded_equal(fmt.round_array(x), fmt.round_array_analytic(x), name)
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
    against the analytic kernel at float64 work precision."""
    fmt = family(64)
    kern = fmt.bitkernel()
    assert kern is not None
    assert kern.supports_codec  # the plain one-word family kernel
    run_differential_sweeps(fmt, kern.round, n=30_000, seed=17)


@pytest.mark.parametrize("family", [PositFormat, TakumFormat])
def test_forced_fallback_dispatch_round_array(degraded_longdouble, family):
    fmt = family(64)
    rng = np.random.default_rng(19)
    x = rng.standard_normal(2_048) * 10.0 ** rng.uniform(-300, 300, 2_048)
    assert_rounded_equal(
        fmt.round_array(x.copy()), fmt.round_array_analytic(x.copy()), fmt.name
    )


# --------------------------------------------------------------------- #
# scalar twin: ExtendedBitKernel.round_one
# --------------------------------------------------------------------- #
_EXP_FIELDS = 1 << 15
_SIG_TOP = 1 << 63


def _from_words(sigs, his) -> np.ndarray:
    """Longdouble array assembled from significand and sign/exponent words."""
    words = np.empty(2 * len(sigs), dtype=np.uint64)
    words[0::2] = np.asarray(sigs, dtype=np.uint64)
    words[1::2] = np.asarray(his, dtype=np.uint64)
    return words.view(np.longdouble)


def _masked_words(values) -> tuple:
    """(significand, sign/exponent) words, padding bytes dropped."""
    u = np.ascontiguousarray(values, dtype=np.longdouble).reshape(-1).view(np.uint64)
    return u[0::2].copy(), u[1::2] & np.uint64(0xFFFF)


def _round_one_elementwise(fmt):
    """``round_one`` element by element; the values it hands back (``None``)
    take the format's scalar kernel."""
    kern = fmt.bitkernel()

    def round_fn(values):
        out = np.empty(values.shape, dtype=np.longdouble)
        for i, v in enumerate(values):
            res = kern.round_one(v)
            out[i] = fmt.round_scalar_analytic(v) if res is None else res
        return out

    return round_fn


def _assert_round_one_words(fmt, values, context):
    """``round_one`` on every (served) value equals the analytic kernel word
    for word, and leaves zero padding in the kernel's buffer."""
    kern = fmt.bitkernel()
    got = np.empty(values.shape, dtype=np.longdouble)
    for i, v in enumerate(values):
        res = kern.round_one(v)
        assert res is not None, f"{fmt.name}{context}: {v!r} not served"
        assert int(kern._one_words[1]) >> 16 == 0, f"{fmt.name}{context}: padding"
        got[i] = res
    expected = fmt.round_array_analytic(values.copy())
    for g, e in zip(_masked_words(got), _masked_words(expected)):
        assert np.array_equal(g, e), f"{fmt.name}{context}: words differ"


def _served_fields(kern) -> list:
    return [e for e in range(_EXP_FIELDS) if kern._shift_one[e]]


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
    served = np.asarray([kern.round_one(m) is not None for m in mids])
    assert served.sum() > 1_000, "too few served midpoints"
    _assert_round_one_words(fmt, mids[served], " midpoints")


@extended_only
@pytest.mark.parametrize("name", FORMATS_64)
def test_round_one_hands_back_every_special(name):
    """``None`` for zeros, subnormals, inf/NaN and every special binade
    (extreme regimes, characteristic bounds), in both signs."""
    fmt = get_format(name)
    kern = fmt.bitkernel()
    special = [e for e in range(_EXP_FIELDS) if not kern._shift_one[e]]
    assert {0, _EXP_FIELDS - 1} <= set(special)
    for sign in (0, 1 << 15):
        sigs = [_SIG_TOP | 0x1234567] * len(special)
        values = _from_words(sigs, [e | sign for e in special])
        extra = _from_words(
            [0, 1, _SIG_TOP - 1, _SIG_TOP, _SIG_TOP | (1 << 62)],  # zero, subnormals, inf, NaN
            [sign, sign, sign, sign | 0x7FFF, sign | 0x7FFF],
        )
        for v in np.concatenate([values, extra]):
            assert kern.round_one(v) is None, f"{name}: {v!r} served"


@extended_only
@pytest.mark.parametrize("name", FORMATS_64)
def test_round_one_masks_input_padding(name):
    """Garbage in the six padding bytes of the input is dropped and the
    kernel writes the result words back with zero padding."""
    fmt = get_format(name)
    kern = fmt.bitkernel()
    x = np.asarray([np.longdouble(1) / np.longdouble(3), -np.longdouble(7) / np.longdouble(9)])
    dirty = x.copy()
    dirty.view(np.uint64)[1::2] |= np.uint64(0xFFFFFFFFFFFF) << np.uint64(16)
    expected = fmt.round_array_analytic(x)
    for v, e in zip(dirty, expected):
        res = kern.round_one(v)
        assert int(kern._one_words[1]) >> 16 == 0
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
    assert ra == fmt.round_array_analytic(np.asarray([a]))[0]
    assert rb == fmt.round_array_analytic(np.asarray([b]))[0]
    assert ra != rb
    assert isinstance(ra, np.longdouble) and isinstance(rb, np.longdouble)


@extended_only
@pytest.mark.parametrize("name", FORMATS_64)
def test_round_scalar_identical_with_kernels_disabled(name):
    """``round_scalar_analytic`` returns the same words through the scalar
    twin as through the NumPy-scalar kernel (bit kernels off)."""
    fmt = get_format(name)
    values = np.concatenate([random_sweep(fmt, 4_000, seed=41), midpoint_sweep(fmt, 64)])
    on = np.asarray([fmt.round_scalar_analytic(v) for v in values], dtype=np.longdouble)
    previous = bk.set_enabled(False)
    try:
        off = np.asarray([fmt.round_scalar_analytic(v) for v in values], dtype=np.longdouble)
    finally:
        bk.set_enabled(previous)
    nan_on, nan_off = np.isnan(on), np.isnan(off)
    assert np.array_equal(nan_on, nan_off)
    for g, e in zip(_masked_words(on[~nan_on]), _masked_words(off[~nan_off])):
        assert np.array_equal(g, e), name
