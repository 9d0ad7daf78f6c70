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
