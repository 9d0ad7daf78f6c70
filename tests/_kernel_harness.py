"""Differential kernel-test harness shared by the rounding-kernel suites.

The compiled rounding kernel of :mod:`repro.arithmetic` — its array and
scalar entries, through the integer lookup tables (one-word float64 and
two-word extended) or by the format's rule alone — must be bit-identical to
the differential reference (:func:`tests._reference.round_array_analytic`).
This module centralises the machinery those proofs share so each suite
states *what* it sweeps, not how:

* **sweep generators**, all seeded and format-aware: log-uniform random
  magnitudes across (and beyond) a format's dynamic range in its own work
  precision, the shared NaR/NaN/inf/signed-zero edge battery, range/epsilon
  boundary values, and exact adjacent-code midpoints (the rounding ties),
  either from explicit code ranges or sampled around binade boundaries;
* **comparators** that work for any work dtype: word identity (NaN signs
  and payloads included) over the 8 bytes of a float64 or the 10 value
  bytes of an x87 extended value, whose 6 padding bytes the kernel writes
  as zeros; and value + NaN-position + zero-sign equality where values of
  another provenance are compared;
* **differential drivers** running any kernel-like callable against the
  reference over a batch of named sweeps.

The harness is import-light (no fixtures): suites compose these helpers with
their own parametrisation.  :func:`format_for` also builds the tapered
widths the registry never constructs, so the suites can sweep them by name.
"""

from __future__ import annotations

import functools
import math
import re

import numpy as np

from repro.arithmetic import OFP8E4M3, PositFormat, TakumFormat, get_format
from tests import _oracle
from tests._reference import round_array_analytic

__all__ = [
    "assert_rounded_equal",
    "assert_same_words",
    "assert_scalar_matches_vector",
    "edge_battery",
    "random_sweep",
    "boundary_sweep",
    "midpoint_sweep",
    "code_midpoints",
    "binade_boundary_codes",
    "differential_round_check",
    "run_differential_sweeps",
    "exhaustive_sweep",
    "UNREGISTERED_TAPERED",
    "E4M3_SATURATING",
    "CANONICAL_NAN_CODES",
    "format_for",
]

#: posit/takum widths the registry never builds, swept beside the
#: registered formats; ``es1`` marks a posit with one exponent bit
UNREGISTERED_TAPERED = (
    "posit10",
    "posit12",
    "posit16es1",
    "posit20",
    "posit24",
    "posit24es1",
    "takum10",
    "takum12",
    "takum20",
    "takum24",
)

#: the saturating E4M3 (overflow clamps to ±448), which the registry never
#: builds either
E4M3_SATURATING = "E4M3sat"


#: the canonical NaN/NaR code of each format: the quiet NaN with the sign
#: bit set for IEEE layouts, ``S.1111.111`` with a clear sign for E4M3, and
#: ``10…0`` for posits and takums
CANONICAL_NAN_CODES = {
    "E4M3": 0x7F,
    E4M3_SATURATING: 0x7F,
    "E5M2": 0xFE,
    "float16": 0xFE00,
    "bfloat16": 0xFFC0,
    "float32": 0xFFC00000,
    "float64": 0xFFF8000000000000,
    "posit8": 0x80,
    "takum8": 0x80,
    "posit10": 0x200,
    "takum10": 0x200,
    "posit12": 0x800,
    "takum12": 0x800,
    "posit16": 0x8000,
    "posit16es1": 0x8000,
    "takum16": 0x8000,
    "posit20": 0x80000,
    "takum20": 0x80000,
    "posit24": 0x800000,
    "posit24es1": 0x800000,
    "takum24": 0x800000,
    "posit32": 0x80000000,
    "takum32": 0x80000000,
    "posit64": 0x8000000000000000,
    "takum64": 0x8000000000000000,
}


@functools.cache
def format_for(name: str):
    """The registered format ``name``, one of :data:`UNREGISTERED_TAPERED`
    or :data:`E4M3_SATURATING` (built once, under its own name: the
    dispatch tally is keyed by name)."""
    if name == E4M3_SATURATING:
        return OFP8E4M3(saturate=True)
    if name not in UNREGISTERED_TAPERED:
        return get_format(name)
    family, width, es = re.fullmatch(r"(posit|takum)(\d+)(?:es(\d+))?", name).groups()
    if family == "takum":
        return TakumFormat(int(width), name=name)
    return PositFormat(int(width), es=int(es or 2), name=name)


# --------------------------------------------------------------------- #
# comparators
# --------------------------------------------------------------------- #
def assert_rounded_equal(got, expected, context=""):
    """Require value identity: same NaN positions, equal values elsewhere,
    and matching zero signs.

    For canonical float64 this is exactly word identity; for longdouble it
    is the strongest portable comparison (raw words differ in undefined
    padding bytes).
    """
    got = np.asarray(got)
    expected = np.asarray(expected)
    assert got.shape == expected.shape, f"{context}: shape mismatch"
    nan_g, nan_e = np.isnan(got), np.isnan(expected)
    assert np.array_equal(nan_g, nan_e), f"{context}: NaN positions differ"
    eq = got[~nan_g] == expected[~nan_e]
    assert bool(np.all(eq)), (
        f"{context}: rounded values differ at "
        f"{np.flatnonzero(~eq)[:8].tolist()} "
        f"(got {got[~nan_g][~eq][:4]!r}, expected {expected[~nan_e][~eq][:4]!r})"
    )
    sg = np.signbit(got[~nan_g])
    se = np.signbit(expected[~nan_e])
    assert np.array_equal(sg, se), f"{context}: zero signs differ"


def assert_same_words(got, expected, context="", *, zero_padding=False):
    """Require word identity, NaN signs and payloads included: the 8 bytes of
    each float64, or the 10 value bytes of each x87 extended value, whose 6
    padding bytes must also be zero in ``got`` with ``zero_padding`` (an
    array the compiled kernel wrote)."""
    got = np.ascontiguousarray(got)
    expected = np.ascontiguousarray(expected, dtype=got.dtype)
    assert got.shape == expected.shape, f"{context}: shape mismatch"
    size = got.dtype.itemsize
    nbytes = 10 if got.dtype == np.longdouble and size == 16 else size
    g = got.reshape(-1).view(np.uint8).reshape(-1, size)
    e = expected.reshape(-1).view(np.uint8).reshape(-1, size)
    differ = np.flatnonzero(np.any(g[:, :nbytes] != e[:, :nbytes], axis=1))
    assert differ.size == 0, (
        f"{context}: words differ at {differ[:8].tolist()} "
        f"(got {got.reshape(-1)[differ[:4]]!r}, expected {expected.reshape(-1)[differ[:4]]!r})"
    )
    if zero_padding and nbytes < size:
        assert not g[:, nbytes:].any(), f"{context}: non-zero x87 padding"


def assert_scalar_matches_vector(fmt, values, context=""):
    """Round ``values`` one by one through the compiled scalar entry and
    require word identity with the vector reference."""
    values = np.asarray(values, dtype=fmt.work_dtype)
    expected = round_array_analytic(fmt, values)
    got = np.asarray([fmt._round_one(v) for v in values], dtype=fmt.work_dtype)
    assert_same_words(got, expected, f"{fmt.name}{context}")


# --------------------------------------------------------------------- #
# sweep generators
# --------------------------------------------------------------------- #
def edge_battery(dtype=np.float64) -> np.ndarray:
    """NaR/NaN/inf/signed-zero/extreme battery shared by every family."""
    return np.asarray(
        [
            0.0,
            -0.0,
            math.inf,
            -math.inf,
            math.nan,
            -math.nan,
            5e-324,
            -5e-324,
            1e-308,
            -1e-308,
            1e308,
            -1e308,
            1.0,
            -1.0,
        ],
        dtype=dtype,
    )


def _exponent_span(fmt) -> float:
    """Binade span covering the format's range with ~20% overshoot."""
    top = math.log2(float(fmt.max_value)) if np.isfinite(fmt.max_value) else 1024.0
    return max(40.0, 1.2 * abs(top) + 16.0)


def random_sweep(fmt, n=20_000, seed=42, span=None) -> np.ndarray:
    """Sign-symmetric log-uniform magnitudes across (and beyond) ``fmt``'s
    dynamic range, generated in the format's own work precision so that
    longdouble-only exponents are reached, with zeros and the edge battery
    mixed in."""
    rng = np.random.default_rng(seed)
    wd = fmt.work_dtype
    span = _exponent_span(fmt) if span is None else span
    exponents = rng.uniform(-span, span, n).astype(wd)
    with np.errstate(over="ignore"):  # overshoot past the work range is wanted
        values = (wd(2.0) ** exponents) * rng.standard_normal(n)
    values[rng.integers(0, n, n // 64)] = 0.0
    return np.concatenate([values, edge_battery(wd)]).astype(wd)


def solver_regime_sweep(fmt, n=20_000, seed=6) -> np.ndarray:
    """Magnitudes around 1.0, the regime the solvers live in."""
    rng = np.random.default_rng(seed)
    wd = fmt.work_dtype
    return (rng.standard_normal(n) * np.exp(rng.uniform(-12, 12, n))).astype(wd)


def boundary_sweep(fmt) -> np.ndarray:
    """Specials, range edges and their work-precision neighbours."""
    wd = fmt.work_dtype
    maxv = wd(fmt.max_value)
    minp = wd(fmt.min_positive)
    pieces = [
        0.0,
        -0.0,
        math.inf,
        -math.inf,
        math.nan,
        -math.nan,
        1.0,
        -1.0,
        1e300,
        -1e300,
        1e-300,
        5e-324,
        -5e-324,
        float(maxv),
        float(minp),
        float(maxv) * 2.0,
        float(minp) * 0.5,
    ]
    values = [wd(p) for p in pieces]
    one = wd(1.0)
    eps = wd(fmt.machine_epsilon)
    # spacing around 1.0, including the half-ulp tie in the work precision
    values += [one + eps, one - eps, one + eps / wd(2.0), one - eps / wd(4.0)]
    return np.asarray(values, dtype=wd)


def exhaustive_sweep(fmt) -> np.ndarray:
    """Every representable value of a <= 16-bit format, every adjacent
    midpoint (the exact ties) and their one-ulp float64 neighbours, the
    overflow boundary half an ulp past the largest magnitude, and the edge
    battery; both signs.  The value set is every code decoded by the
    oracle (``tests/_oracle.py``)."""
    decoded = _oracle.values(fmt, np.arange(1 << fmt.bits, dtype=np.uint64))
    mags = np.unique(np.abs(decoded[np.isfinite(decoded)]))
    mids = (mags[:-1] + mags[1:]) * 0.5  # exact: adjacent codes share bits
    top = mags[-1] + (mags[-1] - mags[-2]) * 0.5
    around = np.concatenate(
        [
            mags,
            mids,
            np.nextafter(mids, np.inf),
            np.nextafter(mids, -np.inf),
            np.nextafter(mags, np.inf),
            np.nextafter(mags, -np.inf),
            [top, np.nextafter(top, 0.0), np.nextafter(top, np.inf)],
            [float(mags[-1]) * 2.0, float(mags[-1]) * 1e10],
        ]
    )
    return np.concatenate([around, -around, edge_battery()])


def code_midpoints(fmt, codes) -> np.ndarray:
    """Exact midpoints of each adjacent code pair ``(c, c + 1)``.

    The endpoints are decoded by the oracle (``tests/_oracle.py``).
    Midpoints whose endpoints are non-finite, zero-crossing, or not
    exactly representable in the work precision are skipped, so every value
    returned is a *true* rounding tie exercising ties-to-even on the code
    grid.  Both signs are returned.
    """
    wd = fmt.work_dtype
    half = wd(0.5)
    codes = np.asarray(codes, dtype=np.int64)
    lows, highs = _oracle.values(fmt, codes), _oracle.values(fmt, codes + 1)
    mids = []
    for a, b in zip(lows, highs):
        if not (np.isfinite(a) and np.isfinite(b)):
            continue
        if (a < 0) != (b < 0) or a == b:
            continue
        mid = (a + b) * half
        if mid == a or mid == b:  # the extra bit does not fit work precision
            continue
        if mid - a != b - mid:  # (a + b) rounded: not an equidistant tie
            continue
        mids += [mid, -mid]
    return np.asarray(mids, dtype=wd)


def midpoint_sweep(fmt, span=256) -> np.ndarray:
    """Adjacent-code midpoints from the small-, mid- and large-magnitude
    ends of the positive code range (the classic tie workload)."""
    half_codes = 1 << (fmt.bits - 1)
    ranges = [range(1, min(span, half_codes - 1))]
    if fmt.bits > 10:
        mid_start = 1 << (fmt.bits - 3)
        ranges.append(range(mid_start, min(mid_start + span, half_codes - 1)))
        ranges.append(range(max(half_codes - span, 1), half_codes - 1))
    codes = [c for code_range in ranges for c in code_range]
    return code_midpoints(fmt, codes)


def binade_boundary_codes(fmt, exponents, window=48) -> np.ndarray:
    """Codes in a ``window`` around each binade boundary ``2**e``.

    Encoding ``2**e`` places the window exactly where the format's regime /
    characteristic / exponent fields change, the regions where tapered
    rounding grids switch step size — the hard cases for any kernel.
    Out-of-range exponents saturate harmlessly to the end of the code range.
    """
    wd = fmt.work_dtype
    anchors = fmt.encode(
        round_array_analytic(fmt, wd(2.0) ** np.asarray(exponents, dtype=wd))
    ).astype(np.int64)
    half_codes = 1 << (fmt.bits - 1)
    codes = (anchors[:, None] + np.arange(-window, window + 1)[None, :]).ravel()
    codes = codes[(codes >= 1) & (codes < half_codes - 1)]
    return np.unique(codes)


# --------------------------------------------------------------------- #
# differential drivers
# --------------------------------------------------------------------- #
def differential_round_check(fmt, round_fn, values, context=""):
    """Run ``round_fn`` (a compiled kernel entry) against the reference over
    ``values``, whole and in 32-element chunks, and require word identity
    (NaN bits included, x87 padding zeroed).  ``values`` is never
    mutated."""
    values = np.asarray(values, dtype=fmt.work_dtype)
    expected = round_array_analytic(fmt, values.copy())
    whole = round_fn(values.copy())
    assert_same_words(whole, expected, f"{fmt.name}{context}", zero_padding=True)
    if values.size:
        chunks = [round_fn(values[i : i + 32].copy()) for i in range(0, values.size, 32)]
        chunked = np.concatenate(chunks)
        assert_same_words(chunked, expected, f"{fmt.name}{context} chunked", zero_padding=True)


def run_differential_sweeps(fmt, round_fn, *, n=20_000, seed=42, span=256):
    """The standard battery: random + boundary + adjacent-code-midpoint
    sweeps of ``round_fn`` against the reference."""
    differential_round_check(fmt, round_fn, random_sweep(fmt, n, seed), " random")
    differential_round_check(fmt, round_fn, boundary_sweep(fmt), " boundary")
    differential_round_check(fmt, round_fn, midpoint_sweep(fmt, span), " ties")
