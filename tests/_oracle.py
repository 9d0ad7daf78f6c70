"""Exact decoder of every format's bit layout, restated from the standards.

Each decoder maps one integer code to its exact value, a
:class:`fractions.Fraction`, or to one of the markers :data:`NAN`,
:data:`INF`, :data:`NEG_INF` and :data:`NEG_ZERO`.  They read nothing of
``src/`` but the layout parameters of a format (its width, ``es``, or its
exponent and mantissa widths), and they follow the standards' own
formulations rather than the library's:

* posits (Posit Standard 2022, parametric ``es``): the raw bits are read
  as they stand, negative codes included, and a posit is
  ``((1 - 3S) + F) * 2^((1 - 2S) * (2^es * R + E + S))`` with the regime
  value ``R``, the exponent ``E`` (missing bits are zeros) and the fraction
  ``F`` in ``[0, 1)``;
* linear takums (Hunhold, arXiv:2404.18603): codes narrower than 12 bits
  are zero-padded to 12, and a takum is ``((1 - 3S) + M) * 2^e`` with
  ``e = (-1)^S (c + S)``, the characteristic ``c`` from the direction,
  regime and characteristic bits, and the mantissa ``M`` in ``[0, 1)``;
* IEEE 754 binary interchange formats (float16, bfloat16, float32,
  float64 and OFP8 E5M2): sign, biased exponent and trailing significand,
  subnormals at exponent field 0, infinities and NaNs at the all-ones
  field;
* OFP8 E4M3 (OCP 8-bit Floating Point Specification): bias 7, the all-ones
  exponent holds normals, ``S.1111.111`` is NaN, no infinities.

:func:`values` converts the exact values into a work dtype; :func:`table`
and :func:`edge_codes` derive the magnitude table of a narrow format and
the binade edges of any format from the decoders alone.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from repro.arithmetic import IEEEFormat, OFP8E4M3, PositFormat, TakumFormat

__all__ = ["NAN", "INF", "NEG_INF", "NEG_ZERO", "decode", "edge_codes", "layout", "table", "values"]

NAN, INF, NEG_INF, NEG_ZERO = "nan", "inf", "-inf", "-0"


def _scaled(numerator: int, exponent: int) -> Fraction:
    """``numerator * 2^exponent``, exactly."""
    if exponent >= 0:
        return Fraction(numerator << exponent)
    return Fraction(numerator, 1 << -exponent)


def posit(code: int, n: int, es: int):
    """The posit of width ``n`` with ``es`` exponent bits encoded by ``code``."""
    code &= (1 << n) - 1
    if code == 0:
        return Fraction(0)
    if code == 1 << (n - 1):
        return NAN
    s = code >> (n - 1)
    first = (code >> (n - 2)) & 1
    run = 1  # the regime: a run of identical bits after the sign
    while run < n - 1 and (code >> (n - 2 - run)) & 1 == first:
        run += 1
    r = run - 1 if first else -run
    rest = max(n - 2 - run, 0)  # the bits past the terminating bit, if any
    tail = code & ((1 << rest) - 1)
    if rest >= es:
        e, fbits = tail >> (rest - es), rest - es
    else:  # missing exponent bits are zeros
        e, fbits = tail << (es - rest), 0
    f = tail & ((1 << fbits) - 1)
    # ((1 - 3s) + f / 2^fbits) * 2^((1 - 2s) (2^es r + e + s))
    return _scaled((1 - 3 * s) * (1 << fbits) + f, (1 - 2 * s) * ((r << es) + e + s) - fbits)


def takum(code: int, n: int):
    """The linear takum of width ``n`` encoded by ``code``."""
    code &= (1 << n) - 1
    if n < 12:  # narrow takums decode as their zero-padded 12-bit extension
        code, n = code << (12 - n), 12
    if code == 0:
        return Fraction(0)
    if code == 1 << (n - 1):
        return NAN
    s = code >> (n - 1)
    d = (code >> (n - 2)) & 1
    regime = (code >> (n - 5)) & 0b111
    r = regime if d else 7 - regime
    p = n - 5 - r
    characteristic = (code >> p) & ((1 << r) - 1)
    mantissa = code & ((1 << p) - 1)
    c = (1 << r) - 1 + characteristic if d else -(1 << (r + 1)) + 1 + characteristic
    e = c + s if s == 0 else -(c + s)
    # ((1 - 3s) + mantissa / 2^p) * 2^e
    return _scaled((1 - 3 * s) * (1 << p) + mantissa, e - p)


def ieee(code: int, ebits: int, mbits: int):
    """The IEEE 754 binary format with ``ebits`` exponent and ``mbits``
    trailing significand bits encoded by ``code``."""
    n = 1 + ebits + mbits
    code &= (1 << n) - 1
    s = code >> (n - 1)
    field = (code >> mbits) & ((1 << ebits) - 1)
    t = code & ((1 << mbits) - 1)
    bias = (1 << (ebits - 1)) - 1
    if field == (1 << ebits) - 1:
        return NAN if t else (NEG_INF if s else INF)
    if field == 0:
        magnitude = _scaled(t, 1 - bias - mbits)
    else:
        magnitude = _scaled((1 << mbits) + t, field - bias - mbits)
    if s:
        return -magnitude if magnitude else NEG_ZERO
    return magnitude


def e4m3(code: int):
    """The OFP8 E4M3 value encoded by ``code``."""
    code &= 0xFF
    if code & 0x7F == 0x7F:
        return NAN
    s, field, t = code >> 7, (code >> 3) & 0xF, code & 0x7
    magnitude = _scaled(t, -9) if field == 0 else _scaled(8 + t, field - 10)
    if s:
        return -magnitude if magnitude else NEG_ZERO
    return magnitude


def layout(fmt) -> tuple:
    """The layout parameters of ``fmt`` the decoders read: ``("posit", n,
    es)``, ``("takum", n)``, ``("ieee", ebits, mbits)`` or ``("e4m3",)``."""
    if isinstance(fmt, OFP8E4M3):
        return ("e4m3",)
    if isinstance(fmt, IEEEFormat):
        return ("ieee", fmt.ebits, fmt.mbits)
    if isinstance(fmt, PositFormat):
        return ("posit", fmt.bits, fmt.es)
    if isinstance(fmt, TakumFormat):
        return ("takum", fmt.bits)
    raise TypeError(f"no oracle for {fmt!r}")


_DECODERS = {"posit": posit, "takum": takum, "ieee": ieee, "e4m3": e4m3}


def decode(fmt, code: int):
    """The exact value of ``code`` in the format ``fmt``."""
    family, *params = layout(fmt)
    return _DECODERS[family](int(code), *params)


def _to_work(value, dtype):
    """``value`` in ``dtype``: exact whenever ``dtype`` holds the format,
    which is every case but a 64-bit tapered format in float64 (a host
    whose ``long double`` is float64), where it rounds to nearest."""
    if value == NAN:
        return dtype(np.nan)
    if value in (INF, NEG_INF):
        return dtype(np.inf if value == INF else -np.inf)
    if value == NEG_ZERO:
        return dtype(-0.0)
    numerator, denominator = value.numerator, value.denominator
    shift = denominator.bit_length() - 1
    assert denominator == 1 << shift, value
    return np.ldexp(dtype(numerator), -shift)


@functools.cache
def _all_values(params: tuple, bits: int, dtype) -> np.ndarray:
    """The value of every code of a format of at most 16 bits."""
    family, *rest = params
    decoder = _DECODERS[family]
    return np.asarray([_to_work(decoder(c, *rest), dtype) for c in range(1 << bits)], dtype=dtype)


def values(fmt, codes) -> np.ndarray:
    """The exact values of ``codes`` in the format ``fmt``, in its work
    dtype (NaN as ``+nan``, the signed zero of IEEE layouts as ``-0.0``)."""
    codes = np.asarray(codes, dtype=np.uint64) & np.uint64((1 << fmt.bits) - 1)
    if fmt.bits <= 16:
        return _all_values(layout(fmt), fmt.bits, fmt.work_dtype)[codes.astype(np.int64)]
    flat = [_to_work(decode(fmt, int(c)), fmt.work_dtype) for c in codes.ravel()]
    return np.asarray(flat, dtype=fmt.work_dtype).reshape(codes.shape)


def table(fmt) -> tuple[np.ndarray, np.ndarray]:
    """Every finite non-negative magnitude of a format of at most 16 bits,
    ascending, and its ``int64`` code: the sign-clear half of the code
    space, decoded by the oracle."""
    codes = np.arange(1 << (fmt.bits - 1), dtype=np.int64)
    mags = values(fmt, codes).astype(np.float64)
    finite = np.isfinite(mags)
    order = np.argsort(mags[finite], kind="stable")
    return mags[finite][order], codes[finite][order]


def _top_code(fmt) -> int:
    """The largest positive finite code of ``fmt`` (codes ``1..top`` decode
    to increasing positive values in every family)."""
    family = layout(fmt)[0]
    if family == "ieee":
        return (((1 << fmt.ebits) - 1) << fmt.mbits) - 1
    if family == "e4m3":
        return 0x7E
    return (1 << (fmt.bits - 1)) - 1


@functools.cache
def _edge_codes(params: tuple, top: int) -> tuple:
    family, *rest = params
    decoder = _DECODERS[family]

    def first_at_least(bound: Fraction) -> int:
        lo, hi = 1, top  # the answer lies in [lo, hi + 1]
        while lo <= hi:
            mid = (lo + hi) // 2
            if decoder(mid, *rest) >= bound:
                hi = mid - 1
            else:
                lo = mid + 1
        return lo

    smallest, largest = decoder(1, *rest), decoder(top, *rest)
    e_min = smallest.numerator.bit_length() - smallest.denominator.bit_length()
    e_max = largest.numerator.bit_length() - largest.denominator.bit_length()
    edges = {0, 1, 2, top - 1, top}
    for e in range(e_min - 1, e_max + 2):
        c = first_at_least(_scaled(1, e))
        edges.update(x for x in (c - 1, c, c + 1) if 0 <= x <= top)
    return tuple(sorted(edges))


def edge_codes(fmt) -> np.ndarray:
    """Every binade edge of ``fmt`` — the codes next to the first code at or
    above each power of two across its range, found by bisection on the
    decoded values — with zero, minpos, maxpos, both signs of each, and the
    NaN/NaR, infinity and top-binade codes of the format (``uint64``)."""
    n = fmt.bits
    top = _top_code(fmt)
    positive = np.asarray(_edge_codes(layout(fmt), top), dtype=np.uint64)
    sign = np.uint64(1 << (n - 1))
    if layout(fmt)[0] in ("posit", "takum"):  # negation is two's complement
        negative = (~positive + np.uint64(1)) & np.uint64((1 << n) - 1)
    else:
        negative = positive | sign
    # the codes above the finite range: infinity and the first and last NaNs
    specials = [c for c in (top + 1, top + 2, top + 3, (1 << (n - 1)) - 1) if c < 1 << (n - 1)]
    specials = np.asarray(specials, dtype=np.uint64)
    return np.unique(np.concatenate([positive, negative, specials, specials | sign, [sign]]))
