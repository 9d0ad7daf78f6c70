"""Convergence tolerances per storage width (Section 2.2 of the paper).

The paper sets the relative convergence tolerance of ``partialschur`` to
10^-2 for 8-bit formats, 10^-4 for 16-bit, 10^-8 for 32-bit, 10^-12 for
64-bit and 10^-20 for the float128 reference.  The reference here is
``numpy.longdouble`` (64-bit significand), so its tolerance is relaxed to
10^-18 (see docs/experiments.md, "Substitutions", item 3).
"""

from __future__ import annotations

from ..arithmetic.base import NumberFormat

__all__ = ["TOLERANCES", "REFERENCE_TOLERANCE", "tolerance_for"]

#: relative convergence tolerance per storage width in bits
TOLERANCES: dict[int, float] = {
    8: 1e-2,
    16: 1e-4,
    32: 1e-8,
    64: 1e-12,
}

#: tolerance of the extended-precision reference solve (paper: 1e-20 in
#: float128; adapted to the longdouble substitute)
REFERENCE_TOLERANCE: float = 1e-18


def tolerance_for(fmt) -> float:
    """Tolerance for a format, format name or bit width."""
    if isinstance(fmt, NumberFormat):
        bits = fmt.bits
    elif isinstance(fmt, str):
        lowered = fmt.lower()
        if lowered in ("reference", "float128", "longdouble"):
            return REFERENCE_TOLERANCE
        from ..arithmetic.registry import get_format

        bits = get_format(fmt).bits
    else:
        bits = int(fmt)
    try:
        return TOLERANCES[bits]
    except KeyError:
        raise KeyError(
            f"no tolerance defined for width {bits}; known: {sorted(TOLERANCES)}"
        ) from None
