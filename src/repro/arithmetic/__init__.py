"""Machine-number formats and per-operation rounding compute contexts.

This subpackage provides software emulation of the arithmetic formats studied
in the paper:

* IEEE 754 style formats: ``float16``, ``bfloat16``, ``float32``, ``float64``
  and the OFP8 types ``E4M3`` and ``E5M2``;
* tapered-precision formats: posits (2022 standard, ``es = 2``) and linear
  takums at 8, 16, 32 and 64 bits, which share one rounding skeleton
  (:class:`~repro.arithmetic.tapered.TaperedFormat`) and differ only in
  their bit layout and binade rule;
* an extended-precision reference format backed by ``numpy.longdouble``.

Every format exposes a vectorised ``round`` operation (round an array of
work-precision values to the nearest representable value of the format) which
is the primitive used by the compute contexts in
:mod:`repro.arithmetic.context` to emulate "every scalar operation is
performed in the target arithmetic".

On top of the contexts sits the operator API
(:mod:`repro.arithmetic.farray`): ``ctx.array(...)`` / ``ctx.scalar(...)``
bind values to a context so that rounded kernels read as plain NumPy-style
expressions (``w - V @ h``) while every operator routes through the same
context methods; :func:`repro.arithmetic.precision` binds a precision for a
block of such code, and :class:`repro.arithmetic.ContextSpec` names a
context declaratively for the runner and CLI.

Each format family owns one vectorised bit codec (``decode``/``encode``)
for every width and work dtype.  One compiled rounding kernel serves every
posit, takum and non-cast IEEE/OFP8 format and rounds every value itself,
NaN and infinities included: the integer bit kernels (:mod:`repro.arithmetic.bitkernels`; one
family-parameterized rounding engine) build each format's binade lookup
tables around the rule the format hands them, and a small C extension
(``_rounding.c``, compiled on first use) rounds arrays of every size and
the contexts' scalars with them; see ``docs/architecture.md`` for the
dispatch matrix.  The format alone decides how a value rounds.  The rule
restates each format's rounding in C for the binades the integer transform
does not serve; the bit kernels state each tapered binade rule
independently (``_keep_bits``), and the differential reference of
``tests/`` is the independent check of both.  The one opt-out,
``set_bitkernels_enabled(False)`` / ``REPRO_DISABLE_BITKERNELS=1``, turns
the integer transform off process-wide so every format rounds by its rule
alone.  float32 and float64 round by a dtype cast.  The compiled library
itself is required (it also holds the QL iteration of the projected
eigensolver).
"""

from .base import LONGDOUBLE_EXTENDED, NumberFormat, RoundingInfo
from .bitkernels import (
    BitKernel,
    E4M3BitKernel,
    IEEEBitKernel,
    PositBitKernel,
    TakumBitKernel,
    bitkernels_enabled,
    set_enabled as set_bitkernels_enabled,
)
from .ieee import IEEEFormat, BFLOAT16, FLOAT16, FLOAT32, FLOAT64
from .ofp8 import OFP8E4M3, OFP8E5M2, E4M3, E5M2
from .posit import PositFormat, POSIT8, POSIT16, POSIT32, POSIT64
from .takum import TakumFormat, TAKUM8, TAKUM16, TAKUM32, TAKUM64
from .registry import (
    FORMATS,
    get_format,
    available_formats,
    formats_by_width,
    preload_tables,
)
from .context import (
    ComputeContext,
    ContextSpec,
    EmulatedContext,
    NativeContext,
    ReferenceContext,
    get_context,
    DynamicRangeError,
)
from .farray import (
    BoundNamespace,
    ContextMismatchError,
    FArray,
    FScalar,
    PrecisionLeakError,
    precision,
)
from .batched import (
    BatchedContext,
    BatchSpec,
)

__all__ = [
    "NumberFormat",
    "RoundingInfo",
    "LONGDOUBLE_EXTENDED",
    "BitKernel",
    "IEEEBitKernel",
    "E4M3BitKernel",
    "PositBitKernel",
    "TakumBitKernel",
    "bitkernels_enabled",
    "set_bitkernels_enabled",
    "IEEEFormat",
    "BFLOAT16",
    "FLOAT16",
    "FLOAT32",
    "FLOAT64",
    "OFP8E4M3",
    "OFP8E5M2",
    "E4M3",
    "E5M2",
    "PositFormat",
    "POSIT8",
    "POSIT16",
    "POSIT32",
    "POSIT64",
    "TakumFormat",
    "TAKUM8",
    "TAKUM16",
    "TAKUM32",
    "TAKUM64",
    "FORMATS",
    "get_format",
    "available_formats",
    "formats_by_width",
    "preload_tables",
    "ComputeContext",
    "ContextSpec",
    "EmulatedContext",
    "NativeContext",
    "ReferenceContext",
    "get_context",
    "DynamicRangeError",
    "BoundNamespace",
    "FArray",
    "FScalar",
    "PrecisionLeakError",
    "ContextMismatchError",
    "precision",
    "BatchSpec",
    "BatchedContext",
]
