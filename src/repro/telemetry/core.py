"""Process-wide telemetry switch (the no-op fast path).

Telemetry is **off by default**: every instrumented call site in the hot
paths (`round_array` dispatch, the bit-kernel fallback accounting, the store
and executor counters, the trace spans) guards itself with a single module
attribute read of :data:`ENABLED` before doing any telemetry work, so the
compiled-in instrumentation costs one dict lookup per site when disabled —
the overhead budget is gated at <= 2% by ``benchmarks/bench_telemetry.py
--check``.

The opt-in hierarchy mirrors the rounding backends' opt-*out* hierarchy
(``REPRO_DISABLE_BITKERNELS`` / ``set_bitkernels_enabled``), inverted
because observability is the optional layer here:

* ``REPRO_TELEMETRY=1`` — environment: enable at import time.  This is also
  how ``parallel_map`` worker processes inherit the switch under the
  ``spawn`` start method (``fork`` inherits the module state directly).
* :func:`set_enabled` — runtime: toggle per phase (the CLI enables it when
  ``--trace``/``--metrics-json`` is passed).

Call sites read the flag as ``_core.ENABLED`` (module attribute, *not* a
``from``-import) so a runtime toggle is observed everywhere immediately.
Compiled call sites (the rounding kernels of ``arithmetic/_rounding.c``)
read the one-byte mirror :data:`ENABLED_FLAG` in place instead.
"""

from __future__ import annotations

import os

__all__ = ["ENABLED", "ENABLED_FLAG", "enabled", "set_enabled"]

#: the process-wide switch; read via module attribute so toggles propagate
ENABLED: bool = os.environ.get("REPRO_TELEMETRY", "").lower() in ("1", "true", "yes")
#: :data:`ENABLED` as one byte, kept in step by :func:`set_enabled`, for
#: compiled call sites that hold a buffer view of it
ENABLED_FLAG = bytearray([ENABLED])


def set_enabled(value: bool) -> bool:
    """Enable/disable telemetry process-wide; returns the previous state.

    Enabling does not clear previously collected metrics or configure a
    trace sink — pair with :meth:`MetricsRegistry.reset` and
    :func:`repro.telemetry.trace.configure` for a fresh instrumented run.
    """
    global ENABLED
    previous = ENABLED
    ENABLED = bool(value)
    ENABLED_FLAG[0] = ENABLED
    return previous


def enabled() -> bool:
    """Whether telemetry collection is currently on."""
    return ENABLED
