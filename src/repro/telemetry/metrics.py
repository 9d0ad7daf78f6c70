"""Metrics registry: counters, gauges and histograms.

One process-wide :class:`MetricsRegistry` (:data:`metrics`) aggregates
everything the instrumented layers record:

* **counters** — monotonically increasing tallies (kernel dispatch decisions,
  store hits/misses, rounded elementary operations);
* **gauges** — last-written values (table memory, worker counts);
* **histograms** — streaming summaries (count/sum/min/max) of observations,
  used for wall-time distributions.

Instruments are keyed by ``(name, labels)``; the flat snapshot renders label
sets Prometheus-style (``rounding.dispatch{format=posit16,path=bitkernel}``)
so the JSON output diffs cleanly.  All mutation is thread-safe: each
instrument carries its own lock (CPython's ``+=`` on an attribute is *not*
atomic across threads).  Hot call sites are expected to guard on
``core.ENABLED`` before touching the registry and to memoise the instrument
objects they use repeatedly — ``counter(...)`` performs a dict lookup and
label canonicalisation per call, which is fine per store commit but not per
rounded scalar op (those keep the context-local ``op_count`` tally and flush
through :meth:`repro.arithmetic.ComputeContext.publish_op_count`).
"""

from __future__ import annotations

import threading
from typing import Callable, Iterator, Optional

from . import core as _core

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics",
]


def _render_key(name: str, labels: tuple[tuple[str, str], ...]) -> str:
    """Flat snapshot key: ``name`` or ``name{k=v,...}`` (labels sorted)."""
    if not labels:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


class Counter:
    """Monotonically increasing tally."""

    __slots__ = ("value", "_lock")

    def __init__(self):
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (thread-safe)."""
        with self._lock:
            self.value += n


class Gauge:
    """Last-written value."""

    __slots__ = ("value", "_lock")

    def __init__(self):
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Overwrite the gauge (thread-safe)."""
        with self._lock:
            self.value = float(value)


class Histogram:
    """Streaming summary of observations: count, sum, min, max.

    A fixed-size summary instead of stored samples keeps the no-allocation
    promise of the telemetry layer — per-event detail belongs to the trace
    sink (:mod:`repro.telemetry.trace`), not the metrics registry.
    """

    __slots__ = ("count", "total", "min", "max", "_lock")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation (thread-safe)."""
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict:
        """JSON-able view of the summary statistics."""
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Thread-safe registry of named, labelled instruments.

    ``counter``/``gauge``/``histogram`` get-or-create and return the
    instrument object — hot paths call them once and keep the reference;
    incrementing the returned object is a single lock-protected add.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}
        self._flushers: list[Callable[[bool], None]] = []

    # -- deferred tallies -------------------------------------------------

    def register_flusher(self, flush: Callable[[bool], None]) -> None:
        """Register a deferred-tally drain for the hottest call sites.

        Per-element instrumentation (the rounding dispatch of
        ``arithmetic/base.py`` and the kernels under it) cannot afford a
        registry lookup — or even a lock acquisition — per call; those
        sites accumulate into preallocated counter cells (plain lists held
        by each format and kernel, indexed in module-local dicts) and
        register a
        ``flush(discard)`` callable here.  Every read path (:meth:`snapshot`,
        :meth:`counters`, :meth:`value`, :meth:`sum_counters`) drains the
        tallies first, so readers always observe exact totals;
        ``flush(True)`` (from :meth:`reset`) drops pending tallies instead,
        so counts recorded before a reset cannot leak past it.
        """
        self._flushers.append(flush)

    def _drain(self, discard: bool = False) -> None:
        for flush in self._flushers:
            flush(discard)

    @staticmethod
    def _key(name: str, labels: dict) -> tuple:
        return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))

    def counter(self, name: str, **labels) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        key = self._key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(key, Counter())
        return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        key = self._key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(key, Gauge())
        return instrument

    def histogram(self, name: str, **labels) -> Histogram:
        """The histogram for ``(name, labels)``, created on first use."""
        key = self._key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(key, Histogram())
        return instrument

    def inc(self, name: str, n: int = 1, **labels) -> None:
        """Convenience counter increment; no-op while telemetry is off."""
        if _core.ENABLED:
            self.counter(name, **labels).inc(n)

    # -- introspection ----------------------------------------------------

    def counters(self) -> Iterator[tuple[str, int]]:
        """``(flat key, value)`` pairs of all counters (sorted)."""
        self._drain()
        for key in sorted(self._counters):
            yield _render_key(*key), self._counters[key].value

    def snapshot(self) -> dict:
        """JSON-able view of every instrument (flat, label-rendered keys)."""
        self._drain()
        return {
            "counters": {_render_key(*k): c.value for k, c in sorted(self._counters.items())},
            "gauges": {_render_key(*k): g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                _render_key(*k): h.summary() for k, h in sorted(self._histograms.items())
            },
        }

    def value(self, name: str, **labels) -> int:
        """Current value of a counter (0 when it was never incremented)."""
        self._drain()
        instrument = self._counters.get(self._key(name, labels))
        return instrument.value if instrument is not None else 0

    def sum_counters(self, prefix: str) -> int:
        """Sum of every counter whose name starts with ``prefix``.

        Label-blind aggregation, e.g. ``sum_counters("store.get.hit")``
        across record kinds.
        """
        self._drain()
        total = 0
        for (name, _labels), instrument in self._counters.items():
            if name.startswith(prefix):
                total += instrument.value
        return total

    def reset(self) -> None:
        """Drop every instrument (fresh per-run view; the CLI calls this)."""
        self._drain(discard=True)
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: the process-wide registry every instrumented layer records into
metrics = MetricsRegistry()
