"""Hierarchical trace spans emitted as JSON-lines.

A span measures one phase of work::

    from repro.telemetry import trace

    with trace.span("krylov_schur.solve", fmt=ctx.name) as sp:
        ...
        sp.set(restarts=k)   # attach attributes discovered mid-span

Spans nest through a thread-local stack: each span knows its depth and
accumulates the wall time of its direct children, so the emitted event
carries both the inclusive duration (``dur``) and the self time (``self`` =
``dur`` minus children) — the phase breakdown of ``repro trace summarize``
needs no cross-event reconstruction.  One JSON line is written per span at
*exit* (exceptions propagate; the event is still emitted, flagged
``error``), in one ``os.write`` on an append-only descriptor, so a crashed
worker loses at most its in-flight span.  A line is what
``json.dumps(event, sort_keys=True, separators=(",", ":"))`` writes, but
spelled out key by key (:func:`_event_line`): the encoder's set-up costs
more than the whole line.

Sink files and worker processes
-------------------------------

:func:`configure` names the sink file and exports it through the
environment (``REPRO_TRACE`` + ``REPRO_TRACE_OWNER``), so ``parallel_map``
worker processes — forked or spawned — pick it up automatically.  The
configuring (owner) process writes ``<path>`` itself; every other process
writes its own shard file ``<path>.w<pid>.jsonl``, which keeps concurrent
writers from interleaving partial lines.  After the run the parent calls
:func:`collate` to fold the shard files into the main file (shards of
crashed workers included — the per-line flush preserves everything they
recorded before dying, matching the experiment store's crash-capture
semantics).

While telemetry is disabled (:mod:`repro.telemetry.core`) or no sink is
configured, :func:`span` returns one shared no-op object — no allocation,
no clock read.
"""

from __future__ import annotations

import glob
import json
import math
import os
import threading
import time
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterator, Optional

from . import core as _core

__all__ = [
    "span",
    "emit",
    "configure",
    "configured_path",
    "shutdown",
    "collate",
    "read_events",
]

_PATH_ENV = "REPRO_TRACE"
_OWNER_ENV = "REPRO_TRACE_OWNER"

_sink_path: Optional[str] = None
_writer: Optional["_Writer"] = None
_writer_lock = threading.Lock()
_tls = threading.local()


#: the other JSON values, as ``json.dumps(..., sort_keys=True)`` writes them
_encode_sorted = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _json_value(value) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, separators=(",",
    ":"))`` writes it: strings, ``None``, booleans, ints and floats spelled
    out, anything else through the encoder (which raises ``TypeError`` on
    what JSON cannot hold, as ``json.dumps`` does)."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else ("Infinity" if value > 0 else "-Infinity")
    return _encode_sorted(value)


def _event_line(name, pid, t0, dur, self_time, depth, attrs, error) -> bytes:
    """One span event as a JSON line, its keys in sorted order; ``t0``,
    ``dur`` and ``self_time`` come as JSON numbers already."""
    head = "{"
    if attrs:
        fields = ",".join(f"{_quote(key)}:{_json_value(attrs[key])}" for key in sorted(attrs))
        head += f'"attrs":{{{fields}}},'
    flag = '"error":true,' if error else ""
    line = (
        f'{head}"depth":{depth},"dur":{dur},{flag}"ev":"span","name":{_quote(name)},'
        f'"pid":{pid},"self":{self_time},"t0":{t0}}}\n'
    )
    return line.encode()


class _Writer:
    """Append-only JSON-lines writer bound to one process.

    ``pid`` records the opening process: a forked worker inheriting the
    module state sees a pid mismatch in :func:`_get_writer` and opens its
    own shard file instead of sharing the parent's file descriptor.  Each
    line is one ``os.write`` on an ``O_APPEND`` descriptor: it reaches the
    file as it is written (crash capture: every completed span survives),
    with no user-space buffer to flush.
    """

    def __init__(self, path: str):
        self.path = path
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._fd: Optional[int] = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)

    def write(self, line: bytes) -> None:
        with self._lock:
            while line:
                line = line[os.write(self._fd, line) :]

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None


def configure(path: str | os.PathLike, export_env: bool = True) -> None:
    """Set the trace sink file for this process (and its future workers).

    Truncates ``path``, removes shard leftovers of a previous run and, with
    ``export_env`` (default), exports ``REPRO_TRACE``/``REPRO_TRACE_OWNER``
    so worker processes route their spans into per-pid shard files.
    """
    global _sink_path, _writer
    path = os.fspath(path)
    with _writer_lock:
        if _writer is not None:
            _writer.close()
            _writer = None
        _sink_path = path
        for stale in glob.glob(path + ".w*.jsonl"):
            try:
                os.unlink(stale)
            except OSError:
                pass
        # truncate eagerly so collate() of an empty run still finds the file
        open(path, "w", encoding="utf-8").close()
    if export_env:
        os.environ[_PATH_ENV] = path
        os.environ[_OWNER_ENV] = str(os.getpid())


def configured_path() -> Optional[str]:
    """The active sink path (explicit or from ``$REPRO_TRACE``), if any."""
    if _sink_path is not None:
        return _sink_path
    env = os.environ.get(_PATH_ENV, "").strip()
    return env or None


def shutdown() -> None:
    """Close the writer and forget the sink (keeps the emitted files)."""
    global _sink_path, _writer
    with _writer_lock:
        if _writer is not None:
            _writer.close()
            _writer = None
        _sink_path = None
    os.environ.pop(_PATH_ENV, None)
    os.environ.pop(_OWNER_ENV, None)


def _shard_path(path: str) -> str:
    return f"{path}.w{os.getpid()}.jsonl"


def _get_writer() -> Optional[_Writer]:
    """The process's writer, opening (or re-opening after fork) lazily."""
    global _writer
    writer = _writer
    if writer is not None and writer.pid == os.getpid():
        return writer
    path = configured_path()
    if path is None:
        return None
    with _writer_lock:
        writer = _writer
        if writer is not None and writer.pid == os.getpid():
            return writer
        owner = os.environ.get(_OWNER_ENV, "")
        if owner == str(os.getpid()):
            # the configuring process appends to the main file (configure
            # already truncated it)
            writer = _Writer(path)
        else:
            # worker process: private shard, appended in case the pid is
            # reused within one run
            writer = _Writer(_shard_path(path))
        _writer = writer
        return writer


class _NullSpan:
    """Shared no-op span (telemetry disabled or no sink configured)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Span:
    """One live span; created by :func:`span`, emitted on exit."""

    __slots__ = ("name", "attrs", "_writer", "_t0_wall", "_t0", "_child", "_depth")

    def __init__(self, name: str, attrs: dict, writer: _Writer):
        self.name = name
        self.attrs = attrs
        self._writer = writer
        self._child = 0.0

    def set(self, **attrs) -> None:
        """Attach attributes discovered while the span is open."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        stack = getattr(_tls, "stack", None)
        if stack is None:
            stack = _tls.stack = []
        self._depth = len(stack)
        stack.append(self)
        self._t0_wall = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur = time.perf_counter() - self._t0
        stack = _tls.stack
        # unwind robustly even if an inner span leaked (exception paths)
        while stack and stack.pop() is not self:
            pass
        if stack:
            stack[-1]._child += dur
        # the clock readings are finite floats: their repr is their JSON
        self._writer.write(
            _event_line(
                self.name,
                os.getpid(),
                repr(round(self._t0_wall, 6)),
                repr(round(dur, 9)),
                repr(round(max(dur - self._child, 0.0), 9)),
                self._depth,
                self.attrs,
                exc_type is not None,
            )
        )
        return False  # never swallow the exception


def span(name: str, **attrs):
    """A trace span context manager (or the shared no-op when off)."""
    if not _core.ENABLED:
        return _NULL_SPAN
    writer = _get_writer()
    if writer is None:
        return _NULL_SPAN
    return Span(name, attrs, writer)


def emit(name: str, t0_wall: float, dur: float, error: bool = False, **attrs) -> None:
    """Emit one already-measured span event directly (no stack bookkeeping).

    :func:`span` nests through a *thread-local* stack, which is wrong inside
    an asyncio event loop: concurrent request coroutines interleave on one
    thread, so a context-manager span opened in one request would adopt
    another request's spans as children.  Async code (the serve layer)
    measures ``t0``/``dur`` itself and emits the completed event here; the
    event lands as a top-level span (``depth`` 0, ``self`` = ``dur``) in the
    same JSON-lines format, so ``trace summarize`` aggregates it like any
    other.
    """
    if not _core.ENABLED:
        return
    writer = _get_writer()
    if writer is None:
        return
    dur_json = _json_value(round(dur, 9))
    writer.write(
        _event_line(
            name, os.getpid(), _json_value(round(t0_wall, 6)), dur_json, dur_json, 0, attrs, error
        )
    )


def collate(path: Optional[str] = None) -> int:
    """Fold worker shard files into the main trace file.

    Appends every ``<path>.w<pid>.jsonl`` shard to ``<path>`` (in sorted
    shard order) and removes the shards; returns the number of shards
    merged.  Shards of crashed workers merge like any other — their
    completed spans were flushed line-by-line before the crash.
    """
    path = path or configured_path()
    if path is None:
        return 0
    shards = sorted(glob.glob(path + ".w*.jsonl"))
    if not shards:
        return 0
    with _writer_lock:
        global _writer
        if _writer is not None and _writer.pid == os.getpid():
            _writer.close()
            _writer = None
    with open(path, "a", encoding="utf-8") as main:
        for shard in shards:
            try:
                with open(shard, "r", encoding="utf-8") as handle:
                    main.write(handle.read())
                os.unlink(shard)
            except OSError:
                continue
    return len(shards)


def read_events(path: str | os.PathLike) -> Iterator[dict]:
    """Parse a JSON-lines trace file, skipping malformed lines.

    Tolerating a torn final line keeps traces of crashed runs readable.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if isinstance(event, dict):
                yield event
