"""The spectral-analysis service: routes, coalescing policy, lifecycle.

:class:`SpectralService` ties the serve layer together: an
:class:`~repro.serve.http.AsyncHTTPServer` dispatching into a route table, a
:class:`~repro.serve.coalesce.RequestCoalescer` making concurrent identical
cold requests cost one solve, and a :class:`~repro.serve.bridge.WorkerBridge`
running those solves on a bounded pool.  A request names a **cell**: a matrix
(by suite name or content fingerprint), a number format, and optional config
overrides; the response is the stored
:class:`~repro.experiments.runner.RunRecord` payload — byte-identical to the
store entry on the warm path.

Request flow, the same for ``GET/POST /v1/cell`` (one format) and
``POST /v1/cells`` (one matrix, many formats) — the order matters, see
:mod:`repro.serve.coalesce` for why the first three steps must not be
separated by an ``await``:

1. resolve matrix/formats/config, derive each cell's ``task_key``;
2. a key already in flight is **joined** (no store access at all);
3. otherwise the store is probed — a hit is served straight from the
   payload bytes;
4. the cold remainder is **led**: each of its keys registers an in-flight
   future, and the cells go to the bridge as **one** submission (full pool
   ⇒ ``503`` + ``Retry-After``) — one sequential solve for a single format,
   one lockstep sweep (the format axis of
   :func:`repro.core.lockstep.batched_partialschur`) for several.  The
   committed payloads are read back and resolve every joiner's future.

``/v1/cell`` is a batch of one: it answers with its cell's payload bytes and
``X-Repro-Source``/``X-Repro-Key`` headers, while ``/v1/cells`` answers a
document of per-cell statuses.  Records are bit-identical between the two
engines, so both routes share one store and join each other's solves.

Lifecycle helpers: :class:`ServiceThread` runs a service on a dedicated
event-loop thread (tests, benchmarks, smoke scripts) and
:func:`run_service` blocks the calling thread until SIGINT/SIGTERM (the CLI
``serve`` subcommand).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import threading
import time
from typing import Optional

from ..arithmetic.registry import available_formats, get_format, preload_tables
from ..datasets.testmatrix import TestMatrix
from ..experiments.config import ExperimentConfig
from ..experiments.store import ResultStore, matrix_fingerprint, task_key
from ..telemetry import core as _telemetry
from ..telemetry import trace as _trace
from ..telemetry.metrics import metrics as _metrics
from ..telemetry.report import render_prometheus
from ..utils.parallel import PoolSaturatedError
from .bridge import WorkerBridge
from .coalesce import RequestCoalescer
from .http import AsyncHTTPServer, HTTPError, Request, Response

__all__ = ["SpectralService", "ServiceThread", "run_service", "CONFIG_OVERRIDES"]

#: config fields a request may override (anything else is a 400); the rest of
#: :class:`~repro.experiments.config.ExperimentConfig` shapes the store
#: schema or the reference solve and stays operator-controlled
CONFIG_OVERRIDES = {
    "eigenvalue_count": int,
    "eigenvalue_buffer_count": int,
    "which": str,
    "restarts": int,
    "maxdim": int,
    "seed": int,
    "eps_floor": bool,
    "accumulation": str,
}

_TRUE_STRINGS = {"1", "true", "yes", "on"}
_FALSE_STRINGS = {"0", "false", "no", "off"}


def _coerce_override(name: str, value, kind) -> object:
    """Parse one override value (query strings arrive as text)."""
    if name == "maxdim" and (value is None or value == "" or value == "none"):
        return None
    if kind is bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in _TRUE_STRINGS:
            return True
        if isinstance(value, str) and value.lower() in _FALSE_STRINGS:
            return False
        raise HTTPError(400, f"config field {name!r} expects a boolean, got {value!r}")
    if kind is int:
        if isinstance(value, bool):
            raise HTTPError(400, f"config field {name!r} expects an integer, got {value!r}")
        try:
            return int(value)
        except (TypeError, ValueError):
            raise HTTPError(400, f"config field {name!r} expects an integer, got {value!r}") from None
    if not isinstance(value, str):
        raise HTTPError(400, f"config field {name!r} expects a string, got {value!r}")
    return value


def apply_config_overrides(config: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    """A copy of ``config`` with the whitelisted ``overrides`` applied.

    Raises :class:`~repro.serve.http.HTTPError` (400) for unknown fields or
    unparseable values, so route handlers can pass request input straight in.
    """
    if not overrides:
        return config
    fields = {}
    for name, value in overrides.items():
        kind = CONFIG_OVERRIDES.get(name)
        if kind is None:
            raise HTTPError(
                400,
                f"config field {name!r} cannot be overridden; "
                f"allowed: {sorted(CONFIG_OVERRIDES)}",
            )
        fields[name] = _coerce_override(name, value, kind)
    if "accumulation" in fields and fields["accumulation"] not in ("pairwise", "sequential"):
        raise HTTPError(400, "config field 'accumulation' must be 'pairwise' or 'sequential'")
    return dataclasses.replace(config, **fields)


class SpectralService:
    """One serving replica over a suite, a store, and a worker pool.

    Parameters
    ----------
    store:
        The :class:`~repro.experiments.store.ResultStore` to serve from and
        commit cold solves into.
    suite:
        The test matrices this replica can solve, indexed by name and by
        content fingerprint at construction time.
    formats:
        Format names to accept and preload rounding state for (``None``:
        every registered format).
    config:
        Baseline :class:`~repro.experiments.config.ExperimentConfig`;
        request overrides are applied on top per request.
    workers / queue_limit / pool_kind / solve_fn:
        Forwarded to :class:`~repro.serve.bridge.WorkerBridge`.
    preload:
        Build the per-format rounding state during :meth:`start` so forked
        solver workers inherit it copy-on-write.
    """

    def __init__(
        self,
        store: ResultStore,
        suite: list[TestMatrix],
        formats: Optional[list[str]] = None,
        config: Optional[ExperimentConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        queue_limit: int = 8,
        pool_kind: str = "process",
        solve_fn=None,
        preload: bool = True,
        idle_timeout: float = 60.0,
    ):
        self.store = store
        self.suite = list(suite)
        self.formats = list(formats) if formats is not None else available_formats()
        for name in self.formats:
            get_format(name)  # fail fast on typos, before the socket opens
        self.config = config if config is not None else ExperimentConfig()
        self.preload = preload
        self.coalescer = RequestCoalescer()
        self.bridge = WorkerBridge(
            store, workers=workers, queue_limit=queue_limit, kind=pool_kind, solve_fn=solve_fn
        )
        self.server = AsyncHTTPServer(
            self.handle_request, host=host, port=port, idle_timeout=idle_timeout
        )
        self._by_name: dict[str, TestMatrix] = {}
        self._fingerprints: dict[str, str] = {}  # matrix name -> fingerprint
        self._by_fingerprint: dict[str, TestMatrix] = {}
        for tm in self.suite:
            fingerprint = matrix_fingerprint(tm)
            self._by_name[tm.name] = tm
            self._fingerprints[tm.name] = fingerprint
            self._by_fingerprint[fingerprint] = tm
        self.preloaded_formats: list[str] = []

    # -- lifecycle ---------------------------------------------------------

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        """The bound port (updates from 0 once :meth:`start` ran)."""
        return self.server.port

    async def start(self) -> None:
        """Preload rounding state and start accepting connections."""
        if self.preload:
            self.preloaded_formats = preload_tables(self.formats)
        await self.server.start()

    async def stop(self) -> None:
        """Stop accepting, drain running solves, release in-flight waiters.

        Queued-but-unstarted solves are cancelled; their leaders observe the
        cancellation and resolve every joiner with a 503 body, so no request
        is left hanging.
        """
        await self.server.stop()
        await asyncio.get_running_loop().run_in_executor(None, self.bridge.shutdown)

    # -- request dispatch --------------------------------------------------

    _ROUTES = {
        "/healthz": "healthz",
        "/metrics": "metrics",
        "/v1/matrices": "matrices",
        "/v1/formats": "formats",
        "/v1/cell": "cell",
        "/v1/cells": "cells",
        "/v1/warmup": "warmup",
    }

    async def handle_request(self, request: Request) -> Response:
        """Route one request; every path is counted, timed, and traced."""
        route = self._ROUTES.get(request.path, "other")
        t0_wall = time.time()
        t0 = time.perf_counter()
        status = 500
        source = "none"
        try:
            response = await self._dispatch(route, request)
            status = response.status
            source = response.headers.get("X-Repro-Source", "none")
            return response
        except HTTPError as exc:
            status = exc.status
            raise
        finally:
            duration = time.perf_counter() - t0
            if _telemetry.ENABLED:
                _metrics.counter("serve.requests", route=route, status=str(status)).inc()
                _metrics.histogram("serve.request_seconds", source=source).observe(duration)
                _trace.emit(
                    "serve.request",
                    t0_wall,
                    duration,
                    error=status >= 500,
                    route=route,
                    status=status,
                )

    async def _dispatch(self, route: str, request: Request) -> Response:
        if route == "other":
            raise HTTPError(404, f"no route for {request.path!r}")
        if route == "cell":
            if request.method not in ("GET", "POST", "HEAD"):
                raise HTTPError(405, "cell supports GET and POST")
            return await self._handle_cell(request)
        if route == "cells":
            if request.method != "POST":
                raise HTTPError(405, "cells supports POST only")
            return await self._handle_cells(request)
        if route == "warmup":
            if request.method != "POST":
                raise HTTPError(405, "warmup supports POST only")
            return self._handle_warmup(request)
        if request.method not in ("GET", "HEAD"):
            raise HTTPError(405, f"{request.path} supports GET only")
        if route == "healthz":
            return self._handle_healthz()
        if route == "metrics":
            return self._handle_metrics(request)
        if route == "matrices":
            return self._handle_matrices()
        return self._handle_formats()

    # -- simple routes -----------------------------------------------------

    def _handle_healthz(self) -> Response:
        return Response.json_document(
            {
                "status": "ok",
                "matrices": len(self.suite),
                "formats": self.formats,
                "queue_depth": self.bridge.depth,
                "queue_capacity": self.bridge.capacity,
                "inflight_cells": self.coalescer.depth,
                "store": str(self.store.root),
            }
        )

    def _handle_metrics(self, request: Request) -> Response:
        snapshot = _metrics.snapshot()
        if request.query.get("format") == "json":
            return Response.json_document(snapshot)
        return Response.text(render_prometheus(snapshot))

    def _handle_matrices(self) -> Response:
        rows = [
            {
                "name": tm.name,
                "fingerprint": self._fingerprints[tm.name],
                "group": tm.group,
                "category": tm.category,
                "kind": tm.kind,
                "n": int(tm.matrix.shape[0]),
            }
            for tm in self.suite
        ]
        return Response.json_document({"matrices": rows})

    def _handle_formats(self) -> Response:
        return Response.json_document(
            {"formats": self.formats, "preloaded": self.preloaded_formats}
        )

    def _handle_warmup(self, request: Request) -> Response:
        names = request.json().get("formats", self.formats)
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise HTTPError(400, "'formats' must be a list of format names")
        unknown = [n for n in names if n not in self.formats]
        if unknown:
            raise HTTPError(404, f"formats not served here: {unknown}")
        loaded = preload_tables(names)
        for name in loaded:
            if name not in self.preloaded_formats:
                self.preloaded_formats.append(name)
        return Response.json_document({"preloaded": loaded})

    # -- the cell routes --------------------------------------------------

    def _parse_cells_request(
        self, request: Request, single: bool
    ) -> tuple[TestMatrix, list[str], ExperimentConfig, list[str]]:
        """Resolve (matrix, formats, config) and derive one key per cell.

        ``/v1/cell`` (``single``) names one ``format`` in a POST body or the
        query string, where every other query key is a config override;
        ``/v1/cells`` POSTs a list of ``formats``.
        """
        if request.method == "POST":
            body = request.json()
            matrix_ref = body.get("matrix")
            formats = [body.get("format")] if single else body.get("formats")
            overrides = body.get("config", {})
            if overrides and not isinstance(overrides, dict):
                raise HTTPError(400, "'config' must be a JSON object of overrides")
        else:
            overrides = dict(request.query)
            matrix_ref = overrides.pop("matrix", None)
            formats = [overrides.pop("format", None)]
        if not matrix_ref or not isinstance(matrix_ref, str):
            raise HTTPError(400, "missing 'matrix' (suite name or content fingerprint)")
        if single:
            if not formats[0] or not isinstance(formats[0], str):
                raise HTTPError(400, "missing 'format'")
        elif (
            not isinstance(formats, list)
            or not formats
            or not all(isinstance(f, str) for f in formats)
        ):
            raise HTTPError(400, "'formats' must be a non-empty list of format names")
        elif len(set(formats)) != len(formats):
            raise HTTPError(400, "'formats' contains duplicates")
        tm = self._by_name.get(matrix_ref) or self._by_fingerprint.get(matrix_ref)
        if tm is None:
            raise HTTPError(404, f"matrix {matrix_ref!r} is not in this service's suite")
        unknown = [f for f in formats if f not in self.formats]
        if unknown:
            raise HTTPError(404, f"formats not served here: {unknown}; see /v1/formats")
        config = apply_config_overrides(self.config, overrides)
        fingerprint = self._fingerprints[tm.name]
        keys = [task_key(config, f, fingerprint) for f in formats]
        return tm, formats, config, keys

    async def _handle_cell(self, request: Request) -> Response:
        """``/v1/cell``: one cell, answered with its payload bytes."""
        tm, formats, config, keys = self._parse_cells_request(request, single=True)
        [(source, status, body)] = await self._serve_cells(tm, formats, config, keys)
        return Response.raw_json(
            body, status=status, headers={"X-Repro-Source": source, "X-Repro-Key": keys[0]}
        )

    async def _handle_cells(self, request: Request) -> Response:
        """``POST /v1/cells``: many formats of one matrix, per-cell statuses.

        The response is 200 whenever the cold cells were admitted; each
        cell carries its own ``status``/``source`` (its record on 200, an
        ``error`` otherwise).
        """
        tm, formats, config, keys = self._parse_cells_request(request, single=False)
        outcomes = await self._serve_cells(tm, formats, config, keys)
        cells = []
        for fmt, key, (source, status, body) in zip(formats, keys, outcomes):
            entry = {"format": fmt, "key": key, "status": status, "source": source}
            document = json.loads(body)
            if status == 200:
                entry["record"] = document
            else:
                entry["error"] = document.get("error", "solve failed")
            cells.append(entry)
        return Response.json_document(
            {"matrix": tm.name, "cells": cells},
            headers={"X-Repro-Source": "batched"},
        )

    async def _serve_cells(
        self, tm: TestMatrix, formats: list[str], config: ExperimentConfig, keys: list[str]
    ) -> list[tuple[str, int, bytes]]:
        """``(source, status, body)`` of each requested cell, in request order.

        Joins the cells in flight, reads the warm ones from the store, and
        leads the cold remainder as one bridge submission; a full pool
        raises 503 + ``Retry-After``.
        """
        # Partition synchronously: no await between peek/begin and the
        # bridge submit, so the check-then-register is atomic on the event
        # loop.  A key in flight is joined before the store is probed —
        # its leader has not committed yet, so the probe would only count
        # a redundant miss.
        outcomes: dict[str, tuple[str, int, bytes]] = {}
        joined: list[tuple[str, asyncio.Future]] = []
        cold: list[tuple[str, str]] = []
        for fmt, key in zip(formats, keys):
            inflight = self.coalescer.peek(key)
            if inflight is not None:
                joined.append((key, inflight))
                continue
            payload = self.store.get(key)
            if payload is not None:
                # the store wrote this payload with json.dump defaults and
                # preserved key order, so re-serialising reproduces the
                # stored bytes exactly (the byte-identity contract)
                outcomes[key] = ("store", 200, _payload_bytes(payload))
            else:
                cold.append((fmt, key))

        if joined and _telemetry.ENABLED:
            _metrics.counter("serve.coalesced").inc(len(joined))

        if cold:
            for _, key in cold:
                self.coalescer.begin(key)
            try:
                solve = self.bridge.submit(tm, [f for f, _ in cold], config)
            except PoolSaturatedError as exc:
                for _, key in cold:
                    self.coalescer.finish(key, result=None)  # no joiner yet
                retry_after = self.bridge.retry_after()
                if _telemetry.ENABLED:
                    _metrics.counter("serve.rejected", reason="saturated").inc()
                raise HTTPError(
                    503,
                    f"solver pool saturated ({exc.depth}/{exc.capacity} in flight); "
                    "retry later",
                    headers={"Retry-After": str(retry_after)},
                ) from None
            outcomes.update(await self._lead([key for _, key in cold], solve))

        if joined:
            # join concurrently: every pending join registers with the
            # coalescer immediately instead of one per resolved future
            shared = await asyncio.gather(
                *(self.coalescer.join_future(future) for _, future in joined)
            )
            for (key, _), (status, body) in zip(joined, shared):
                outcomes[key] = ("coalesced", status, body)

        return [outcomes[key] for key in keys]

    async def _lead(
        self, keys: list[str], solve: asyncio.Future
    ) -> dict[str, tuple[str, int, bytes]]:
        """Await the bridge solve and resolve every cold cell's future.

        The shared futures always resolve to ``(status, body)`` pairs —
        never an exception — so a failed solve is reported identically to
        leader and joiners, and no joiner is left with an unretrieved
        error.  Each cell's payload is read back from the store on its own,
        so a partly failed submission still reports every cell honestly.
        """
        try:
            report = await solve
        except asyncio.CancelledError:
            failure = (503, _error_body("service shutting down before the solve started"))
        except Exception as exc:  # worker crash / pickling failure
            failure = (500, _error_body(f"solve crashed: {type(exc).__name__}: {exc}"))
        else:
            failure = None
        outcomes = {}
        for key in keys:
            if failure is not None:
                outcome = failure
            elif (payload := self.store.get(key)) is not None:
                outcome = (200, _payload_bytes(payload))
            else:
                # the engine records solver failures in the store, so a
                # missing payload after a "successful" execution means the
                # shard crashed
                outcome = (
                    500,
                    _error_body("solve did not commit a record", report=report.to_dict()),
                )
            self.coalescer.finish(key, result=outcome)
            outcomes[key] = ("computed",) + outcome
        return outcomes


def _payload_bytes(payload: dict) -> bytes:
    """Serialise a stored payload back to its exact on-disk byte form."""
    return json.dumps(payload).encode("utf-8")


def _error_body(message: str, **extra) -> bytes:
    return json.dumps({"error": message, **extra}, sort_keys=True).encode("utf-8")


class ServiceThread:
    """Run a :class:`SpectralService` on a dedicated event-loop thread.

    The blocking client, benchmarks, and tests use this to talk to a live
    service from synchronous code::

        with ServiceThread(service) as base_url:
            client = ServeClient(base_url)
            ...
    """

    def __init__(self, service: SpectralService, startup_timeout: float = 30.0):
        self.service = service
        self.startup_timeout = startup_timeout
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def base_url(self) -> str:
        return f"http://{self.service.host}:{self.service.port}"

    def start(self) -> str:
        """Start the loop thread and the service; returns the base URL."""
        if self._thread is not None:
            raise RuntimeError("service thread already started")
        self._loop = asyncio.new_event_loop()
        started = threading.Event()

        def _run() -> None:
            asyncio.set_event_loop(self._loop)
            started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(target=_run, name="repro-serve", daemon=True)
        self._thread.start()
        started.wait(self.startup_timeout)
        future = asyncio.run_coroutine_threadsafe(self.service.start(), self._loop)
        future.result(self.startup_timeout)
        return self.base_url

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the service and tear the loop thread down."""
        if self._loop is None or self._thread is None:
            return
        future = asyncio.run_coroutine_threadsafe(self.service.stop(), self._loop)
        try:
            future.result(timeout)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout)
            self._loop.close()
            self._loop = None
            self._thread = None

    def __enter__(self) -> str:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def run_service(service: SpectralService) -> None:
    """Run ``service`` on this thread until SIGINT/SIGTERM (CLI entry)."""
    import signal

    async def _main() -> None:
        await service.start()
        print(f"repro serve: listening on http://{service.host}:{service.port}")
        print(
            f"  suite: {len(service.suite)} matrices, formats: {', '.join(service.formats)}"
        )
        print(f"  store: {service.store.root}")
        stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop_event.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or exotic platform: Ctrl-C still works
        try:
            await stop_event.wait()
        finally:
            print("repro serve: shutting down")
            await service.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
