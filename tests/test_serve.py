"""Tests of the ``repro.serve`` service layer.

Covers the coalescing contract (N concurrent identical cold requests cost
exactly one solve), the warm-path byte-identity guarantee, the backpressure
contract (503 + ``Retry-After`` instead of unbounded queueing), the client's
retry behaviour, and the HTTP surface (routes, errors, metrics exposition).

Deterministic concurrency tests call ``SpectralService.handle_request``
directly on an event loop with a gated ``solve_fn`` — no sockets, no races;
the end-to-end socket path is exercised through :class:`ServiceThread` +
:class:`ServeClient` (and by ``scripts/serve_smoke.py`` in CI).
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import re
import socket
import threading

import pytest

from repro.datasets.registry import get_suite
from repro.experiments import (
    ExperimentConfig,
    ResultStore,
    task_key,
)
from repro.experiments.store import ExecutionReport, matrix_fingerprint
from repro.serve import (
    AsyncHTTPServer,
    HTTPError,
    Request,
    Response,
    RequestCoalescer,
    ServeClient,
    ServeError,
    ServiceThread,
    ServiceUnavailable,
    SpectralService,
    WorkerBridge,
    apply_config_overrides,
    solve_cells,
)
from repro.serve import client as client_module
from repro.telemetry import metrics, set_enabled

FMT = "takum8"
FMT2 = "E4M3"


@pytest.fixture(autouse=True)
def _telemetry():
    """Telemetry on with a clean registry for every test, restored after."""
    previous = set_enabled(True)
    previous_env = os.environ.get("REPRO_TELEMETRY")
    os.environ["REPRO_TELEMETRY"] = "1"
    metrics.reset()
    yield
    metrics.reset()
    set_enabled(previous)
    if previous_env is None:
        os.environ.pop("REPRO_TELEMETRY", None)
    else:
        os.environ["REPRO_TELEMETRY"] = previous_env


def _suite(count=1, seed=5):
    return get_suite("general", count=count, size_range=(12, 14), seed=seed)


def _config(**overrides):
    overrides.setdefault("restarts", 3)
    return ExperimentConfig(**overrides)


def _cell_request(matrix: str, format_name: str, config: dict | None = None) -> Request:
    body = {"matrix": matrix, "format": format_name}
    if config:
        body["config"] = config
    return Request(
        method="POST", path="/v1/cell", query={}, headers={}, body=json.dumps(body).encode()
    )


# --------------------------------------------------------------------- #
# request coalescer


def test_coalescer_single_flight():
    async def scenario():
        coalescer = RequestCoalescer()
        assert coalescer.peek("k") is None
        future = coalescer.begin("k")
        assert coalescer.peek("k") is future
        assert coalescer.depth == 1
        joiners = [
            asyncio.create_task(coalescer.join_future(coalescer.peek("k"))) for _ in range(4)
        ]
        await asyncio.sleep(0)  # let every joiner attach
        coalescer.finish("k", result=("ok", 1))
        results = await asyncio.gather(*joiners)
        assert results == [("ok", 1)] * 4
        assert coalescer.coalesced_total == 4
        assert coalescer.peek("k") is None  # released: next request re-probes

    asyncio.run(scenario())


def test_coalescer_begin_twice_raises():
    async def scenario():
        coalescer = RequestCoalescer()
        coalescer.begin("k")
        with pytest.raises(RuntimeError):
            coalescer.begin("k")
        coalescer.finish("k", result=None)

    asyncio.run(scenario())


def test_coalescer_finish_is_idempotent():
    async def scenario():
        coalescer = RequestCoalescer()
        coalescer.begin("k")
        coalescer.finish("k", result=1)
        coalescer.finish("k", result=2)  # no-op: key already released
        assert coalescer.depth == 0

    asyncio.run(scenario())


# --------------------------------------------------------------------- #
# config overrides


def test_config_overrides_coerce_query_strings():
    config = apply_config_overrides(
        _config(), {"restarts": "7", "eps_floor": "false", "maxdim": "none", "seed": 2}
    )
    assert config.restarts == 7
    assert config.eps_floor is False
    assert config.maxdim is None
    assert config.seed == 2


def test_config_overrides_reject_unknown_field():
    with pytest.raises(HTTPError) as excinfo:
        apply_config_overrides(_config(), {"reference_tolerance": 1e-9})
    assert excinfo.value.status == 400


@pytest.mark.parametrize(
    "overrides",
    [{"restarts": "many"}, {"eps_floor": "maybe"}, {"accumulation": "random"}],
)
def test_config_overrides_reject_bad_values(overrides):
    with pytest.raises(HTTPError) as excinfo:
        apply_config_overrides(_config(), overrides)
    assert excinfo.value.status == 400


# --------------------------------------------------------------------- #
# warm path: byte identity, zero solver work


@pytest.mark.parametrize("opened", ["local", "reopened"])
def test_warm_cell_round_trips_store_bytes(tmp_path, opened):
    """The served body is the committed file's bytes, also when the service
    reads through a second handle reopened on the same directory."""
    suite = _suite()
    config = _config()
    store = ResultStore(tmp_path / "store")
    solve_cells(store, suite[0], [FMT], config)  # prewarm out-of-band
    key = task_key(config, FMT, matrix_fingerprint(suite[0]))
    stored_bytes = store.path_for(key).read_bytes()
    if opened == "reopened":
        store = ResultStore(str(store.root))

    metrics.reset()  # drop the prewarm's executor/store counters
    service = SpectralService(
        store, suite, formats=[FMT], config=config, pool_kind="thread", preload=False
    )
    with ServiceThread(service) as base_url:
        client = ServeClient(base_url, timeout=30)
        body, headers = client.cell(suite[0].name, FMT, raw=True)

    assert body == stored_bytes  # the byte-identity contract
    assert headers["x-repro-source"] == "store"
    assert metrics.value("serve.solves") == 0
    assert metrics.value("executor.cells", kind="executed") == 0
    assert metrics.value("store.get.hit", kind="run") == 1


# --------------------------------------------------------------------- #
# cold path: coalescing


def test_concurrent_cold_requests_cost_one_solve(tmp_path):
    suite = _suite(seed=7)
    config = _config(restarts=2)
    store = ResultStore(tmp_path / "store")
    gate = threading.Event()

    def gated_solve(store, tm, formats, config):
        assert gate.wait(60), "test gate never released"
        return solve_cells(store, tm, formats, config)

    service = SpectralService(
        store,
        suite,
        formats=[FMT],
        config=config,
        pool_kind="thread",
        solve_fn=gated_solve,
        workers=1,
        preload=False,
    )

    async def scenario():
        tasks = [
            asyncio.create_task(service.handle_request(_cell_request(suite[0].name, FMT)))
            for _ in range(32)
        ]
        # wait until every non-leader joined the in-flight future, then
        # release the single gated solve
        for _ in range(1000):
            if service.coalescer.coalesced_total >= 31:
                break
            await asyncio.sleep(0.01)
        assert service.coalescer.coalesced_total == 31
        gate.set()
        return await asyncio.gather(*tasks)

    try:
        responses = asyncio.run(scenario())
    finally:
        gate.set()
        service.bridge.shutdown()

    assert [r.status for r in responses] == [200] * 32
    bodies = {r.body for r in responses}
    assert len(bodies) == 1  # every client saw the same record bytes
    sources = sorted(r.headers["X-Repro-Source"] for r in responses)
    assert sources.count("coalesced") == 31
    assert sources.count("computed") == 1
    # exactly one solver execution for 32 identical requests ...
    assert metrics.value("executor.cells", kind="executed") == 1
    assert metrics.value("serve.solves") == 1
    assert metrics.value("serve.coalesced") == 31
    # ... and the store-miss count is a constant of the cell (handler probe
    # + the plan's reference and task probes), independent of client count
    assert metrics.value("store.get.miss") == 3


def test_cold_cell_then_warm_cell(tmp_path):
    suite = _suite(seed=9)
    config = _config(restarts=2)
    store = ResultStore(tmp_path / "store")
    service = SpectralService(
        store, suite, formats=[FMT], config=config, pool_kind="thread", preload=False
    )
    try:
        with ServiceThread(service) as base_url:
            client = ServeClient(base_url, timeout=60)
            cold, cold_headers = client.cell(suite[0].name, FMT, raw=True)
            warm, warm_headers = client.cell(suite[0].name, FMT, raw=True)
    finally:
        service.bridge.shutdown()
    assert cold_headers["x-repro-source"] == "computed"
    assert warm_headers["x-repro-source"] == "store"
    assert cold == warm
    record = json.loads(warm)
    assert record["schema_version"] == 1
    assert record["record"]["format"] == FMT
    assert metrics.value("serve.solves") == 1


# --------------------------------------------------------------------- #
# backpressure: 503 + Retry-After, bounded memory


def test_saturated_pool_rejects_with_retry_after(tmp_path):
    suite = _suite(seed=11)
    config = _config()
    store = ResultStore(tmp_path / "store")
    gate = threading.Event()

    def blocked_solve(store, tm, formats, config):
        assert gate.wait(60), "test gate never released"
        return ExecutionReport(planned=1, executed=1)  # commits nothing

    service = SpectralService(
        store,
        suite,
        formats=[FMT],
        config=config,
        pool_kind="thread",
        solve_fn=blocked_solve,
        workers=1,
        queue_limit=1,  # capacity 2: one running + one queued
        preload=False,
    )

    async def scenario():
        # three *distinct* cells (different seeds -> different task keys),
        # so nothing coalesces: the third must be rejected
        tasks = [
            asyncio.create_task(
                service.handle_request(
                    _cell_request(suite[0].name, FMT, config={"seed": admitted})
                )
            )
            for admitted in range(2)
        ]
        await asyncio.sleep(0.05)  # both admitted cells reach the pool
        with pytest.raises(HTTPError) as excinfo:
            await service.handle_request(_cell_request(suite[0].name, FMT, config={"seed": 2}))
        gate.set()
        admitted_responses = await asyncio.gather(*tasks)
        return excinfo.value, admitted_responses

    try:
        error, admitted_responses = asyncio.run(scenario())
    finally:
        gate.set()
        service.bridge.shutdown()

    assert error.status == 503
    assert int(error.headers["Retry-After"]) >= 1
    assert metrics.value("serve.rejected", reason="saturated") == 1
    # the blocked solve "completed" without committing a record: the two
    # admitted requests surface that as 500s instead of hanging
    assert [r.status for r in admitted_responses] == [500, 500]
    assert service.coalescer.depth == 0  # nothing left in flight


# --------------------------------------------------------------------- #
# blocking client


class _LoopHTTP:
    """A bare AsyncHTTPServer on its own loop thread (client tests)."""

    def __init__(self, handler):
        self.server = AsyncHTTPServer(handler)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def __enter__(self) -> str:
        self.thread.start()
        asyncio.run_coroutine_threadsafe(self.server.start(), self.loop).result(10)
        return f"http://127.0.0.1:{self.server.port}"

    def __exit__(self, *exc_info):
        asyncio.run_coroutine_threadsafe(self.server.stop(), self.loop).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()


def test_client_retries_honor_retry_after(monkeypatch):
    sleeps = []
    monkeypatch.setattr(client_module, "sleep", sleeps.append)
    calls = {"n": 0}

    async def handler(request):
        calls["n"] += 1
        if calls["n"] <= 2:
            return Response.json_document(
                {"error": "saturated"}, status=503, headers={"Retry-After": "7"}
            )
        return Response.raw_json(b'{"ok": true}')

    with _LoopHTTP(handler) as base_url:
        record = ServeClient(base_url, timeout=10, max_retries=3).cell("m", FMT)
    assert record == {"ok": True}
    assert sleeps == [7, 7]  # slept exactly the server's hint before retrying


def test_client_gives_up_after_max_retries(monkeypatch):
    sleeps = []
    monkeypatch.setattr(client_module, "sleep", sleeps.append)

    async def handler(request):
        return Response.json_document(
            {"error": "saturated"}, status=503, headers={"Retry-After": "2"}
        )

    with _LoopHTTP(handler) as base_url:
        with pytest.raises(ServiceUnavailable) as excinfo:
            ServeClient(base_url, timeout=10, max_retries=2).cell("m", FMT)
    assert excinfo.value.retry_after == 2
    assert sleeps == [2, 2]  # one sleep per retry, none after the last try


def test_client_rejects_non_http_url():
    with pytest.raises(ValueError):
        ServeClient("ftp://nope")


# --------------------------------------------------------------------- #
# HTTP surface: routes, errors, metrics, warmup, shutdown


@pytest.fixture
def warm_serve(tmp_path):
    """A running service over a store prewarmed with one (matrix, format)."""
    suite = _suite(count=2)
    config = _config()
    store = ResultStore(tmp_path / "store")
    solve_cells(store, suite[0], [FMT], config)
    metrics.reset()
    service = SpectralService(
        store, suite, formats=[FMT, FMT2], config=config, pool_kind="thread", preload=False
    )
    thread = ServiceThread(service)
    base_url = thread.start()
    yield service, ServeClient(base_url, timeout=60), suite
    thread.stop()
    service.bridge.shutdown()


def test_healthz_and_listings(warm_serve):
    service, client, suite = warm_serve
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["matrices"] == 2
    assert health["queue_depth"] == 0
    assert health["store"] == str(service.store.root)
    names = [row["name"] for row in client.matrices()]
    assert names == [tm.name for tm in suite]
    fingerprints = [row["fingerprint"] for row in client.matrices()]
    assert fingerprints == [matrix_fingerprint(tm) for tm in suite]
    assert client.formats()["formats"] == [FMT, FMT2]


def test_cell_by_fingerprint_and_get_query(warm_serve):
    service, client, suite = warm_serve
    fingerprint = matrix_fingerprint(suite[0])
    by_fingerprint = client.cell(fingerprint, FMT)
    by_name = client.cell(suite[0].name, FMT)
    assert by_fingerprint == by_name
    # GET form: overrides ride as query parameters
    connection = http.client.HTTPConnection(client.host, client.port, timeout=10)
    try:
        path = f"/v1/cell?matrix={fingerprint}&format={FMT}&restarts=3"
        connection.request("GET", path)
        response = connection.getresponse()
        assert response.status == 200
        assert json.loads(response.read()) == by_name
    finally:
        connection.close()


def test_error_statuses(warm_serve):
    service, client, suite = warm_serve
    with pytest.raises(ServeError) as excinfo:
        client.cell("no-such-matrix", FMT)
    assert excinfo.value.status == 404
    with pytest.raises(ServeError) as excinfo:
        client.cell(suite[0].name, "float128")
    assert excinfo.value.status == 404
    with pytest.raises(ServeError) as excinfo:
        client.cell(suite[0].name, FMT, config={"reference_tolerance": 0.5})
    assert excinfo.value.status == 400
    with pytest.raises(ServeError) as excinfo:
        client._get_json("/v1/nope")
    assert excinfo.value.status == 404
    with pytest.raises(ServeError) as excinfo:
        client._get_json("/v1/warmup")  # GET on a POST-only route
    assert excinfo.value.status == 405


def test_http_protocol_errors(warm_serve):
    service, client, _suite_ = warm_serve
    with socket.create_connection((client.host, client.port), timeout=10) as sock:
        sock.sendall(b"BOGUS LINE\r\n\r\n")
        reply = sock.recv(4096).decode()
    assert reply.startswith("HTTP/1.1 400 ")
    connection = http.client.HTTPConnection(client.host, client.port, timeout=10)
    try:
        connection.request("DELETE", "/healthz")
        assert connection.getresponse().status == 501
    finally:
        connection.close()


def test_metrics_endpoint_exposes_serve_counters(warm_serve):
    service, client, suite = warm_serve
    client.cell(suite[0].name, FMT)  # warm hit
    text = client.metrics_text()
    assert 'serve_requests{route="cell",status="200"} 1' in text
    assert "serve_request_seconds_count" in text
    snapshot = client.metrics()
    assert snapshot["counters"]["serve.requests{route=cell,status=200}"] == 1
    assert snapshot["counters"]["store.get.hit{kind=run}"] == 1


def test_warmup_endpoint(warm_serve):
    service, client, _suite_ = warm_serve
    loaded = client.warmup([FMT])
    assert FMT in loaded
    assert FMT in service.preloaded_formats
    with pytest.raises(ServeError) as excinfo:
        client.warmup(["float64"])  # registered, but not served by this replica
    assert excinfo.value.status == 404


def test_process_bridge_builds_and_shuts_down(tmp_path):
    bridge = WorkerBridge(ResultStore(tmp_path / "store"), kind="process")
    assert bridge.kind == "process" and bridge.depth == 0
    bridge.shutdown()


def test_clean_shutdown_refuses_new_connections(tmp_path):
    suite = _suite()
    store = ResultStore(tmp_path / "store")
    service = SpectralService(
        store, suite, formats=[FMT], config=_config(), pool_kind="thread", preload=False
    )
    thread = ServiceThread(service)
    base_url = thread.start()
    client = ServeClient(base_url, timeout=10)
    assert client.healthz()["status"] == "ok"
    thread.stop()
    thread.stop()  # idempotent
    with pytest.raises(OSError):
        client.healthz()


# --------------------------------------------------------------------- #
# the batch route: POST /v1/cells


def _cells_request(matrix: str, formats: list[str], config: dict | None = None) -> Request:
    body: dict = {"matrix": matrix, "formats": formats}
    if config:
        body["config"] = config
    return Request(
        method="POST", path="/v1/cells", query={}, headers={}, body=json.dumps(body).encode()
    )


def test_cells_batch_end_to_end(warm_serve):
    """Cold cells are solved as one batch; warm cells come from the store;
    every record agrees byte-for-byte with the single-cell route."""
    service, client, suite = warm_serve
    document = client.cells(suite[0].name, [FMT, FMT2])
    by_format = {cell["format"]: cell for cell in document["cells"]}
    assert document["matrix"] == suite[0].name
    assert [c["format"] for c in document["cells"]] == [FMT, FMT2]  # request order
    assert by_format[FMT]["source"] == "store"  # prewarmed by the fixture
    assert by_format[FMT2]["source"] == "computed"
    assert all(cell["status"] == 200 for cell in document["cells"])
    for format_name, cell in by_format.items():
        raw, headers = client.cell(suite[0].name, format_name, raw=True)
        assert json.loads(raw) == cell["record"]
        assert headers["x-repro-source"] == "store"
        assert cell["key"] == task_key(
            service.config, format_name, matrix_fingerprint(suite[0])
        )
    # second pass: everything warm, no further solves
    again = client.cells(suite[0].name, [FMT, FMT2])
    assert all(cell["source"] == "store" for cell in again["cells"])
    assert metrics.value("serve.batch_cells") == 1  # only FMT2 was cold


def test_cells_validation_errors(warm_serve):
    service, client, suite = warm_serve
    cases = [
        ({"matrix": suite[0].name}, 400),  # missing formats
        ({"matrix": suite[0].name, "formats": []}, 400),
        ({"matrix": suite[0].name, "formats": [FMT, FMT]}, 400),  # duplicates
        ({"matrix": suite[0].name, "formats": ["float128"]}, 404),
        ({"matrix": "no-such-matrix", "formats": [FMT]}, 404),
        ({"formats": [FMT]}, 400),  # missing matrix
    ]
    for body, expected in cases:
        status, _headers, data = client._request("POST", "/v1/cells", body=body)
        assert status == expected, (body, data)
    connection = http.client.HTTPConnection(client.host, client.port, timeout=10)
    try:
        connection.request("GET", "/v1/cells")
        assert connection.getresponse().status == 405
    finally:
        connection.close()


def test_cells_coalesces_with_single_cell_requests(tmp_path):
    """A /v1/cell request arriving while /v1/cells is solving the same key
    joins the batch instead of re-solving; disjoint formats still solve."""
    suite = _suite(seed=7)
    config = _config(restarts=2)
    store = ResultStore(tmp_path / "store")
    gate = threading.Event()
    solves: list[str] = []

    def gated_solve(store, tm, formats, config):
        assert gate.wait(60), "test gate never released"
        solves.extend(formats)
        return solve_cells(store, tm, formats, config)

    service = SpectralService(
        store,
        suite,
        formats=[FMT, FMT2],
        config=config,
        pool_kind="thread",
        solve_fn=gated_solve,
        workers=1,
        preload=False,
    )

    async def scenario():
        batch = asyncio.create_task(
            service.handle_request(_cells_request(suite[0].name, [FMT, FMT2]))
        )
        # let the batch become the leader for both keys, then pile joiners on
        for _ in range(1000):
            if service.coalescer.depth == 2:
                break
            await asyncio.sleep(0.01)
        assert service.coalescer.depth == 2
        single = asyncio.create_task(
            service.handle_request(_cell_request(suite[0].name, FMT))
        )
        other_batch = asyncio.create_task(
            service.handle_request(_cells_request(suite[0].name, [FMT, FMT2]))
        )
        for _ in range(1000):
            if service.coalescer.coalesced_total >= 3:
                break
            await asyncio.sleep(0.01)
        assert service.coalescer.coalesced_total == 3
        gate.set()
        return await asyncio.gather(batch, single, other_batch)

    try:
        responses = asyncio.run(scenario())
    finally:
        gate.set()
        service.bridge.shutdown()

    assert [r.status for r in responses] == [200, 200, 200]
    assert sorted(solves) == sorted([FMT, FMT2])  # each cell solved exactly once
    leader, single, joiner_batch = responses
    leader_cells = {c["format"]: c for c in json.loads(leader.body)["cells"]}
    joined_cells = {c["format"]: c for c in json.loads(joiner_batch.body)["cells"]}
    assert all(c["source"] == "computed" for c in leader_cells.values())
    assert all(c["source"] == "coalesced" for c in joined_cells.values())
    assert json.loads(single.body) == leader_cells[FMT]["record"]
    assert joined_cells[FMT]["record"] == leader_cells[FMT]["record"]


def test_cells_saturation_returns_503_with_retry_after(tmp_path):
    suite = _suite(seed=7)
    store = ResultStore(tmp_path / "store")
    gate = threading.Event()

    def blocked_solve(store, tm, formats, config):
        assert gate.wait(60)
        return solve_cells(store, tm, formats, config)

    service = SpectralService(
        store,
        suite,
        formats=[FMT, FMT2],
        config=_config(restarts=1),
        pool_kind="thread",
        solve_fn=blocked_solve,
        workers=1,
        queue_limit=0,
        preload=False,
    )

    async def scenario():
        # occupy the single slot with a different config's batch
        first = asyncio.create_task(
            service.handle_request(
                _cells_request(suite[0].name, [FMT], config={"seed": 2})
            )
        )
        for _ in range(1000):
            if service.coalescer.depth == 1:
                break
            await asyncio.sleep(0.01)
        with pytest.raises(HTTPError) as excinfo:
            await service.handle_request(_cells_request(suite[0].name, [FMT2]))
        assert excinfo.value.status == 503
        assert int(excinfo.value.headers["Retry-After"]) >= 1
        # the rejected batch must have released its coalescer keys
        assert service.coalescer.depth == 1
        gate.set()
        return await first

    try:
        first = asyncio.run(scenario())
        assert first.status == 200
    finally:
        gate.set()
        service.bridge.shutdown()


# --------------------------------------------------------------------- #
# one cold-solve path for both routes


@pytest.mark.parametrize("formats, sweeps", [([FMT], 0), ([FMT, FMT2], 1)])
def test_cold_cells_pick_their_engine_from_the_format_count(
    tmp_path, monkeypatch, formats, sweeps
):
    """One cold format solves sequentially; several solve as one lockstep
    sweep."""
    from repro.core import lockstep

    calls = []
    original = lockstep.batched_partialschur

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(lockstep, "batched_partialschur", counting)
    suite = _suite(seed=13)
    service = SpectralService(
        ResultStore(tmp_path / "store"),
        suite,
        formats=[FMT, FMT2],
        config=_config(restarts=2),
        pool_kind="thread",
        preload=False,
    )
    try:
        response = asyncio.run(service.handle_request(_cells_request(suite[0].name, formats)))
    finally:
        service.bridge.shutdown()
    cells = json.loads(response.body)["cells"]
    assert [(c["status"], c["source"]) for c in cells] == [(200, "computed")] * len(formats)
    assert len(calls) == sweeps
    assert metrics.value("serve.solves") == 1
    assert metrics.value("serve.batch_cells") == len(formats)


def _without_wall_time(raw: bytes) -> bytes:
    """A store object's bytes with its wall-clock fields blanked: the
    ``created`` stamp (to the second) and a run record's measured
    ``solve_seconds`` — the fields two solves of the same cell never
    share."""
    raw = re.sub(rb'"created": "[^"]*"', b'"created": ""', raw)
    return re.sub(rb'"solve_seconds": [-+.0-9e]+', b'"solve_seconds": 0', raw)


def test_both_routes_commit_the_same_cold_cell(tmp_path):
    """A cold cell requested alone (``/v1/cell``, a batch of one) and in a
    ``/v1/cells`` batch commits the same store objects — byte for byte
    apart from the wall-clock ``created`` and ``solve_seconds`` — at one
    solve each."""
    suite = _suite(seed=15)
    config = _config(restarts=2)
    objects = {}
    for route, request in (
        ("cell", _cell_request(suite[0].name, FMT)),
        ("cells", _cells_request(suite[0].name, [FMT])),
    ):
        metrics.reset()
        store = ResultStore(tmp_path / route)
        service = SpectralService(
            store, suite, formats=[FMT], config=config, pool_kind="thread", preload=False
        )
        try:
            response = asyncio.run(service.handle_request(request))
        finally:
            service.bridge.shutdown()
        assert response.status == 200
        assert metrics.value("serve.solves") == 1
        objects[route] = {
            path.relative_to(store.root): path.read_bytes()
            for path in sorted((store.root / "objects").glob("*/*.json"))
        }
    key = task_key(config, FMT, matrix_fingerprint(suite[0]))
    record = store.path_for(key).relative_to(store.root)
    assert len(objects["cell"]) == 2  # the run record and the matrix reference
    assert objects["cell"].keys() == objects["cells"].keys()
    for path, raw in objects["cell"].items():
        assert raw.count(b'"solve_seconds": ') == (path == record)
        assert raw.count(b'"created": ') == 1
        assert _without_wall_time(raw) == _without_wall_time(objects["cells"][path])
