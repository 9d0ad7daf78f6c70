"""Serving-layer benchmarks: warm latency and coalesced-cold throughput.

The service exists so warm cells are cheap: a warm ``/v1/cell`` round trip
is one store read plus JSON passthrough over a local socket, and must stay
in the low-millisecond range next to the multi-second cold solves.  The
cold benchmark measures the coalescing win directly — a burst of identical
requests against an empty store completes in one solve's wall time, not
N — on the same scaled-down Figure-1 style workload the other benchmarks
use.  Both write ``benchmarks/output/bench_serve.json`` (plus the generic
``bench_serve_times.json``) for the cross-PR perf trajectory.
"""

from __future__ import annotations

import asyncio
import itertools
import json

from .conftest import bench_config, bench_size_range, write_json_report

from repro.datasets import suitesparse_like
from repro.experiments import ResultStore, run_experiment
from repro.serve import Request, ServeClient, ServiceThread, SpectralService

FORMAT = "takum16"
WARM_REQUESTS = 25
COLD_BURST = 16

_RESULTS: dict[str, dict] = {}


def _suite(count=2):
    return suitesparse_like(count=count, size_range=bench_size_range(), seed=12)


def _record_result(name: str, payload: dict) -> None:
    _RESULTS[name] = payload
    write_json_report(
        "bench_serve.json",
        {
            "benchmark": "serve",
            "format": FORMAT,
            "warm_requests": WARM_REQUESTS,
            "cold_burst": COLD_BURST,
            "results": dict(sorted(_RESULTS.items())),
        },
    )


def test_serve_warm_latency(benchmark, tmp_path):
    """Warm ``/v1/cell`` over a real socket: store read + JSON passthrough."""
    suite = _suite()
    config = bench_config()
    store = ResultStore(tmp_path / "store")
    cold = run_experiment(suite, [FORMAT], config, store=store)
    assert cold.report.executed == cold.report.planned

    service = SpectralService(
        store, suite, formats=[FORMAT], config=config, pool_kind="thread", preload=False
    )
    with ServiceThread(service) as base_url:
        client = ServeClient(base_url, timeout=30)

        def warm_round_trips():
            for tm in suite:
                for _ in range(WARM_REQUESTS // len(suite)):
                    body, headers = client.cell(tm.name, FORMAT, raw=True)
                    assert headers["x-repro-source"] == "store"
            return body

        body = benchmark.pedantic(warm_round_trips, rounds=5, iterations=1)
    service.bridge.shutdown()
    stats = benchmark.stats.stats
    requests_per_round = (WARM_REQUESTS // len(suite)) * len(suite)
    _record_result(
        "warm_latency",
        {
            "requests_per_round": requests_per_round,
            "mean_seconds_per_request": stats.mean / requests_per_round,
            "min_seconds_per_request": stats.min / requests_per_round,
            "payload_bytes": len(body),
        },
    )


def test_serve_coalesced_cold_throughput(benchmark, tmp_path):
    """A burst of identical cold requests completes in ~one solve's time.

    Each round gets a store in its own fresh directory, so every round is
    genuinely cold; the requests run concurrently on one event loop against the
    service handler (no socket noise), exactly how joiners coalesce in
    production.
    """
    suite = _suite(count=1)
    config = bench_config()
    request_body = json.dumps({"matrix": suite[0].name, "format": FORMAT}).encode()
    state: dict = {}
    rounds = itertools.count()

    def fresh_service():
        state["service"] = SpectralService(
            ResultStore(tmp_path / f"round{next(rounds)}"),
            suite,
            formats=[FORMAT],
            config=config,
            pool_kind="thread",
            workers=1,
            preload=False,
        )

    def cold_burst():
        service = state["service"]

        async def burst():
            tasks = [
                asyncio.create_task(
                    service.handle_request(
                        Request(
                            method="POST",
                            path="/v1/cell",
                            query={},
                            headers={},
                            body=request_body,
                        )
                    )
                )
                for _ in range(COLD_BURST)
            ]
            return await asyncio.gather(*tasks)

        responses = asyncio.run(burst())
        assert [r.status for r in responses] == [200] * COLD_BURST
        assert service.coalescer.coalesced_total == COLD_BURST - 1
        service.bridge.shutdown()
        return responses

    benchmark.pedantic(cold_burst, rounds=3, iterations=1, setup=fresh_service)
    stats = benchmark.stats.stats
    _record_result(
        "coalesced_cold_burst",
        {
            "burst_size": COLD_BURST,
            "mean_seconds_per_burst": stats.mean,
            "mean_seconds_per_request": stats.mean / COLD_BURST,
        },
    )
