"""``repro.serve`` — an async spectral-analysis service over the store.

A zero-dependency (stdlib ``asyncio``) HTTP service that turns the
experiment store into a queryable API: a request names a **cell** — a test
matrix (by suite name or content fingerprint), a number format, and
optional config overrides — and receives the stored
:class:`~repro.experiments.runner.RunRecord` payload as JSON, byte-identical
to the store entry when the cell is warm.

The moving parts, each its own module:

* :mod:`~repro.serve.http` — minimal asyncio HTTP/1.1 (parse + render);
* :mod:`~repro.serve.coalesce` — single-flight coalescing: N concurrent
  identical cold requests cost exactly one solve;
* :mod:`~repro.serve.bridge` — cold cells onto a bounded worker pool via
  the plan/execute engine, with 503 + ``Retry-After`` when saturated;
* :mod:`~repro.serve.service` — routes, lifecycle, and the
  :class:`ServiceThread` / :func:`run_service` runners;
* :mod:`~repro.serve.client` — blocking stdlib client honouring the
  backpressure contract.

Start one from the CLI (``python -m repro.experiments.cli serve ...``) or
embed it::

    from repro.serve import ServiceThread, SpectralService, ServeClient

    service = SpectralService(store, suite, formats=["takum16"])
    with ServiceThread(service) as base_url:
        record = ServeClient(base_url).cell("ss_like_000", "takum16")

See ``docs/serving.md`` for the endpoint reference and operational notes.
"""

from .bridge import WorkerBridge, solve_cells
from .client import ServeClient, ServeError, ServiceUnavailable
from .coalesce import RequestCoalescer
from .http import AsyncHTTPServer, HTTPError, Request, Response
from .service import (
    CONFIG_OVERRIDES,
    ServiceThread,
    SpectralService,
    apply_config_overrides,
    run_service,
)

__all__ = [
    "AsyncHTTPServer",
    "HTTPError",
    "Request",
    "Response",
    "RequestCoalescer",
    "WorkerBridge",
    "solve_cells",
    "SpectralService",
    "ServiceThread",
    "run_service",
    "CONFIG_OVERRIDES",
    "apply_config_overrides",
    "ServeClient",
    "ServeError",
    "ServiceUnavailable",
]
