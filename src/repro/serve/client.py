"""Blocking HTTP client for the spectral-analysis service.

Stdlib-only (``http.client``), synchronous, and aware of the service's
backpressure contract: a ``503`` carries a ``Retry-After`` header with an
honest back-off estimate, and :meth:`ServeClient.cell` sleeps that long and
retries up to ``max_retries`` times before giving up with
:class:`ServiceUnavailable`.  Tests monkeypatch the module-level
:data:`sleep` hook to keep retry tests instant.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.parse
from typing import Optional

__all__ = ["ServeClient", "ServeError", "ServiceUnavailable"]

#: monkeypatchable sleep hook used between 503 retries
sleep = time.sleep


class ServeError(RuntimeError):
    """A non-retryable error response from the service."""

    def __init__(self, status: int, message: str):
        self.status = status
        super().__init__(f"HTTP {status}: {message}")


class ServiceUnavailable(ServeError):
    """The service stayed saturated through every retry."""

    def __init__(self, message: str, retry_after: int):
        super().__init__(503, message)
        self.retry_after = retry_after


class ServeClient:
    """Synchronous client bound to one service base URL.

    Parameters
    ----------
    base_url:
        ``http://host:port`` of a running service.
    timeout:
        Socket timeout per request, in seconds.  Cold cells block until the
        solve finishes, so this bounds the slowest accepted solve.
    max_retries:
        How many times :meth:`cell` retries a ``503`` (honouring
        ``Retry-After``) before raising :class:`ServiceUnavailable`.
    """

    def __init__(self, base_url: str, timeout: float = 300.0, max_retries: int = 3):
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise ValueError(f"base_url must look like http://host:port, got {base_url!r}")
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.timeout = timeout
        self.max_retries = max_retries

    # -- transport ---------------------------------------------------------

    def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> tuple[int, dict, bytes]:
        """One HTTP round trip; returns (status, headers, body bytes)."""
        connection = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            data = response.read()
            return response.status, {k.lower(): v for k, v in response.getheaders()}, data
        finally:
            connection.close()

    @staticmethod
    def _json(data: bytes) -> dict:
        try:
            return json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return {"error": data.decode("utf-8", "replace")}

    def _get_json(self, path: str) -> dict:
        status, _headers, data = self._request("GET", path)
        document = self._json(data)
        if status != 200:
            raise ServeError(status, str(document.get("error", data[:200])))
        return document

    # -- endpoints ---------------------------------------------------------

    def healthz(self) -> dict:
        return self._get_json("/healthz")

    def matrices(self) -> list[dict]:
        return self._get_json("/v1/matrices")["matrices"]

    def formats(self) -> dict:
        return self._get_json("/v1/formats")

    def metrics(self) -> dict:
        """The service's metrics-registry snapshot (JSON form)."""
        return self._get_json("/metrics?format=json")

    def metrics_text(self) -> str:
        """The Prometheus text exposition of ``/metrics``."""
        status, _headers, data = self._request("GET", "/metrics")
        if status != 200:
            raise ServeError(status, data.decode("utf-8", "replace")[:200])
        return data.decode("utf-8")

    def warmup(self, formats: Optional[list[str]] = None) -> list[str]:
        """Ask the service to build formats' rounding state; returns their names."""
        body = {} if formats is None else {"formats": formats}
        status, _headers, data = self._request("POST", "/v1/warmup", body=body)
        document = self._json(data)
        if status != 200:
            raise ServeError(status, str(document.get("error", "warmup failed")))
        return document["preloaded"]

    def cell(
        self,
        matrix: str,
        format_name: str,
        config: Optional[dict] = None,
        raw: bool = False,
    ):
        """Fetch one cell's run record, retrying through saturation.

        Parameters
        ----------
        matrix:
            Suite matrix name or content fingerprint.
        format_name:
            Number format of the cell.
        config:
            Optional config overrides (see the service's whitelist).
        raw:
            Return ``(body_bytes, headers)`` instead of the parsed payload —
            the byte-identity tests compare these bytes against the store
            file directly.

        A ``503`` is retried ``max_retries`` times, sleeping the server's
        ``Retry-After`` hint in between; persistent saturation raises
        :class:`ServiceUnavailable`, any other non-200 raises
        :class:`ServeError`.
        """
        body = {"matrix": matrix, "format": format_name}
        if config:
            body["config"] = config
        retry_after = 1
        for attempt in range(self.max_retries + 1):
            status, headers, data = self._request("POST", "/v1/cell", body=body)
            if status == 503:
                retry_after = max(1, int(headers.get("retry-after", "1") or 1))
                if attempt < self.max_retries:
                    sleep(retry_after)
                continue
            if status != 200:
                raise ServeError(status, str(self._json(data).get("error", data[:200])))
            if raw:
                return data, headers
            return self._json(data)
        raise ServiceUnavailable(
            f"service still saturated after {self.max_retries} retries", retry_after
        )

    def cells(
        self,
        matrix: str,
        formats: list[str],
        config: Optional[dict] = None,
    ) -> dict:
        """Fetch many formats of one matrix in a single batched request.

        The service solves the cold cells as one submission (one batched
        solve, a ``partialschur`` per format, when several are cold); the
        response document has a ``cells`` list with one entry per requested
        format carrying its own ``status``/``source`` and, on 200, the
        stored ``record``.  Saturation (``503``) is retried like
        :meth:`cell`; any other non-200 raises :class:`ServeError`.
        """
        body: dict = {"matrix": matrix, "formats": list(formats)}
        if config:
            body["config"] = config
        retry_after = 1
        for attempt in range(self.max_retries + 1):
            status, headers, data = self._request("POST", "/v1/cells", body=body)
            if status == 503:
                retry_after = max(1, int(headers.get("retry-after", "1") or 1))
                if attempt < self.max_retries:
                    sleep(retry_after)
                continue
            if status != 200:
                raise ServeError(status, str(self._json(data).get("error", data[:200])))
            return self._json(data)
        raise ServiceUnavailable(
            f"service still saturated after {self.max_retries} retries", retry_after
        )
