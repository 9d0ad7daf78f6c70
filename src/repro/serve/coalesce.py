"""Single-flight request coalescing keyed by store cache keys.

N concurrent requests for the same cold (matrix, format, config) cell must
cost exactly one solve: the first request (the *leader*) registers an
``asyncio.Future`` under the cell's ``task_key`` and submits the work; every
request that arrives while that future is pending (a *joiner*) awaits the
same future and shares the result.  The moment the leader resolves the
future the key is released — a later request for the same cell goes to the
store (now warm) instead.

The coalescer is event-loop-local state: ``peek``/``begin``/``finish`` are
plain synchronous methods, and the service calls them without an ``await``
in between, so the check-then-register sequence is atomic by virtue of the
single-threaded event loop (no locks needed — and none would help, since
holding one across an ``await`` is exactly the bug this design avoids).
"""

from __future__ import annotations

import asyncio
from typing import Optional

__all__ = ["RequestCoalescer"]


class RequestCoalescer:
    """In-flight futures keyed by cache key (single-flight per cell)."""

    def __init__(self):
        self._inflight: dict[str, asyncio.Future] = {}
        #: total joiners served from a leader's future (monotonic)
        self.coalesced_total = 0

    @property
    def depth(self) -> int:
        """Number of distinct cells currently in flight."""
        return len(self._inflight)

    def peek(self, key: str) -> Optional[asyncio.Future]:
        """The in-flight future under ``key``, if any (does not join)."""
        return self._inflight.get(key)

    def begin(self, key: str) -> asyncio.Future:
        """Register a new in-flight future under ``key`` (leader path).

        The caller must have checked :meth:`peek` first — beginning a key
        that is already in flight would strand the existing waiters.
        """
        if key in self._inflight:
            raise RuntimeError(f"cell {key!r} is already in flight")
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        return future

    async def join_future(self, future: asyncio.Future):
        """Await a future captured earlier via :meth:`peek` (joiner path).

        The service partitions a request's cells synchronously and may only
        get around to awaiting a joined cell after its leader finished — at
        which point the key is already released, so a key lookup would
        fail.  The future itself stays valid.
        """
        self.coalesced_total += 1
        # shield: one joiner's disconnect must not cancel the shared future
        return await asyncio.shield(future)

    def finish(self, key: str, result=None) -> None:
        """Resolve and release ``key`` (leader path; exactly once per begin)."""
        future = self._inflight.pop(key, None)
        if future is not None and not future.done():
            future.set_result(result)
