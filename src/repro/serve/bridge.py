"""Worker bridge: cold cells onto a bounded pool via the plan/execute engine.

Every cold submission — one format from ``/v1/cell`` or several from
``/v1/cells`` — becomes one ``solve_cells`` task: re-plan the matrix's
cold formats against the store (another replica may have committed some
meanwhile — those drop out) and run :func:`execute_plan` with the store
attached, so the records and the per-matrix reference commit through the
same atomic path as a batch run.  With the default ``"process"`` pool the
task runs in a forked worker that reopens the store by its directory; with
a ``"thread"`` pool (unit tests) it shares the service's store object.
Both commit through the same atomic write-rename, so they are
interchangeable over one store directory.

Admission control is the whole point of the bridge: the underlying
:class:`~repro.utils.parallel.BoundedPool` accepts at most
``workers + queue_limit`` unfinished solves and raises
:class:`~repro.utils.parallel.PoolSaturatedError` beyond that.  The service
maps that to ``503`` + ``Retry-After`` — an overloaded replica degrades
into fast rejections with an honest backoff hint instead of an unbounded
queue.
"""

from __future__ import annotations

import asyncio
import collections
import math
import time
from typing import Callable, Optional

from ..datasets.testmatrix import TestMatrix
from ..experiments.config import ExperimentConfig
from ..experiments.store import ExecutionReport, ResultStore
from ..telemetry import core as _telemetry
from ..telemetry.metrics import metrics as _metrics
from ..utils.parallel import BoundedPool, PoolSaturatedError

__all__ = ["solve_cells", "WorkerBridge"]


def solve_cells(
    store: ResultStore,
    test_matrix: TestMatrix,
    format_names: list[str],
    config: ExperimentConfig,
) -> ExecutionReport:
    """Solve the cold formats of one matrix through the plan/execute engine.

    Planning subtracts store hits, so cells a racing replica committed
    meanwhile drop out before anything runs; execution commits each record
    and the per-matrix reference atomically as they land.  Several formats
    run as one lockstep sweep (``batch_formats=True``), a single format as
    one sequential solve — the faster engine for each; cache keys and
    payloads are the same either way.  Returns the execution report; the
    caller reads the committed payloads back from the store.
    """
    from ..experiments.store import execute_plan, plan_experiment

    plan = plan_experiment(
        [test_matrix],
        list(format_names),
        config,
        store=store,
        use_cache=True,
        batch_formats=len(format_names) > 1,
    )
    result = execute_plan(plan, workers=1)
    return result.report


def _solve_cells_local(
    root: str, test_matrix: TestMatrix, format_names: list[str], config: ExperimentConfig
) -> ExecutionReport:
    """Process-pool entry point: open the store by path in the worker."""
    return solve_cells(ResultStore(root), test_matrix, format_names, config)


class WorkerBridge:
    """Submits cold-cell solves onto a bounded worker pool.

    One :meth:`submit` carries the cold formats of one matrix — one from
    ``/v1/cell``, any number from ``/v1/cells`` — and occupies one pool
    slot, so it is admitted or rejected as a unit.

    Parameters
    ----------
    store:
        The service's result store.  ``"process"`` workers reopen it by
        its ``root`` path; ``"thread"`` workers share this object.
    workers:
        Concurrent solve slots (``<= 0``: all CPUs).
    queue_limit:
        Admitted-but-not-running solves beyond the slots; submissions past
        ``workers + queue_limit`` raise
        :class:`~repro.utils.parallel.PoolSaturatedError`.
    kind:
        ``"process"`` (default) or ``"thread"`` — see
        :class:`~repro.utils.parallel.BoundedPool`.
    solve_fn:
        Override of :func:`solve_cells` with the same
        ``(store, matrix, formats, config)`` signature.  Tests inject gated
        or counting solvers here; ``None`` uses the real engine.
    """

    #: completed-solve durations kept for the Retry-After estimate
    _DURATION_WINDOW = 32
    #: Retry-After clamp (seconds): never tell a client "0", never park it
    #: for more than a minute
    MIN_RETRY_AFTER = 1
    MAX_RETRY_AFTER = 60

    def __init__(
        self,
        store: ResultStore,
        workers: int = 1,
        queue_limit: int = 8,
        kind: str = "process",
        solve_fn: Optional[Callable] = None,
    ):
        self.store = store
        self.kind = kind
        self.solve_fn = solve_fn
        self.pool = BoundedPool(workers=workers, queue_limit=queue_limit, kind=kind)
        self._durations: collections.deque[float] = collections.deque(maxlen=self._DURATION_WINDOW)

    @property
    def depth(self) -> int:
        """Solves currently admitted (running + queued)."""
        return self.pool.depth

    @property
    def capacity(self) -> int:
        return self.pool.capacity

    def submit(
        self, test_matrix: TestMatrix, format_names: list[str], config: ExperimentConfig
    ) -> asyncio.Future:
        """Submit the cold formats of one matrix; returns an awaitable for
        its report.

        Raises :class:`~repro.utils.parallel.PoolSaturatedError` when the
        pool is full — the caller turns that into 503 + ``Retry-After``.
        """
        formats = list(format_names)
        if self.solve_fn is None and self.kind == "process":
            fn, store = _solve_cells_local, str(self.store.root)
        else:
            fn, store = self.solve_fn or solve_cells, self.store
        future = self.pool.submit(fn, store, test_matrix, formats, config)
        submitted = time.perf_counter()
        if _telemetry.ENABLED:
            _metrics.counter("serve.solves").inc()
            _metrics.counter("serve.batch_cells").inc(len(formats))
            _metrics.gauge("serve.queue_depth").set(self.depth)

        def _done(completed_future) -> None:
            self._record_completion(completed_future, submitted)

        future.add_done_callback(_done)
        return asyncio.wrap_future(future)

    def _record_completion(self, future, submitted: float) -> None:
        total = time.perf_counter() - submitted
        seconds = total
        try:
            report = future.result()
            if isinstance(report, ExecutionReport) and report.wall_seconds > 0.0:
                seconds = report.wall_seconds  # execution time without queue wait
        except BaseException:
            pass  # crashed/cancelled solves still inform the estimate via `total`
        self._durations.append(seconds)
        if _telemetry.ENABLED:
            _metrics.histogram("serve.solve_seconds").observe(total)
            _metrics.gauge("serve.queue_depth").set(self.depth)

    def retry_after(self) -> int:
        """Honest back-off hint (seconds) for a rejected request.

        Estimates when the next slot frees: the average recent solve time
        times the number of queued-task "rounds" ahead of a new arrival,
        clamped to [:data:`MIN_RETRY_AFTER`, :data:`MAX_RETRY_AFTER`].
        Before any solve completed the floor is returned.
        """
        if not self._durations:
            return self.MIN_RETRY_AFTER
        average = sum(self._durations) / len(self._durations)
        rounds = max(1, math.ceil(self.depth / max(1, self.pool.workers)))
        estimate = math.ceil(average * rounds)
        return int(min(self.MAX_RETRY_AFTER, max(self.MIN_RETRY_AFTER, estimate)))

    def shutdown(self) -> None:
        """Stop the pool (queued, unstarted solves are cancelled)."""
        self.pool.shutdown(wait=True)


# re-exported for callers that handle saturation explicitly
PoolSaturatedError = PoolSaturatedError
