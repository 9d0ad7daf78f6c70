"""Content-addressed experiment store and the resumable execution engine.

The experiment layer used to be fire-and-forget: every invocation recomputed
every (matrix, format) cell from scratch, and one crashed worker aborted the
whole suite.  This module replaces that with

* a :class:`ResultStore` — an on-disk, content-addressed JSON store where
  every finished (matrix, format) cell lives under a stable SHA-256 cache
  key and is committed with an atomic write-rename (a killed run loses at
  most its in-flight tasks, never a finished cell); the store is just its
  directory, so any process — a CLI run, a serve worker — reopens it by
  path;
* a plan/execute engine — :func:`plan_experiment` subtracts cached cells
  from the requested suite × formats grid and groups the remainder into
  per-matrix shards (so the extended-precision reference solve is amortised
  over all missing formats of a matrix); :func:`execute_plan` runs the
  shards through the work-stealing ``parallel_map``, commits each record the
  moment it lands in the parent and materialises crashed shards as
  ``"failed"`` records carrying the worker traceback.

Cache keys (see :func:`task_key`) cover the full canonicalised
:class:`~repro.experiments.config.ExperimentConfig`, the derived
:class:`~repro.arithmetic.ContextSpec`, the format name, a content hash of
the matrix (values, sparsity pattern, metadata) and the store schema
version — any change to any of them moves the task to a fresh key, so stale
results are never served.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import time
import uuid
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from ..datasets.testmatrix import TestMatrix
from ..telemetry import core as _telemetry
from ..telemetry import trace as _trace
from ..telemetry.metrics import metrics as _metrics
from ..utils.parallel import TaskOutcome, parallel_map
from .config import ExperimentConfig
from .runner import (
    ExperimentResult,
    MatrixExperiment,
    ReferenceRecord,
    RunRecord,
    run_matrix_experiment,
)

__all__ = [
    "STORE_SCHEMA_VERSION",
    "default_store_root",
    "matrix_fingerprint",
    "task_key",
    "reference_key",
    "ResultStore",
    "ExperimentPlan",
    "ExecutionReport",
    "plan_experiment",
    "execute_plan",
]

#: Version of the on-disk payload schema.  The version participates in every
#: cache key, so bumping it orphans all existing entries at once (they stop
#: being addressable) — ``ResultStore.gc`` reclaims the disk space.
STORE_SCHEMA_VERSION = 1

#: pseudo-format name under which the per-matrix reference solve is keyed
_REFERENCE_KIND = "::reference::"


def default_store_root() -> pathlib.Path:
    """Store directory honouring ``$REPRO_STORE`` and ``$XDG_CACHE_HOME``.

    Resolution order: ``$REPRO_STORE`` (explicit override), then
    ``$XDG_CACHE_HOME/repro-store``, then ``~/.cache/repro-store``.
    """
    env = os.environ.get("REPRO_STORE", "").strip()
    if env:
        return pathlib.Path(env).expanduser()
    cache_home = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = pathlib.Path(cache_home).expanduser() if cache_home else pathlib.Path.home() / ".cache"
    return base / "repro-store"


def _canonical_json(payload) -> str:
    """Canonical JSON used inside cache-key hashes (sorted keys, no spaces)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def matrix_fingerprint(test_matrix: TestMatrix) -> str:
    """SHA-256 content hash of a test matrix (values, pattern, metadata).

    Hashing the actual CSR payload instead of the generator's parameters
    means the key also covers generator *drift*: if a dataset generator
    changes what it emits for the same parameters, the fingerprint — and
    with it every dependent cache key — changes too.  Arrays are normalised
    to little-endian fixed-width dtypes so the fingerprint is
    platform-independent.
    """
    m = test_matrix.matrix
    h = hashlib.sha256()
    header = _canonical_json(
        {
            "name": test_matrix.name,
            "group": test_matrix.group,
            "category": test_matrix.category,
            "shape": list(m.shape),
        }
    )
    h.update(header.encode("utf-8"))
    h.update(np.ascontiguousarray(m.data, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(m.indices, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(m.indptr, dtype="<i8").tobytes())
    return h.hexdigest()


def _key(config: ExperimentConfig, format_name: str, fingerprint: str) -> str:
    spec = config.context_spec("reference" if format_name == _REFERENCE_KIND else format_name)
    payload = {
        "schema": STORE_SCHEMA_VERSION,
        "config": config.canonical_dict(),
        "context": dataclasses.asdict(spec),
        "format": format_name,
        "matrix": fingerprint,
    }
    return hashlib.sha256(_canonical_json(payload).encode("utf-8")).hexdigest()


def task_key(config: ExperimentConfig, format_name: str, fingerprint: str) -> str:
    """Cache key of one (matrix, format) cell.

    SHA-256 over the canonical JSON of: store schema version, the full
    canonicalised config (:meth:`ExperimentConfig.canonical_dict`), the
    derived :class:`~repro.arithmetic.ContextSpec`, the format name and the
    matrix content fingerprint.
    """
    return _key(config, format_name, fingerprint)


def reference_key(config: ExperimentConfig, fingerprint: str) -> str:
    """Cache key of the per-matrix extended-precision reference record."""
    return _key(config, _REFERENCE_KIND, fingerprint)


# ---------------------------------------------------------------------------
# record (de)serialisation


def run_record_to_payload(record: RunRecord, key: str) -> dict:
    """Store payload (JSON-serialisable) for one run record."""
    return {
        "schema_version": STORE_SCHEMA_VERSION,
        "kind": "run",
        "key": key,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "record": dataclasses.asdict(record),
    }


def run_record_from_payload(payload: dict) -> RunRecord:
    """Inverse of :func:`run_record_to_payload` (tolerates extra fields)."""
    body = payload["record"]
    names = {f.name for f in dataclasses.fields(RunRecord)}
    return RunRecord(**{k: v for k, v in body.items() if k in names})


def reference_to_payload(record: ReferenceRecord, key: str) -> dict:
    """Store payload for one reference record (eigenvalues as a float list)."""
    body = dataclasses.asdict(record)
    body["eigenvalues"] = [float(v) for v in np.asarray(record.eigenvalues, dtype=np.float64)]
    return {
        "schema_version": STORE_SCHEMA_VERSION,
        "kind": "reference",
        "key": key,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "record": body,
    }


def reference_from_payload(payload: dict) -> ReferenceRecord:
    """Inverse of :func:`reference_to_payload`."""
    body = dict(payload["record"])
    body["eigenvalues"] = np.asarray(body.get("eigenvalues", []), dtype=np.float64)
    names = {f.name for f in dataclasses.fields(ReferenceRecord)}
    return ReferenceRecord(**{k: v for k, v in body.items() if k in names})


# ---------------------------------------------------------------------------
# the store


class ResultStore:
    """Content-addressed on-disk store of experiment records.

    Layout under ``root``::

        objects/<key[:2]>/<key>.json   one committed record per file
        tmp/                           staging area for atomic commits

    Keys are self-certifying — the engine only looks up keys it derived
    itself, so a store directory can be shared between branches, machines,
    configurations and serve replicas without collisions.  Commits write to
    ``tmp/`` and ``os.replace`` into place, so a reader (or a concurrent
    writer of the same key) only ever observes a complete file; interrupted
    runs leave at most orphaned ``tmp/`` files, which :meth:`gc` reclaims.
    Any process can reopen a store by its path.
    """

    #: staging files younger than this are presumed to belong to a live
    #: writer and are left alone by ``gc`` (commits take milliseconds, so
    #: anything this old is an orphan of a killed run)
    STAGING_GRACE_SECONDS = 3600.0

    def __init__(self, root: str | os.PathLike):
        self.root = pathlib.Path(root).expanduser()

    @classmethod
    def from_environment(cls, root: Optional[str] = None) -> "ResultStore":
        """Store at ``root`` if given, else :func:`default_store_root`."""
        return cls(root if root else default_store_root())

    @property
    def _objects(self) -> pathlib.Path:
        return self.root / "objects"

    @property
    def _tmp(self) -> pathlib.Path:
        return self.root / "tmp"

    def path_for(self, key: str) -> pathlib.Path:
        """On-disk location of one key (two-level fan-out by key prefix)."""
        return self._objects / key[:2] / f"{key}.json"

    # -- primitives -------------------------------------------------------

    def _read(self, key: str) -> Optional[dict]:
        try:
            with open(self.path_for(key), "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def get(self, key: str) -> Optional[dict]:
        """The committed payload under ``key``, or ``None``.

        Unreadable/corrupt entries read as misses (the cell recomputes and
        the commit overwrites the bad entry) instead of failing the run.
        """
        payload = self._read(key)
        if payload is None:
            if _telemetry.ENABLED:
                _metrics.counter("store.get.miss").inc()
            return None
        if _telemetry.ENABLED:
            _metrics.counter("store.get.hit", kind=payload.get("kind", "unknown")).inc()
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Atomically commit ``payload`` under ``key`` (last writer wins)."""
        # the payload is fully written and flushed to a unique staging file,
        # then renamed over the destination; ``os.replace`` is atomic on
        # POSIX and Windows, so concurrent writers of the same key are safe
        # and a crash mid-commit leaves the previous state intact
        destination = self.path_for(key)
        destination.parent.mkdir(parents=True, exist_ok=True)
        self._tmp.mkdir(parents=True, exist_ok=True)
        staging = self._tmp / f"{key}.{os.getpid()}.{uuid.uuid4().hex}.json"
        with open(staging, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(staging, destination)
        if _telemetry.ENABLED:
            _metrics.counter("store.put", kind=payload.get("kind", "unknown")).inc()

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    # -- maintenance ------------------------------------------------------

    def keys(self) -> Iterator[str]:
        """All committed keys (no particular order)."""
        if not self._objects.is_dir():
            return
        for path in sorted(self._objects.glob("*/*.json")):
            yield path.stem

    def _delete(self, key: str) -> bool:
        try:
            self.path_for(key).unlink()
            return True
        except OSError:
            return False

    def _sweep_staging(self, max_age_seconds: float) -> int:
        """Remove staging files older than ``max_age_seconds``."""
        if not self._tmp.is_dir():
            return 0
        removed = 0
        now = time.time()
        for path in self._tmp.iterdir():
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue  # already gone (concurrent commit finished)
            if age >= max_age_seconds:
                path.unlink(missing_ok=True)
                removed += 1
        return removed

    def entries(self, include_foreign: bool = False) -> Iterator[dict]:
        """All committed payloads readable under the current schema.

        Corrupt entries are skipped, and so are entries written under a
        *different* ``STORE_SCHEMA_VERSION`` (their record layout is
        unknowable here — a rolling-upgrade replica sharing the cache dir
        with a newer writer must not crash on them).  Pass
        ``include_foreign=True`` to yield them anyway.
        """
        for key in self.keys():
            payload = self._read(key)
            if payload is None:
                continue
            if not include_foreign and payload.get("schema_version") != STORE_SCHEMA_VERSION:
                continue
            yield payload

    def gc(self) -> int:
        """Remove old-schema / corrupt entries and staging leftovers.

        Entries whose recorded ``schema_version`` is *older* than
        :data:`STORE_SCHEMA_VERSION` (or unreadable) are unreachable from
        this process (the version is part of every key) and only cost disk.
        Entries with a *newer* version are kept: on a cache dir shared
        across a rolling upgrade they belong to a newer replica, and this
        process must neither crash on them nor destroy them.  Staging files
        are only swept once older than :data:`STAGING_GRACE_SECONDS`, so
        ``gc`` is safe to run while an experiment is committing.  Returns
        the number of entries removed.
        """
        removed = 0
        for key in list(self.keys()):
            payload = self._read(key)
            if payload is None:
                stale = True  # corrupt: can never be read
            else:
                version = payload.get("schema_version")
                stale = not isinstance(version, int) or version < STORE_SCHEMA_VERSION
            if stale and self._delete(key):
                removed += 1
        return removed + self._sweep_staging(self.STAGING_GRACE_SECONDS)

    def clear(self) -> int:
        """Remove every entry (and staging leftovers); returns the count.

        Unlike :meth:`gc` this is deliberately destructive: it also sweeps
        live staging files, so an experiment committing concurrently will
        fail its in-flight commit."""
        removed = sum(self._delete(key) for key in list(self.keys()))
        return removed + self._sweep_staging(0.0)

    def stats(self) -> dict:
        """Aggregate view for ``repro store ls``: counts, bytes, statuses.

        Entries written under a different ``STORE_SCHEMA_VERSION`` are
        counted under ``foreign_schema`` and excluded from the per-kind /
        per-status tallies (their record layout is unknowable here), so a
        rolling-upgrade replica can inspect a shared cache dir without
        raising.
        """
        entries = 0
        size = 0
        foreign = 0
        kinds: dict[str, int] = {}
        statuses: dict[str, int] = {}
        formats: dict[str, int] = {}
        for key in self.keys():
            entries += 1
            try:
                size += self.path_for(key).stat().st_size
            except OSError:
                pass  # removed concurrently
            payload = self._read(key)
            if payload is None:
                kinds["corrupt"] = kinds.get("corrupt", 0) + 1
                continue
            if payload.get("schema_version") != STORE_SCHEMA_VERSION:
                foreign += 1
                continue
            kind = payload.get("kind", "unknown")
            kinds[kind] = kinds.get(kind, 0) + 1
            record = payload.get("record", {})
            if kind == "run":
                statuses[record.get("status", "?")] = statuses.get(record.get("status", "?"), 0) + 1
                formats[record.get("format", "?")] = formats.get(record.get("format", "?"), 0) + 1
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": size,
            "foreign_schema": foreign,
            "kinds": kinds,
            "run_statuses": statuses,
            "run_formats": formats,
        }

    def __repr__(self) -> str:
        return f"<ResultStore {str(self.root)!r}>"


# ---------------------------------------------------------------------------
# plan / execute engine


@dataclasses.dataclass
class _ShardTask:
    """Picklable work item: one matrix with its not-yet-cached formats.

    ``formats`` may be empty — that shard exists only to regenerate a
    missing reference record (cells all cached, reference gc'd away).
    With ``batch_formats`` the shard's formats are solved by one
    :func:`repro.core.lockstep.batched_partialschur` call (one
    ``partialschur`` per format) instead of cell by cell — the shard is
    already the natural batching unit, since it groups all missing cells
    of one matrix.
    """

    test_matrix: TestMatrix
    formats: tuple[str, ...]
    config: ExperimentConfig
    fingerprint: str
    batch_formats: bool = False


def _run_shard(task: _ShardTask) -> MatrixExperiment:
    return run_matrix_experiment(
        task.test_matrix, task.formats, task.config, batch_formats=task.batch_formats
    )


@dataclasses.dataclass
class ExecutionReport:
    """How a planned suite × formats grid was actually served.

    ``planned`` counts every requested (matrix, format) cell; ``cached``
    the cells served from the store without executing a solver; ``executed``
    the cells attempted this run; ``failed`` the executed cells whose worker
    crashed, plus one per crashed reference-only shard (a shard with no
    cells that only regenerates a missing reference record).
    ``planned == cached + executed`` always holds on completion — a warm
    rerun is exactly ``executed == 0``.

    ``wall_seconds`` is the end-to-end wall time of :func:`execute_plan`
    (shard execution plus result assembly); ``shard_seconds`` maps each
    executed shard's matrix name to the wall time its worker spent on it
    (crashed shards included — the time until the crash).
    """

    planned: int = 0
    cached: int = 0
    executed: int = 0
    failed: int = 0
    shards: int = 0
    wall_seconds: float = 0.0
    shard_seconds: dict = dataclasses.field(default_factory=dict)

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of planned cells served from the store (1.0 when the
        plan was empty — nothing requested means nothing missed)."""
        return self.cached / self.planned if self.planned else 1.0

    def to_dict(self) -> dict:
        """Plain-dict view (CLI ``--report-json``)."""
        body = dataclasses.asdict(self)
        body["cache_hit_ratio"] = self.cache_hit_ratio
        return body


@dataclasses.dataclass
class ExperimentPlan:
    """Output of :func:`plan_experiment`: cached cells plus missing shards."""

    suite: list[TestMatrix]
    formats: list[str]
    config: ExperimentConfig
    store: Optional[ResultStore]
    fingerprints: list[str]
    tasks: list[_ShardTask]
    cached_records: dict[tuple[str, str], RunRecord]
    cached_references: dict[str, ReferenceRecord]

    @property
    def planned_cells(self) -> int:
        return len(self.suite) * len(self.formats)


def plan_experiment(
    suite: Iterable[TestMatrix],
    formats: Sequence[str],
    config: Optional[ExperimentConfig] = None,
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
    rerun_failed: bool = False,
    batch_formats: bool = False,
) -> ExperimentPlan:
    """Subtract cached cells from the suite × formats grid.

    For every matrix the cached (matrix, format) records and the cached
    reference record are loaded; whatever remains missing becomes one
    per-matrix :class:`_ShardTask` (the reference solve is shared by all
    missing formats of a matrix).  With ``use_cache=False`` nothing is
    loaded and everything executes; with ``rerun_failed=True`` cached
    ``"failed"`` cells (crashed workers) count as missing.  With
    ``batch_formats=True`` each shard's missing formats are marked for one
    batched solve; cache keys are unaffected (each batched row is the
    sequential solve), so batched and sequential runs interleave freely
    over one store.
    """
    config = config or ExperimentConfig()
    suite = list(suite)
    formats = list(formats)
    fingerprints = [matrix_fingerprint(tm) for tm in suite]
    tasks: list[_ShardTask] = []
    cached_records: dict[tuple[str, str], RunRecord] = {}
    cached_references: dict[str, ReferenceRecord] = {}

    for tm, fingerprint in zip(suite, fingerprints):
        cached_ref = None
        if store is not None and use_cache:
            payload = store.get(reference_key(config, fingerprint))
            if payload is not None:
                cached_ref = reference_from_payload(payload)
        if cached_ref is not None:
            cached_references[fingerprint] = cached_ref

        missing: list[str] = []
        useful_cached = False
        for name in formats:
            record = None
            if store is not None and use_cache:
                payload = store.get(task_key(config, name, fingerprint))
                if payload is not None:
                    record = run_record_from_payload(payload)
            if record is None or (rerun_failed and record.status == "failed"):
                missing.append(name)
            else:
                cached_records[(fingerprint, name)] = record
                if record.status != "failed":
                    useful_cached = True
        # a reference-only shard (empty formats) regenerates a reference
        # record that went missing (gc, partial copy) — but only when the
        # matrix has scientifically useful cached cells; an all-"failed"
        # matrix gets a placeholder reference instead of a wasted solve
        need_reference_only = (
            not missing and cached_ref is None and useful_cached and store is not None and use_cache
        )
        if missing or need_reference_only:
            tasks.append(
                _ShardTask(tm, tuple(missing), config, fingerprint, batch_formats)
            )

    return ExperimentPlan(
        suite=suite,
        formats=formats,
        config=config,
        store=store,
        fingerprints=fingerprints,
        tasks=tasks,
        cached_records=cached_records,
        cached_references=cached_references,
    )


def execute_plan(
    plan: ExperimentPlan,
    workers: int = 1,
    progress: Optional[Callable[[TaskOutcome, ExecutionReport], None]] = None,
) -> ExperimentResult:
    """Execute a plan's missing shards and assemble the full result.

    Shards run through the work-stealing ``parallel_map``; every record is
    committed to the store *in the parent* the moment its shard completes,
    so an interrupt (Ctrl-C, SIGKILL, OOM) loses only in-flight shards and
    the next invocation resumes from the committed cells.  A shard whose
    worker raised is materialised as ``"failed"`` records carrying the
    worker traceback — sibling shards are unaffected.

    The assembled :class:`~repro.experiments.runner.ExperimentResult` lists
    records in deterministic suite × formats order regardless of completion
    order, so a warm rerun reproduces byte-identical reports and exports.
    """
    store = plan.store
    config = plan.config
    report = ExecutionReport(
        planned=plan.planned_cells,
        cached=len(plan.cached_records),
        shards=len(plan.tasks),
    )
    fresh_records: dict[tuple[str, str], RunRecord] = {}
    fresh_references: dict[str, ReferenceRecord] = {}

    def commit(outcome: TaskOutcome) -> None:
        task = plan.tasks[outcome.index]
        fingerprint = task.fingerprint
        report.shard_seconds[task.test_matrix.name] = outcome.seconds
        if _telemetry.ENABLED:
            _metrics.histogram("executor.shard_seconds").observe(outcome.seconds)
        if outcome.ok:
            experiment: MatrixExperiment = outcome.value
            fresh_references[fingerprint] = experiment.reference
            if store is not None:
                key = reference_key(config, fingerprint)
                store.put(key, reference_to_payload(experiment.reference, key))
            for record in experiment.runs:
                fresh_records[(fingerprint, record.format)] = record
                report.executed += 1
                if store is not None:
                    key = task_key(config, record.format, fingerprint)
                    store.put(key, run_record_to_payload(record, key))
        else:
            if not task.formats:
                # a crashed reference-only shard has no cells to mark
                # "failed", but the crash must not read as success: count
                # it and leave the reference missing, so the next
                # invocation re-plans and retries it
                report.failed += 1
            for name in task.formats:
                record = RunRecord(
                    matrix=task.test_matrix.name,
                    group=task.test_matrix.group,
                    category=task.test_matrix.category,
                    format=name,
                    status="failed",
                    traceback=outcome.error or "",
                )
                fresh_records[(fingerprint, name)] = record
                report.executed += 1
                report.failed += 1
                if store is not None:
                    key = task_key(config, name, fingerprint)
                    store.put(key, run_record_to_payload(record, key))
        if progress is not None:
            progress(outcome, report)

    t_start = time.perf_counter()
    with _trace.span(
        "experiment.run", shards=len(plan.tasks), planned=report.planned, cached=report.cached
    ):
        parallel_map(_run_shard, plan.tasks, workers=workers, on_result=commit)

    records: list[RunRecord] = []
    references: list[ReferenceRecord] = []
    for tm, fingerprint in zip(plan.suite, plan.fingerprints):
        reference = fresh_references.get(fingerprint) or plan.cached_references.get(fingerprint)
        if reference is None:
            # the shard that would have produced it crashed; keep the
            # suite ↔ references correspondence with an explicit marker
            reference = ReferenceRecord(
                matrix=tm.name,
                converged=False,
                eigenvalues=np.empty(0, dtype=np.float64),
                restarts=0,
                matvecs=0,
            )
        references.append(reference)
        for name in plan.formats:
            record = fresh_records.get((fingerprint, name))
            if record is None:
                record = plan.cached_records[(fingerprint, name)]
            records.append(record)
    report.wall_seconds = time.perf_counter() - t_start
    if _telemetry.ENABLED:
        _metrics.counter("executor.cells", kind="cached").inc(report.cached)
        _metrics.counter("executor.cells", kind="executed").inc(report.executed)
        _metrics.counter("executor.cells", kind="failed").inc(report.failed)
    return ExperimentResult(
        records=records, references=references, config=config, report=report
    )
