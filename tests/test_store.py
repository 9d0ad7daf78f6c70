"""Tests of the content-addressed experiment store and the resumable engine.

Covers the store-semantics contract: cache hit/miss on configuration change,
schema-version invalidation, ``use_cache=False`` bypass, resume after an
interrupt (only missing cells execute), crashed workers yielding ``"failed"``
records without discarding sibling results, and concurrent-writer safety of
the atomic commit.
"""

import concurrent.futures
import dataclasses
import json
import math
import os
import time

import numpy as np
import pytest

from repro.core.results import PartialSchurResult
from repro.datasets import suitesparse_like
from repro.experiments import (
    ExperimentConfig,
    ResultStore,
    figure_json,
    matrix_fingerprint,
    reference_key,
    run_experiment,
    statuses_by_format,
    task_key,
)
from repro.experiments import store as store_mod
from repro.experiments.runner import RunRecord
from repro.experiments.store import (
    reference_from_payload,
    reference_to_payload,
    run_record_from_payload,
    run_record_to_payload,
)

FORMATS = ["float32", "takum16"]


@pytest.fixture(scope="module")
def suite():
    return suitesparse_like(count=3, size_range=(20, 26), seed=4)


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(eigenvalue_count=4, eigenvalue_buffer_count=2, restarts=12)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


@pytest.fixture
def solver_calls(monkeypatch):
    """Count (and optionally sabotage) the per-matrix solver executions."""
    calls = []
    real = store_mod.run_matrix_experiment

    def wrapper(test_matrix, formats, cfg, **kwargs):
        calls.append((test_matrix.name, tuple(formats)))
        return real(test_matrix, formats, cfg, **kwargs)

    monkeypatch.setattr(store_mod, "run_matrix_experiment", wrapper)
    return calls


class TestCacheKeys:
    def test_key_is_stable(self, suite, config):
        fp = matrix_fingerprint(suite[0])
        assert fp == matrix_fingerprint(suite[0])
        assert task_key(config, "float32", fp) == task_key(config, "float32", fp)

    def test_key_covers_format_and_matrix(self, suite, config):
        fp0, fp1 = matrix_fingerprint(suite[0]), matrix_fingerprint(suite[1])
        assert fp0 != fp1
        assert task_key(config, "float32", fp0) != task_key(config, "takum16", fp0)
        assert task_key(config, "float32", fp0) != task_key(config, "float32", fp1)
        assert reference_key(config, fp0) != task_key(config, "float32", fp0)

    def test_key_covers_every_config_field(self, suite, config):
        fp = matrix_fingerprint(suite[0])
        base = task_key(config, "float32", fp)
        for change in (
            {"restarts": config.restarts + 1},
            {"eigenvalue_count": 5},
            {"accumulation": "sequential"},
            {"seed": 1},
            {"reference_tolerance": 1e-16},
        ):
            assert task_key(dataclasses.replace(config, **change), "float32", fp) != base

    def test_matrix_content_changes_fingerprint(self, suite):
        tm = suite[0]
        modified = dataclasses.replace(
            tm, matrix=tm.matrix.with_data(np.asarray(tm.matrix.data) * 2.0)
        )
        assert matrix_fingerprint(modified) != matrix_fingerprint(tm)

    def test_schema_bump_invalidates_every_key(self, suite, config, monkeypatch):
        fp = matrix_fingerprint(suite[0])
        before = task_key(config, "float32", fp)
        ref_before = reference_key(config, fp)
        monkeypatch.setattr(store_mod, "STORE_SCHEMA_VERSION", store_mod.STORE_SCHEMA_VERSION + 1)
        assert task_key(config, "float32", fp) != before
        assert reference_key(config, fp) != ref_before


class TestRecordSerialisation:
    def test_run_record_roundtrip_with_nan(self):
        record = RunRecord(
            matrix="m",
            group="general",
            category="fam",
            format="takum16",
            status="no_convergence",
            restarts=7,
            matvecs=123,
            solver_reason="maxiter",
        )
        payload = json.loads(json.dumps(run_record_to_payload(record, "k" * 64)))
        back = run_record_from_payload(payload)
        assert back.matrix == "m" and back.status == "no_convergence"
        assert back.restarts == 7 and back.matvecs == 123
        assert math.isnan(back.eigenvalue_relative_error)

    def test_run_record_tolerates_extra_fields(self):
        record = RunRecord(
            matrix="m", group="g", category="c", format="posit16", status="ok"
        )
        payload = run_record_to_payload(record, "k" * 64)
        payload["record"]["some_future_field"] = 1
        assert run_record_from_payload(payload).format == "posit16"

    def test_reference_roundtrip(self):
        from repro.experiments.runner import ReferenceRecord

        record = ReferenceRecord(
            matrix="m",
            converged=True,
            eigenvalues=np.array([3.0, 2.0, 1.0]),
            restarts=4,
            matvecs=99,
        )
        payload = json.loads(json.dumps(reference_to_payload(record, "k" * 64)))
        back = reference_from_payload(payload)
        assert back.converged and back.matvecs == 99
        np.testing.assert_array_equal(back.eigenvalues, record.eigenvalues)

    def test_partialschur_result_roundtrip(self):
        result = PartialSchurResult(
            eigenvalues=np.array([2.0, 1.0]),
            eigenvectors=np.eye(3)[:, :2],
            residuals=np.array([1e-9, 1e-8]),
            converged=True,
            nconverged=2,
            restarts=3,
            matvecs=42,
            reason="converged",
            which="LM",
            tolerance=1e-6,
            format_name="takum16",
            history=[1, 2],
        )
        back = PartialSchurResult.from_dict(json.loads(json.dumps(result.to_dict())))
        np.testing.assert_array_equal(back.eigenvalues, result.eigenvalues)
        np.testing.assert_array_equal(back.eigenvectors, result.eigenvectors)
        assert back.converged and back.nev == 2
        assert back.reason == "converged" and back.format_name == "takum16"


class TestResultStore:
    def test_put_get_contains(self, store):
        key = "ab" + "0" * 62
        assert store.get(key) is None and key not in store
        store.put(key, {"schema_version": 1, "kind": "run", "record": {"x": 1}})
        assert key in store
        assert store.get(key)["record"] == {"x": 1}
        # two-level fan-out by key prefix
        assert store.path_for(key).parent.name == "ab"

    def test_put_leaves_no_staging_files(self, store):
        store.put("cd" + "0" * 62, {"schema_version": 1})
        assert list(store._tmp.iterdir()) == []

    def test_corrupt_entry_reads_as_miss_and_gc_reclaims(self, store):
        key = "ef" + "0" * 62
        path = store.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json", encoding="utf-8")
        assert store.get(key) is None
        assert store.gc() == 1
        assert not path.exists()

    def test_gc_drops_stale_schema_keeps_current(self, store):
        store.put("aa" + "0" * 62, {"schema_version": store_mod.STORE_SCHEMA_VERSION})
        store.put("bb" + "0" * 62, {"schema_version": store_mod.STORE_SCHEMA_VERSION - 1})
        orphan = store._tmp / "orphan.json"
        orphan.write_text("{}", encoding="utf-8")
        fresh = store._tmp / "fresh.json"
        fresh.write_text("{}", encoding="utf-8")
        # age the orphan past the grace period; "fresh" simulates the live
        # staging file of a concurrently committing run and must survive
        old = time.time() - 2 * store.STAGING_GRACE_SECONDS
        os.utime(orphan, (old, old))
        assert store.gc() == 2  # stale entry + aged staging orphan
        assert ("aa" + "0" * 62) in store
        assert ("bb" + "0" * 62) not in store
        assert not orphan.exists() and fresh.exists()

    def test_clear(self, store):
        for i in range(5):
            store.put(f"{i:02d}" + "0" * 62, {"schema_version": 1})
        assert store.clear() == 5
        assert list(store.keys()) == []

    def test_concurrent_writers_same_key_stay_atomic(self, store):
        key = "99" + "0" * 62
        payloads = [{"schema_version": 1, "writer": i, "blob": "x" * 4096} for i in range(32)]
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda p: store.put(key, p), payloads))
        final = store.get(key)  # a complete payload from exactly one writer
        assert final is not None and final["blob"] == "x" * 4096
        assert final["writer"] in range(32)
        assert list(store._tmp.iterdir()) == []

    def test_stats(self, store):
        record = RunRecord(matrix="m", group="g", category="c", format="posit16", status="ok")
        store.put("11" + "0" * 62, run_record_to_payload(record, "11" + "0" * 62))
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["kinds"] == {"run": 1}
        assert stats["run_statuses"] == {"ok": 1}

    def test_put_snapshots_the_callers_payload(self, store):
        key = "cd" + "0" * 62
        payload = {"schema_version": 1, "record": {"x": 1}}
        store.put(key, payload)
        payload["record"]["x"] = 999  # caller mutates its own dict afterwards
        assert store.get(key)["record"] == {"x": 1}

    def test_gets_return_independent_dicts(self, store):
        key = "ce" + "0" * 62
        store.put(key, {"schema_version": 1, "record": {"x": 1}})
        first = store.get(key)
        first["record"]["x"] = -1
        second = store.get(key)
        assert second is not first and second["record"] == {"x": 1}

    def test_root_is_an_expanded_path(self, monkeypatch, tmp_path):
        monkeypatch.setenv("HOME", str(tmp_path))
        store = ResultStore("~/x")
        assert store.root == tmp_path / "x"
        assert ResultStore.from_environment("~/x").root == tmp_path / "x"

    def test_stats_and_repr_name_the_root(self, store):
        assert store.stats()["root"] == str(store.root)
        assert repr(store) == f"<ResultStore {str(store.root)!r}>"

    def test_default_root_env_precedence(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "explicit"))
        assert store_mod.default_store_root() == tmp_path / "explicit"
        monkeypatch.delenv("REPRO_STORE")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert store_mod.default_store_root() == tmp_path / "xdg" / "repro-store"

    def test_stats_and_entries_tolerate_newer_schema(self, store):
        record = RunRecord(matrix="m", group="g", category="c", format="posit16", status="ok")
        store.put("11" + "0" * 62, run_record_to_payload(record, "11" + "0" * 62))
        store.put(
            "22" + "0" * 62,
            {"schema_version": store_mod.STORE_SCHEMA_VERSION + 1, "kind": "run"},
        )
        stats = store.stats()
        # a rolling upgrade leaves newer-schema entries behind: count them,
        # keep them out of the kind/status breakdowns, and don't raise
        assert stats["entries"] == 2
        assert stats["foreign_schema"] == 1
        assert stats["kinds"] == {"run": 1}
        assert len(list(store.entries())) == 1
        assert len(list(store.entries(include_foreign=True))) == 2

    def test_gc_keeps_newer_schema_entries(self, store):
        store.put("33" + "0" * 62, {"schema_version": store_mod.STORE_SCHEMA_VERSION + 1})
        store.put("44" + "0" * 62, {"schema_version": store_mod.STORE_SCHEMA_VERSION - 1})
        store.put("55" + "0" * 62, {"schema_version": "not-an-int"})
        assert store.gc() == 2  # older + unparseable go; newer survives
        assert ("33" + "0" * 62) in store


def _record_view(records):
    """NaN-tolerant comparable view of a record list."""
    return [dataclasses.asdict(r) for r in records]


class TestResumableEngine:
    def test_cold_then_warm(self, suite, config, store, solver_calls):
        cold = run_experiment(suite, FORMATS, config, store=store, workers=1)
        assert cold.report.planned == len(suite) * len(FORMATS)
        assert cold.report.executed == cold.report.planned and cold.report.cached == 0
        assert len(solver_calls) == len(suite)

        solver_calls.clear()
        warm = run_experiment(suite, FORMATS, config, store=store, workers=1)
        assert warm.report.executed == 0 and warm.report.cached == warm.report.planned
        assert solver_calls == []  # zero solver tasks on the warm rerun
        np.testing.assert_equal(_record_view(warm.records), _record_view(cold.records))
        assert [r.matrix for r in warm.references] == [tm.name for tm in suite]
        # aggregated figure data is byte-identical cold vs warm
        assert json.dumps(figure_json(cold.records), sort_keys=True) == json.dumps(
            figure_json(warm.records), sort_keys=True
        )

    def test_incremental_formats_and_matrices(self, suite, config, store, solver_calls):
        run_experiment(suite[:2], FORMATS, config, store=store)
        solver_calls.clear()
        result = run_experiment(suite, FORMATS + ["bfloat16"], config, store=store)
        # matrices 0-1 only run the new format; matrix 2 runs everything
        assert result.report.cached == 2 * len(FORMATS)
        assert result.report.executed == result.report.planned - 2 * len(FORMATS)
        executed = dict(solver_calls)
        assert executed[suite[0].name] == ("bfloat16",)
        assert executed[suite[2].name] == tuple(FORMATS + ["bfloat16"])

    def test_config_change_misses(self, suite, config, store):
        run_experiment(suite[:1], FORMATS, config, store=store)
        changed = dataclasses.replace(config, restarts=config.restarts + 5)
        result = run_experiment(suite[:1], FORMATS, changed, store=store)
        assert result.report.cached == 0 and result.report.executed == len(FORMATS)

    def test_no_cache_bypasses_reads_but_refreshes(self, suite, config, store, solver_calls):
        run_experiment(suite[:1], FORMATS, config, store=store)
        solver_calls.clear()
        result = run_experiment(suite[:1], FORMATS, config, store=store, use_cache=False)
        assert result.report.cached == 0 and result.report.executed == len(FORMATS)
        assert len(solver_calls) == 1
        # the bypass still committed fresh results: a normal rerun is warm
        warm = run_experiment(suite[:1], FORMATS, config, store=store)
        assert warm.report.executed == 0

    def test_schema_bump_invalidate_then_gc(self, suite, config, store, monkeypatch):
        run_experiment(suite[:1], FORMATS, config, store=store)
        monkeypatch.setattr(store_mod, "STORE_SCHEMA_VERSION", store_mod.STORE_SCHEMA_VERSION + 1)
        result = run_experiment(suite[:1], FORMATS, config, store=store)
        assert result.report.cached == 0 and result.report.executed == len(FORMATS)
        # the old-schema entries are unreachable now; gc reclaims exactly them
        assert store.gc() == len(FORMATS) + 1  # cells + reference record

    def test_missing_reference_regenerates_without_resolving_cells(
        self, suite, config, store, solver_calls
    ):
        run_experiment(suite[:1], FORMATS, config, store=store)
        fp = matrix_fingerprint(suite[0])
        store.path_for(reference_key(config, fp)).unlink()
        solver_calls.clear()
        result = run_experiment(suite[:1], FORMATS, config, store=store)
        assert result.report.executed == 0  # no (matrix, format) cell re-ran
        assert solver_calls == [(suite[0].name, ())]  # one reference-only shard
        assert result.references[0].converged

    def test_interrupt_then_resume_executes_only_missing(
        self, suite, config, store, monkeypatch, solver_calls
    ):
        real = store_mod.run_matrix_experiment

        def interrupt_on_second(test_matrix, formats, cfg, **kwargs):
            if test_matrix.name == suite[1].name:
                raise KeyboardInterrupt
            return real(test_matrix, formats, cfg, **kwargs)

        monkeypatch.setattr(store_mod, "run_matrix_experiment", interrupt_on_second)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(suite, FORMATS, config, store=store, workers=1)
        # the first matrix was committed before the interrupt
        committed = sum(1 for _ in store.keys())
        assert committed == len(FORMATS) + 1  # its cells + its reference

        monkeypatch.setattr(store_mod, "run_matrix_experiment", real)
        solver_calls.clear()
        result = run_experiment(suite, FORMATS, config, store=store, workers=1)
        assert result.report.cached == len(FORMATS)
        assert result.report.executed == result.report.planned - len(FORMATS)
        # only the not-yet-committed matrices were solved again
        assert {name for name, _ in solver_calls} == {suite[1].name, suite[2].name}


class TestCrashedWorkers:
    @pytest.fixture
    def crash_second(self, suite, monkeypatch):
        real = store_mod.run_matrix_experiment

        def crashing(test_matrix, formats, cfg, **kwargs):
            if test_matrix.name == suite[1].name:
                raise RuntimeError("injected shard crash")
            return real(test_matrix, formats, cfg, **kwargs)

        monkeypatch.setattr(store_mod, "run_matrix_experiment", crashing)
        return real

    def test_crash_yields_failed_records_and_siblings_survive(
        self, suite, config, store, crash_second
    ):
        result = run_experiment(suite, FORMATS, config, store=store, workers=1)
        statuses = statuses_by_format(result.records)
        for name in FORMATS:
            assert statuses[name].get("failed", 0) == 1
        failed = [r for r in result.records if r.status == "failed"]
        assert {r.matrix for r in failed} == {suite[1].name}
        assert all("injected shard crash" in r.traceback for r in failed)
        assert all("RuntimeError" in r.traceback for r in failed)
        # sibling matrices completed and were committed
        ok = [r for r in result.records if r.status == "ok"]
        assert {r.matrix for r in ok} == {suite[0].name, suite[2].name}
        assert result.report.failed == len(FORMATS)

    def test_crash_without_store_still_survives(self, suite, config, crash_second):
        result = run_experiment(suite, FORMATS, config, workers=1)
        assert sum(1 for r in result.records if r.status == "failed") == len(FORMATS)
        assert sum(1 for r in result.records if r.status == "ok") == 2 * len(FORMATS)

    def test_crashed_reference_only_shard_is_counted_and_retried(
        self, suite, config, store, monkeypatch
    ):
        run_experiment(suite[:1], FORMATS, config, store=store)
        fp = matrix_fingerprint(suite[0])
        store.path_for(reference_key(config, fp)).unlink()
        real = store_mod.run_matrix_experiment

        def boom(test_matrix, formats, cfg, **kwargs):
            raise RuntimeError("reference crash")

        monkeypatch.setattr(store_mod, "run_matrix_experiment", boom)
        crashed = run_experiment(suite[:1], FORMATS, config, store=store)
        # no cells were lost, but the crash must not read as success
        assert crashed.report.executed == 0 and crashed.report.failed == 1
        assert not crashed.references[0].converged  # placeholder
        # the reference stays missing, so a healed rerun retries naturally
        monkeypatch.setattr(store_mod, "run_matrix_experiment", real)
        healed = run_experiment(suite[:1], FORMATS, config, store=store)
        assert healed.report.failed == 0 and healed.references[0].converged

    def test_rerun_failed_retries_exactly_the_crashed_cells(
        self, suite, config, store, crash_second, monkeypatch
    ):
        run_experiment(suite, FORMATS, config, store=store, workers=1)
        # heal the crash (crash_second holds the original implementation)
        # and count what a rerun actually executes
        calls = []

        def counting(test_matrix, formats, cfg, **kwargs):
            calls.append((test_matrix.name, tuple(formats)))
            return crash_second(test_matrix, formats, cfg, **kwargs)

        monkeypatch.setattr(store_mod, "run_matrix_experiment", counting)
        plain = run_experiment(suite, FORMATS, config, store=store, workers=1)
        assert plain.report.executed == 0 and calls == []
        assert sum(1 for r in plain.records if r.status == "failed") == len(FORMATS)

        rerun = run_experiment(
            suite, FORMATS, config, store=store, workers=1, rerun_failed=True
        )
        assert rerun.report.executed == len(FORMATS)
        assert {name for name, _ in calls} == {suite[1].name}
        assert all(r.status == "ok" for r in rerun.records)
