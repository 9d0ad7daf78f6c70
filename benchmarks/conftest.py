"""Shared configuration of the benchmark harness.

Every figure/table of the paper has one benchmark module.  The workloads are
scaled-down versions of the paper's populations (synthetic stand-ins; see
docs/experiments.md, "Substitutions") so the whole harness completes on a
laptop in minutes; the scale is controlled by environment variables:

``REPRO_BENCH_MATRICES``
    matrices per suite (default 4),
``REPRO_BENCH_MIN_SIZE`` / ``REPRO_BENCH_MAX_SIZE``
    matrix order range (default 24..40),
``REPRO_RESTARTS``
    Krylov-Schur restart budget per solve (default 25 for benchmarks).

Each benchmark writes its text report (the regenerated figure/table) to
``benchmarks/output/`` so it can be compared against the paper.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
import time

import pytest

from repro.experiments import ExperimentConfig

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def bench_matrix_count(default: int = 4) -> int:
    return int(os.environ.get("REPRO_BENCH_MATRICES", default))


def bench_size_range() -> tuple[int, int]:
    lo = int(os.environ.get("REPRO_BENCH_MIN_SIZE", 24))
    hi = int(os.environ.get("REPRO_BENCH_MAX_SIZE", 40))
    return lo, hi


def bench_config(**overrides) -> ExperimentConfig:
    cfg = ExperimentConfig(**overrides)
    cfg.restarts = int(os.environ.get("REPRO_RESTARTS", 25))
    return cfg


def write_report(name: str, text: str) -> pathlib.Path:
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUTPUT_DIR / name
    path.write_text(text, encoding="utf-8")
    return path


_METADATA_CACHE: dict | None = None


def bench_metadata() -> dict:
    """Machine-readable provenance stamped into every benchmark artifact.

    Captures what is needed to compare numbers across PRs and machines:
    the git revision, hostname, timestamp and the library versions the run
    used.  Git lookups are best-effort (the tree may be exported) and
    cached for the process — only the timestamp is refreshed per call.
    """
    global _METADATA_CACHE
    if _METADATA_CACHE is not None:
        return {**_METADATA_CACHE, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
    rev = None
    dirty = None
    try:
        root = pathlib.Path(__file__).parent.parent
        rev = (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=5,
            ).stdout.strip()
            or None
        )
        dirty = bool(
            subprocess.run(
                ["git", "status", "--porcelain"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=5,
            ).stdout.strip()
        )
    except Exception:
        pass
    import numpy

    _METADATA_CACHE = {
        "git_rev": rev,
        "git_dirty": dirty,
        "hostname": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "env": {
            key: os.environ[key]
            for key in (
                "REPRO_BENCH_MATRICES",
                "REPRO_BENCH_MIN_SIZE",
                "REPRO_BENCH_MAX_SIZE",
                "REPRO_RESTARTS",
                "REPRO_WORKERS",
                "PYTHONHASHSEED",
                "REPRO_DISABLE_BITKERNELS",
            )
            if key in os.environ
        },
    }
    return _METADATA_CACHE


def write_json_report(name: str, payload: dict) -> pathlib.Path:
    """Write a machine-readable benchmark artifact next to the text report.

    ``payload`` carries the benchmark-specific measurements (wall times,
    formats, scales); the shared provenance from :func:`bench_metadata` is
    merged under the ``"meta"`` key.  These are the ``benchmarks/output/
    *.json`` files the perf trajectory across PRs is tracked with.
    """
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUTPUT_DIR / name
    document = {"meta": bench_metadata(), **payload}
    path.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def report_writer():
    """Fixture handing benchmarks the report writer."""
    return write_report


#: per-module wall-time accumulator backing the generic JSON artifacts
_MODULE_WALL_TIMES: dict[str, dict[str, float]] = {}


@pytest.fixture(autouse=True)
def _bench_json_artifact(request):
    """Every ``bench_*`` module gets a machine-readable artifact.

    Accumulates the wall time of each test into
    ``benchmarks/output/<module>_times.json`` (merged with the shared
    provenance metadata), so even the benchmarks whose reports are purely
    textual leave a trackable JSON trace.  Figure and micro benchmarks
    additionally write richer per-suite JSON documents of their own.
    """
    module = request.module.__name__.rsplit(".", 1)[-1]
    if not module.startswith("bench_"):
        yield
        return
    start = time.perf_counter()
    yield
    wall = time.perf_counter() - start
    times = _MODULE_WALL_TIMES.setdefault(module, {})
    times[request.node.name] = round(wall, 3)
    write_json_report(
        f"{module}_times.json",
        {"benchmark": module, "wall_seconds_by_test": dict(sorted(times.items()))},
    )
