"""Golden digests: solver trajectories pinned bit for bit.

One order-32 general matrix is solved in each of the paper's 14 formats
with a small restart budget, by the sequential engine and by the lockstep
engine.  Each (format) outcome is reduced to a SHA-256 digest over the
eigenvalue, eigenvector and residual bytes plus the restart, matvec and
rounded-op counts, and compared against the checked-in
``benchmarks/reference/golden_digests.json``.  A refactor of the solver or
the rounding backends proves it changed nothing by leaving these digests
untouched; an intentional numerical change regenerates the file with::

    PYTHONPATH=src python tests/test_golden_digests.py --update
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.arithmetic import LONGDOUBLE_EXTENDED, BatchSpec, get_context
from repro.arithmetic.registry import PAPER_FORMATS
from repro.core.krylov_schur import partialschur
from repro.core.lockstep import batched_partialschur
from repro.datasets import get_suite
from repro.experiments.tolerances import tolerance_for

GOLDEN = Path(__file__).resolve().parents[1] / "benchmarks" / "reference" / "golden_digests.json"

#: the paper's formats in figure order
FORMATS = [name for width in sorted(PAPER_FORMATS) for name in PAPER_FORMATS[width]]
#: formats whose work precision is numpy.longdouble (platform dependent)
LONGDOUBLE_FORMATS = ("takum64", "posit64")

SETTINGS = {"suite": "general", "size": 32, "seed": 0, "nev": 12, "restarts": 2}


def _matrix():
    return get_suite(
        SETTINGS["suite"],
        count=1,
        size_range=(SETTINGS["size"], SETTINGS["size"]),
        seed=SETTINGS["seed"],
    )[0]


def _array_bytes(arr) -> bytes:
    """Value bytes of ``arr``; the padding of 16-byte longdouble slots
    (undefined memory above the 80-bit value) is masked out."""
    arr = np.ascontiguousarray(arr)
    if arr.dtype == np.longdouble and arr.dtype.itemsize == 16:
        words = arr.view(np.uint64).reshape(-1, 2).copy()
        words[:, 1] &= np.uint64(0xFFFF)
        return words.tobytes()
    return arr.tobytes()


def digest_entry(result, op_count: int) -> dict:
    """The pinned observables of one solve, with their SHA-256 digest."""
    counts = {"restarts": int(result.restarts), "matvecs": int(result.matvecs), "op_count": int(op_count)}
    h = hashlib.sha256(json.dumps(counts, sort_keys=True).encode())
    for arr in (result.eigenvalues, result.eigenvectors, result.residuals):
        arr = np.asarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(_array_bytes(arr))
    return {"digest": h.hexdigest(), "reason": result.reason, **counts}


def _solve_kwargs(name: str) -> dict:
    return {"nev": SETTINGS["nev"], "tol": tolerance_for(name), "restarts": SETTINGS["restarts"], "seed": 0}


def sequential_digests() -> dict:
    matrix = _matrix().matrix
    out = {}
    for name in FORMATS:
        ctx = get_context(name)
        converted, _ = ctx.convert_matrix(matrix)
        result = partialschur(converted, ctx=ctx, **_solve_kwargs(name))
        out[name] = digest_entry(result, ctx.op_count)
    return out


def batched_digests() -> dict:
    matrix = _matrix().matrix
    contexts = [get_context(name) for name in FORMATS]
    converted = [ctx.convert_matrix(matrix)[0] for ctx in contexts]
    kwargs = _solve_kwargs(FORMATS[0])
    kwargs["tol"] = [tolerance_for(name) for name in FORMATS]
    results = batched_partialschur(converted, BatchSpec(contexts), **kwargs)
    return {
        name: digest_entry(result, ctx.op_count)
        for name, ctx, result in zip(FORMATS, contexts, results)
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    data = json.loads(GOLDEN.read_text())
    assert data["settings"] == SETTINGS, "golden file was generated with other settings"
    return data["formats"]


@pytest.mark.parametrize("engine", [sequential_digests, batched_digests], ids=["sequential", "batched"])
def test_engine_matches_golden_digests(engine, golden):
    got = engine()
    names = [n for n in FORMATS if LONGDOUBLE_EXTENDED or n not in LONGDOUBLE_FORMATS]
    mismatched = [n for n in names if got[n] != golden[n]]
    assert not mismatched, {n: (got[n], golden[n]) for n in mismatched}


def test_golden_file_covers_the_paper_formats(golden):
    assert list(golden) == FORMATS
    # the budget exercises every exit the paper reports: converged, restart
    # budget exhausted (∞ω) and Arnoldi breakdown
    assert {entry["reason"] for entry in golden.values()} >= {"converged", "maxiter", "breakdown"}


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_golden_digests.py --update")
    if not LONGDOUBLE_EXTENDED:
        sys.exit("refusing to regenerate: numpy.longdouble is not extended precision here")
    seq = sequential_digests()
    if seq != batched_digests():
        sys.exit("sequential and batched engines disagree; not writing digests")
    GOLDEN.write_text(json.dumps({"settings": SETTINGS, "formats": seq}, indent=2) + "\n")
    print(f"wrote {GOLDEN}")
