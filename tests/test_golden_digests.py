"""Golden digests: solver trajectories pinned bit for bit.

One order-32 general matrix is solved in each of the paper's 14 formats
with a small restart budget, by the sequential engine and by the lockstep
engine.  Each (format) outcome is reduced to a SHA-256 digest over the
eigenvalue, eigenvector and residual bytes plus the restart, matvec and
rounded-op counts, and compared against the checked-in
``benchmarks/reference/golden_digests.json``.

The dense symmetric eigensolver is pinned on its own as well (the
``eigen`` section): ``symmetric_eigen`` of one seeded order-25 symmetric
matrix at three scales in every paper format and the reference context,
and seeded tridiagonal inputs of ``tridiagonal_eigen`` that reach the QL
restart branch (a zero rotation radius) and each
:class:`~repro.linalg.tridiagonal.EigenConvergenceError` exit.  Each digest
covers the eigenvalue and eigenvector bytes, the rounded-op count and the
error text.  The Householder reduction has a section of its own (the
``tridiagonalize`` section): ``d``, ``e`` and ``Q`` of a seeded order-25
matrix, the same with a skipped reflector, scaled until the 8-bit formats
overflow, and with an ``inf`` entry, with the rounded-op tallies, in every
paper format and the reference context.  The Arnoldi expansion has one too
(the ``arnoldi`` section): ``arnoldi_expand`` of the seeded order-32
matrix, of a truncated decomposition with a spike row, of a start vector
that takes the DGKS second pass, of a rank-deficient matrix that reaches the
random restart and the invariant return, and of scaled inputs that reach
each :class:`~repro.core.results.ArnoldiBreakdown` text, with the bytes of
``V``, ``S``, ``b`` and the residual, the invariant flag, the matvecs, the
rounded-op tallies and the error texts, in every paper format and the
reference context, with the bit kernels on and off.  The ``kernel_tables``
section pins what every bit kernel is built with: its ``(shift, bias,
special)`` lookup tables, layout flags and rule tuple, per kernel format
(the unregistered tapered widths and the saturating E4M3 included) and
switch position.

A refactor of the solver or the rounding backends proves it changed nothing
by leaving these digests untouched; an intentional numerical change
regenerates the file with::

    PYTHONPATH=src python tests/test_golden_digests.py --update
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import warnings
from unittest import mock

import numpy as np
import pytest

from repro.arithmetic import (
    LONGDOUBLE_EXTENDED,
    BatchSpec,
    available_formats,
    bitkernels,
    get_context,
    set_bitkernels_enabled,
)
from repro.arithmetic.registry import PAPER_FORMATS
from repro.core import ArnoldiBreakdown, KrylovDecomposition, arnoldi_expand
from repro.core.krylov_schur import _initial_vector, partialschur
from repro.core.lockstep import batched_partialschur
from repro.datasets import get_suite
from repro.experiments.tolerances import tolerance_for
from repro.linalg import tridiagonal
from repro.linalg.tridiagonal import EigenConvergenceError, symmetric_eigen, tridiagonal_eigen
from repro.sparse import CSRMatrix

if __name__ == "__main__":  # run as a script: the tests package sits in the repo root
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests._kernel_harness import E4M3_SATURATING, UNREGISTERED_TAPERED, format_for  # noqa: E402

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


#: the eigensolver inputs: a symmetric matrix of order ``order`` drawn from
#: ``seed`` at each of ``scales``, and tridiagonals of order
#: ``tridiagonal_order`` drawn from seeds below ``seed_limit``
EIGEN_SETTINGS = {
    "order": 25,
    "seed": 0,
    "scales": [1.0, 1e3, 1e-3],
    "tridiagonal_order": 8,
    "seed_limit": 600,
}
#: every context the eigensolver runs in: the paper's formats and the reference
EIGEN_CONTEXTS = FORMATS + ["reference"]
#: the outcomes of the QL iteration each recorded tridiagonal input reaches
BRANCHES = ("restart", "nonfinite", "sweeps")


def _runnable(name: str) -> bool:
    return LONGDOUBLE_EXTENDED or name not in LONGDOUBLE_FORMATS + ("reference",)


def _symmetric_input(ctx, scale: float):
    rng = np.random.default_rng(EIGEN_SETTINGS["seed"])
    n = EIGEN_SETTINGS["order"]
    raw = rng.standard_normal((n, n))
    return ctx.asarray((raw + raw.T) / 2 * scale)


def _tridiagonal_input(ctx, seed: int):
    """A tridiagonal whose off-diagonal spans nine decades below its scale,
    so narrow formats underflow and overflow inside the QL iteration."""
    rng = np.random.default_rng(seed)
    n = EIGEN_SETTINGS["tridiagonal_order"]
    scale = 10.0 ** rng.uniform(-4, 4)
    d = rng.standard_normal(n) * scale
    e = rng.standard_normal(n - 1) * scale * 10.0 ** rng.uniform(-8, 1, n - 1)
    return ctx.asarray(d), ctx.asarray(e)


def _eigen_outcome(h, ctx, solve) -> tuple:
    """Run ``solve()`` in ``ctx``, hash its observables into ``h`` and return
    ``(op_count, error text)``."""
    start = ctx.op_count
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            arrays = solve()
        error = None
    except EigenConvergenceError as exc:
        arrays, error = (), str(exc)
    ops = ctx.op_count - start
    h.update(json.dumps({"op_count": ops, "error": error}).encode())
    for arr in arrays:
        arr = np.asarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(_array_bytes(arr))
    return ops, error


def symmetric_eigen_digest(name: str) -> dict:
    """``symmetric_eigen`` of the seeded matrix at every scale in ``name``."""
    ctx = get_context(name)
    h = hashlib.sha256()
    ops, errors = [], []
    for scale in EIGEN_SETTINGS["scales"]:
        A = _symmetric_input(ctx, scale)
        n, error = _eigen_outcome(h, ctx, lambda: symmetric_eigen(ctx, A))
        ops.append(n)
        errors.append(error)
    return {"digest": h.hexdigest(), "op_count": ops, "errors": errors}


class _QlSpan:
    """Stands in for the trace span of ``tridiagonal_eigen`` and keeps the
    attributes the solve sets on it."""

    def __init__(self):
        self.attrs: dict = {}

    def __call__(self, name: str, **attrs):
        assert name == "tridiagonal.ql", name
        self.attrs.update(attrs)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)


def tridiagonal_case(name: str, seed: int) -> dict:
    """``tridiagonal_eigen`` of the tridiagonal drawn from ``seed`` in
    ``name``, with the branches it reached: ``restart`` when a rotation
    radius came out exactly zero (the ``restarts`` the solve reports on its
    ``tridiagonal.ql`` span), ``nonfinite``/``sweeps`` for the two
    :class:`EigenConvergenceError` exits."""
    ctx = get_context(name)
    d, e = _tridiagonal_input(ctx, seed)
    span = _QlSpan()
    h = hashlib.sha256()
    with mock.patch.object(tridiagonal._trace, "span", span):
        ops, error = _eigen_outcome(h, ctx, lambda: tridiagonal_eigen(ctx, d, e))
    branches = ["restart"] if span.attrs["restarts"] else []
    if error is not None:
        branches.append("nonfinite" if error.startswith("non-finite") else "sweeps")
    return {
        "context": name,
        "seed": seed,
        "branches": branches,
        "digest": h.hexdigest(),
        "op_count": ops,
        "error": error,
    }


def eigen_digests() -> dict:
    """The ``eigen`` section: per-context ``symmetric_eigen`` digests, and
    for each (context, branch) the first seed whose tridiagonal is finite
    in the context and reaches the branch."""
    cases = []
    for name in EIGEN_CONTEXTS:
        found = set()
        ctx = get_context(name)
        for seed in range(EIGEN_SETTINGS["seed_limit"]):
            if not all(np.isfinite(x).all() for x in _tridiagonal_input(ctx, seed)):
                continue  # the input itself overflows the format
            case = tridiagonal_case(name, seed)
            new = set(case["branches"]) - found
            if new:
                cases.append(case)
                found |= new
            if found == set(BRANCHES):
                break
    return {
        "settings": EIGEN_SETTINGS,
        "symmetric": {name: symmetric_eigen_digest(name) for name in EIGEN_CONTEXTS},
        "tridiagonal": cases,
    }


#: the Householder reduction inputs: a symmetric matrix of order ``order``
#: drawn from ``seed``; the same with the subcolumn below its first diagonal
#: entry zeroed (a skipped reflector); the same times each of ``scales``
#: (E4M3 overflows to NaN on input at both, E5M2 inside the reduction at the
#: larger); and the same with ``inf`` at ``inf_at`` and its mirror
TRIDIAGONALIZE_SETTINGS = {"order": 25, "seed": 1, "scales": [200.0, 1e4], "inf_at": [3, 5]}
#: the inputs in hashing order: ``(kind, scale)``
TRIDIAGONALIZE_INPUTS = (
    [("seeded", 1.0), ("zero_subcolumn", 1.0)]
    + [("scaled", scale) for scale in TRIDIAGONALIZE_SETTINGS["scales"]]
    + [("inf_entry", 1.0)]
)


def _reduction_input(ctx, kind: str, scale: float = 1.0):
    rng = np.random.default_rng(TRIDIAGONALIZE_SETTINGS["seed"])
    n = TRIDIAGONALIZE_SETTINGS["order"]
    raw = rng.standard_normal((n, n))
    A = (raw + raw.T) / 2 * scale
    if kind == "zero_subcolumn":
        A[1:, 0] = A[0, 1:] = 0.0
    elif kind == "inf_entry":
        i, j = TRIDIAGONALIZE_SETTINGS["inf_at"]
        A[i, j] = A[j, i] = np.inf
    return ctx.asarray(A)


def tridiagonalize_digest(name: str) -> dict:
    """``tridiagonalize`` of every reduction input in ``name``: one digest
    over the bytes of ``d``, ``e`` and ``Q`` and the rounded-op tallies."""
    ctx = get_context(name)
    h = hashlib.sha256()
    ops = []
    for kind, scale in TRIDIAGONALIZE_INPUTS:
        A = _reduction_input(ctx, kind, scale)
        n, _ = _eigen_outcome(h, ctx, lambda: tridiagonal.tridiagonalize(ctx, A))
        ops.append(n)
    return {"digest": h.hexdigest(), "op_count": ops}


def tridiagonalize_digests() -> dict:
    """The ``tridiagonalize`` section: per-context reduction digests."""
    return {
        "settings": TRIDIAGONALIZE_SETTINGS,
        "contexts": {name: tridiagonalize_digest(name) for name in EIGEN_CONTEXTS},
    }


#: the Arnoldi expansion inputs: a 0 -> ``target`` expansion of the matrix
#: of ``SETTINGS`` from the solver's start vector; the same truncated to
#: ``keep`` columns with a spike row drawn from ``spike_seed`` and expanded
#: again; a symmetric matrix of order ``dgks_order`` from ``dgks_seed`` whose
#: start vector lies within ``dgks_offset`` of an eigenvector (its first
#: column takes the DGKS second pass); a rank-``rank`` matrix of order
#: ``rank_order`` expanded to its full order (deflations, random restarts and
#: the invariant return); and four order-4 inputs scaled to the context's
#: largest finite value, one per ArnoldiBreakdown text
ARNOLDI_SETTINGS = {
    "target": 25,
    "keep": 12,
    "spike_seed": 2,
    "dgks_order": 16,
    "dgks_seed": 3,
    "dgks_offset": 0.01,
    "dgks_target": 8,
    "rank": 2,
    "rank_order": 8,
    "rank_seed": 4,
}
#: the inputs in hashing order
ARNOLDI_INPUTS = (
    "expand",
    "spike",
    "dgks",
    "rank_deficient",
    "nonfinite_start",
    "matvec_overflow",
    "coefficient_overflow",
    "norm_overflow",
)
#: the switch positions the expansion is checked in: the bit kernels on and off
SWITCH = {"bitkernels": True, "rule": False}


def _decomposition(ctx, v, n: int) -> KrylovDecomposition:
    return KrylovDecomposition(
        V=np.zeros((n, 0), dtype=ctx.dtype),
        S=np.zeros((0, 0), dtype=ctx.dtype),
        b=np.zeros(0, dtype=ctx.dtype),
        residual=v,
        invariant=False,
    )


def _in_context(ctx, dense) -> CSRMatrix:
    """The CSR form of ``dense`` with its values rounded into ``ctx``."""
    matrix = CSRMatrix.from_dense(np.asarray(dense, dtype=np.float64))
    return matrix.with_data(ctx.asarray(matrix.data))


def _largest(ctx):
    """The largest finite value of ``ctx``, in its work dtype."""
    fmt = getattr(ctx, "format", None)
    return ctx.dtype(fmt.max_value) if fmt is not None else np.finfo(ctx.dtype).max


def _scaled(ctx, template, scale: float) -> CSRMatrix:
    """``template`` times ``scale`` times the context's largest value."""
    top = _largest(ctx) * ctx.dtype(scale)
    matrix = CSRMatrix.from_dense(np.asarray(template, dtype=np.float64))
    data = np.asarray(matrix.data, dtype=ctx.dtype) * top
    return matrix.with_data(ctx.asarray(data))


def _arnoldi_input(ctx, kind: str):
    """``(matrix, decomposition, target_order)`` of one expansion input."""
    st = ARNOLDI_SETTINGS
    if kind in ("expand", "spike"):
        matrix = ctx.convert_matrix(_matrix().matrix)[0]
        n = matrix.shape[0]
        start = _decomposition(ctx, _initial_vector(ctx, n, None, SETTINGS["seed"]), n)
        if kind == "expand":
            return matrix, start, st["target"]
        try:
            full, _ = arnoldi_expand(ctx, matrix, start, st["target"], rng=_deflation_rng())
        except ArnoldiBreakdown:
            full = start
        keep = min(st["keep"], full.order)
        rng = np.random.default_rng(st["spike_seed"])
        truncated = KrylovDecomposition(
            V=np.ascontiguousarray(full.V[:, :keep]),
            S=np.diag(np.diagonal(full.S)[:keep]).astype(ctx.dtype),
            b=ctx.asarray(rng.standard_normal(keep) * 0.1),
            residual=full.residual,
            invariant=False,
        )
        return matrix, truncated, st["target"]
    if kind == "dgks":
        n = st["dgks_order"]
        rng = np.random.default_rng(st["dgks_seed"])
        raw = rng.standard_normal((n, n))
        dense = (raw + raw.T) / 2
        vec = np.linalg.eigh(dense)[1][:, -1] + st["dgks_offset"] * rng.standard_normal(n)
        v = ctx.asarray(vec / np.linalg.norm(vec))
        return _in_context(ctx, dense), _decomposition(ctx, v, n), st["dgks_target"]
    if kind == "rank_deficient":
        n = st["rank_order"]
        rng = np.random.default_rng(st["rank_seed"])
        U = np.linalg.qr(rng.standard_normal((n, st["rank"])))[0]
        dense = U @ np.diag(np.arange(1.0, st["rank"] + 1)) @ U.T
        v = ctx.asarray(np.full(n, 1.0 / np.sqrt(n)))
        return _in_context(ctx, dense), _decomposition(ctx, v, n), n
    # order 4, scaled to the top of the context's range
    half = ctx.asarray(np.full(4, 0.5))
    if kind == "nonfinite_start":
        v = half.copy()
        v[1] = ctx.dtype(np.nan)
        return _in_context(ctx, np.eye(4)), _decomposition(ctx, v, 4), 3
    if kind == "matvec_overflow":
        # each row sums three products of 0.45 top
        template = np.ones((4, 4)) - np.eye(4)
        return _scaled(ctx, template, 0.9), _decomposition(ctx, half, 4), 3
    if kind == "coefficient_overflow":
        # w = A v is 0.6 top in every entry, v . w is 1.2 top
        return _scaled(ctx, np.ones((4, 4)), 0.3), _decomposition(ctx, half, 4), 3
    # norm_overflow: w = A e0 = 0.9 top (e1 + e2) is orthogonal to e0, and
    # its norm is 1.27 top
    template = np.zeros((4, 4))
    template[1, 0] = template[2, 0] = template[0, 3] = 0.9
    e0 = ctx.asarray(np.eye(4)[0])
    return _scaled(ctx, template, 1.0), _decomposition(ctx, e0, 4), 3


def _deflation_rng():
    return np.random.default_rng([SETTINGS["seed"], 0x5EED])


def arnoldi_case(ctx, kind: str, h) -> tuple:
    """Expand one input in ``ctx``, hash its observables into ``h`` and
    return ``(op_count, matvecs, error text)``."""
    matrix, decomp, target = _arnoldi_input(ctx, kind)
    start = ctx.op_count
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            out, matvecs = arnoldi_expand(ctx, matrix, decomp, target, rng=_deflation_rng())
        arrays = (out.V, out.S, out.b) + (() if out.residual is None else (out.residual,))
        error, invariant = None, bool(out.invariant)
    except ArnoldiBreakdown as exc:
        out, matvecs, arrays, error, invariant = None, None, (), str(exc), None
    ops = ctx.op_count - start
    h.update(json.dumps({"op_count": ops, "matvecs": matvecs, "invariant": invariant, "error": error}).encode())
    for arr in arrays:
        arr = np.asarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(_array_bytes(arr))
    return ops, matvecs, error


def arnoldi_digest(name: str) -> dict:
    """``arnoldi_expand`` of every expansion input in ``name``."""
    ctx = get_context(name)
    h = hashlib.sha256()
    ops, matvecs, errors = [], [], []
    for kind in ARNOLDI_INPUTS:
        n, m, error = arnoldi_case(ctx, kind, h)
        ops.append(n)
        matvecs.append(m)
        errors.append(error)
    return {"digest": h.hexdigest(), "op_count": ops, "matvecs": matvecs, "errors": errors}


def arnoldi_digests() -> dict:
    """The ``arnoldi`` section: per-context expansion digests."""
    return {
        "settings": ARNOLDI_SETTINGS,
        "contexts": {name: arnoldi_digest(name) for name in EIGEN_CONTEXTS},
    }


#: every format with a bit kernel: the registered ones (float32 and float64
#: round by a cast), the saturating E4M3 and the unregistered tapered widths
KERNEL_FORMATS = (
    [name for name in sorted(available_formats()) if name not in ("float32", "float64")]
    + [E4M3_SATURATING]
    + list(UNREGISTERED_TAPERED)
)


def _hash_value(h, value) -> None:
    """Hash one argument of a kernel: arrays and NumPy scalars by dtype,
    shape and value bytes, tuples item by item, the rest by ``repr``."""
    if isinstance(value, tuple):
        h.update(b"(")
        for item in value:
            _hash_value(h, item)
        h.update(b")")
    elif isinstance(value, (np.ndarray, np.generic)):
        arr = np.asarray(value)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(_array_bytes(arr))
    else:
        h.update(repr(value).encode())


class _RecordingExtension:
    """The compiled extension, with ``Kernel`` recording its arguments."""

    def __init__(self, module):
        self._module = module
        self.kernel_args: list = []

    def __getattr__(self, name):
        return getattr(self._module, name)

    def Kernel(self, *args):
        self.kernel_args.append(args)
        return self._module.Kernel(*args)


def kernel_tables_digest(name: str) -> dict:
    """Per switch position, the digest of the arguments ``name``'s kernel is
    built with: the ``(shift, bias, special)`` lookup tables (``None`` with
    the switch off), the layout flags and the rule tuple (the telemetry
    flag buffer aside)."""
    fmt = format_for(name)
    out = {}
    for position, enabled in SWITCH.items():
        recording = _RecordingExtension(bitkernels.extension())
        previous = set_bitkernels_enabled(enabled)
        try:
            with mock.patch.object(bitkernels, "extension", lambda: recording):
                fmt._build_bitkernel()
        finally:
            set_bitkernels_enabled(previous)
        (args,) = recording.kernel_args
        shift, bias, special, extended, unsigned_zero, _counting, rule = args
        h = hashlib.sha256()
        _hash_value(h, (shift, bias, special, extended, unsigned_zero, rule))
        out[position] = h.hexdigest()
    return out


def kernel_tables_digests() -> dict:
    """The ``kernel_tables`` section: per-format kernel digests."""
    return {name: kernel_tables_digest(name) for name in KERNEL_FORMATS}


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


@pytest.fixture(scope="module")
def golden_eigen() -> dict:
    data = json.loads(GOLDEN.read_text())["eigen"]
    assert data["settings"] == EIGEN_SETTINGS, "golden file was generated with other settings"
    return data


@pytest.mark.parametrize("name", EIGEN_CONTEXTS)
def test_symmetric_eigen_matches_golden_digest(name, golden_eigen):
    if not _runnable(name):
        pytest.skip("numpy.longdouble is not extended precision here")
    assert symmetric_eigen_digest(name) == golden_eigen["symmetric"][name]


def test_tridiagonal_cases_match_golden_digests(golden_eigen):
    want = [case for case in golden_eigen["tridiagonal"] if _runnable(case["context"])]
    got = [tridiagonal_case(case["context"], case["seed"]) for case in want]
    mismatched = [(g, w) for g, w in zip(got, want) if g != w]
    assert not mismatched, mismatched


def test_tridiagonal_cases_reach_every_branch(golden_eigen):
    """The recorded inputs reach the restart branch and both error exits in
    the narrow formats where they occur: underflow and overflow in the
    IEEE-style ones, a sweep limit in the 8-bit ones."""
    reached = {}
    for case in golden_eigen["tridiagonal"]:
        for branch in case["branches"]:
            reached.setdefault(branch, set()).add(case["context"])
    assert set(reached) == set(BRANCHES)
    assert {"E4M3", "float16"} <= reached["nonfinite"]
    assert "float16" in reached["restart"]
    assert {"E4M3", "takum8", "posit8"} <= reached["sweeps"]


@pytest.fixture(scope="module")
def golden_tridiagonalize() -> dict:
    data = json.loads(GOLDEN.read_text())["tridiagonalize"]
    assert data["settings"] == TRIDIAGONALIZE_SETTINGS, "golden file was generated with other settings"
    return data["contexts"]


@pytest.mark.parametrize("name", EIGEN_CONTEXTS)
def test_tridiagonalize_matches_golden_digest(name, golden_tridiagonalize):
    if not _runnable(name):
        pytest.skip("numpy.longdouble is not extended precision here")
    assert tridiagonalize_digest(name) == golden_tridiagonalize[name]


@pytest.fixture(scope="module")
def golden_arnoldi() -> dict:
    data = json.loads(GOLDEN.read_text())["arnoldi"]
    assert data["settings"] == ARNOLDI_SETTINGS, "golden file was generated with other settings"
    return data["contexts"]


@pytest.fixture(params=list(SWITCH.values()), ids=list(SWITCH))
def switch(request):
    previous = set_bitkernels_enabled(request.param)
    yield
    set_bitkernels_enabled(previous)


@pytest.mark.parametrize("name", EIGEN_CONTEXTS)
def test_arnoldi_matches_golden_digest(name, switch, golden_arnoldi):
    if not _runnable(name):
        pytest.skip("numpy.longdouble is not extended precision here")
    assert arnoldi_digest(name) == golden_arnoldi[name]


def test_arnoldi_inputs_reach_every_breakdown_text(golden_arnoldi):
    """The scaled inputs raise each of the four ArnoldiBreakdown texts in
    the IEEE-style contexts, whose overflow is an infinity."""
    texts = {
        "nonfinite_start": "non-finite Krylov vector",
        "matvec_overflow": "matrix-vector product overflowed",
        "coefficient_overflow": "orthogonalisation coefficients overflowed",
        "norm_overflow": "residual norm overflowed",
    }
    for name in ("float16", "bfloat16", "float32", "float64", "reference"):
        errors = dict(zip(ARNOLDI_INPUTS, golden_arnoldi[name]["errors"]))
        assert {kind: errors[kind] for kind in texts} == texts, name
        assert errors["expand"] is None and errors["rank_deficient"] is None, name


@pytest.mark.parametrize("name", KERNEL_FORMATS)
def test_kernel_tables_match_golden_digest(name):
    if not _runnable(name):
        pytest.skip("numpy.longdouble is not extended precision here")
    assert kernel_tables_digest(name) == json.loads(GOLDEN.read_text())["kernel_tables"][name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_golden_digests.py --update")
    if not LONGDOUBLE_EXTENDED:
        sys.exit("refusing to regenerate: numpy.longdouble is not extended precision here")
    seq = sequential_digests()
    if seq != batched_digests():
        sys.exit("sequential and batched engines disagree; not writing digests")
    GOLDEN.write_text(
        json.dumps(
            {
                "settings": SETTINGS,
                "formats": seq,
                "eigen": eigen_digests(),
                "tridiagonalize": tridiagonalize_digests(),
                "arnoldi": arnoldi_digests(),
                "kernel_tables": kernel_tables_digests(),
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN}")
