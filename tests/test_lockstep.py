"""Differential tests of the lockstep format-axis engine.

The contract under test is absolute: for every registered format, a row of
:func:`repro.core.lockstep.batched_partialschur` must be **bit-identical**
to running :func:`repro.core.krylov_schur.partialschur` sequentially with
the same format — eigenvalues, eigenvectors, residuals, convergence
metadata, and rounded-op tallies alike.  The batched engine is a pure
re-scheduling of the sequential one; any observable difference is a bug.

Also covered: the retirement-mask edge cases (rows leaving the batch in
every order, all at once, via deflation), mixed-width batches spanning
work-dtype lanes, and the :class:`~repro.arithmetic.batched.BatchedFArray`
surface (operator parity with FArray, context-mismatch detection, the
``row()`` hand-off).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arithmetic import (
    BatchSpec,
    BatchedContext,
    BatchedFArray,
    ContextMismatchError,
    ContextSpec,
    available_formats,
    get_context,
)
from repro.core.krylov_schur import partialschur
from repro.core.lockstep import batched_partialschur
from repro.linalg import EigenConvergenceError, tridiagonal_eigen
from repro.linalg.lockstep import _apply_rotations as _apply_wave_record
from repro.linalg.lockstep import lockstep_tridiagonal_eigen
from repro.sparse import CSRMatrix
from tests.conftest import random_symmetric_csr

#: formats spanning 8-, 16-, and 64-bit storage (all registered in the seed)
MIXED_WIDTH = ["E4M3", "takum8", "float16", "bfloat16", "posit16", "posit64"]


def _assert_rows_match(batched, sequential, label=""):
    """Every observable field of a batched row equals the sequential run."""
    assert np.array_equal(batched.eigenvalues, sequential.eigenvalues), label
    assert np.array_equal(batched.eigenvectors, sequential.eigenvectors), label
    assert np.array_equal(batched.residuals, sequential.residuals), label
    assert batched.converged == sequential.converged, label
    assert batched.nconverged == sequential.nconverged, label
    assert batched.restarts == sequential.restarts, label
    assert batched.matvecs == sequential.matvecs, label
    assert batched.reason == sequential.reason, label


def _check_batch(matrix, formats, **kwargs):
    """Run a batch and its sequential twins; assert bit-identity per row."""
    results = batched_partialschur(matrix, formats, **kwargs)
    tol = kwargs.pop("tol", 1e-8)
    tols = tol if isinstance(tol, list) else [tol] * len(formats)
    for fmt, row_tol, batched in zip(formats, tols, results):
        sequential = partialschur(matrix, ctx=fmt, tol=row_tol, **kwargs)
        _assert_rows_match(batched, sequential, label=fmt)
    return results


class TestBatchedDifferential:
    """batched_partialschur row-for-row against the sequential engine."""

    def test_every_registered_format_bit_identical(self):
        matrix = random_symmetric_csr(26, density=0.12, seed=3)
        formats = list(available_formats()) + ["reference"]
        _check_batch(matrix, formats, nev=3, tol=1e-8, restarts=4, seed=1)

    def test_mixed_width_batch(self):
        """8/16/64-bit formats in one batch: several work-dtype lanes."""
        matrix = random_symmetric_csr(22, density=0.15, seed=9)
        spec = BatchSpec(MIXED_WIDTH)
        assert len(spec.lanes()) > 1  # the point of the test
        _check_batch(matrix, MIXED_WIDTH, nev=3, tol=1e-6, restarts=3, seed=2)

    def test_single_row_batch_equals_partialschur(self):
        matrix = random_symmetric_csr(30, density=0.1, seed=5)
        _check_batch(matrix, ["float64"], nev=4, tol=1e-10, restarts=6, seed=0)

    def test_result_order_follows_spec_order(self):
        matrix = random_symmetric_csr(20, density=0.15, seed=4)
        formats = ["float64", "bfloat16", "takum8"]
        results = batched_partialschur(matrix, formats, nev=2, restarts=2, seed=1)
        flipped = batched_partialschur(matrix, formats[::-1], nev=2, restarts=2, seed=1)
        for a, b in zip(results, flipped[::-1]):
            _assert_rows_match(a, b)


class TestRetirementMasks:
    """Rows must be able to leave the lockstep sweep in any order."""

    def test_first_row_retires_first(self):
        """A loose-tolerance row converges while the tight row keeps going."""
        matrix = random_symmetric_csr(24, density=0.12, seed=7)
        results = _check_batch(
            matrix,
            ["float64", "float64"],
            nev=3,
            tol=[1e-1, 1e-12],
            restarts=8,
            seed=1,
        )
        loose, tight = results
        assert loose.restarts <= tight.restarts

    def test_last_row_retires_first(self):
        matrix = random_symmetric_csr(24, density=0.12, seed=7)
        results = _check_batch(
            matrix,
            ["float64", "float64"],
            nev=3,
            tol=[1e-12, 1e-1],
            restarts=8,
            seed=1,
        )
        tight, loose = results
        assert loose.restarts <= tight.restarts

    def test_all_rows_retire_same_round(self):
        """``restarts=0``: every row must leave after the first sweep."""
        matrix = random_symmetric_csr(28, density=0.1, seed=11)
        results = _check_batch(
            matrix,
            ["float64", "float32", "bfloat16"],
            nev=4,
            tol=1e-14,
            restarts=0,
            seed=3,
        )
        assert all(r.restarts == 0 for r in results)

    def test_converged_on_final_restart_is_converged(self):
        """Convergence is checked before the restart budget (sequential
        precedence); a row finishing on its last allowed expansion must not
        be misreported as ``maxiter``."""
        matrix = random_symmetric_csr(24, density=0.12, seed=7)
        # find a budget where the sequential run converges exactly at the cap
        sequential = partialschur(matrix, ctx="float64", nev=3, tol=1e-12, seed=1)
        budget = sequential.restarts
        _check_batch(matrix, ["float64", "takum8"], nev=3, tol=1e-12, restarts=budget, seed=1)

    def test_invariant_deflation(self):
        """Degenerate spectra exhaust the Krylov space; deflation and the
        ``invariant`` retirement must track the sequential engine."""
        matrix = CSRMatrix.from_dense(np.diag(np.array([3.0, 3.0, 2.0, 2.0, 1.0] * 4)))
        results = _check_batch(matrix, ["float64", "float32", "takum8"], nev=6, seed=2)
        assert any(r.reason == "invariant" for r in results)

    def test_per_row_tol_list_rejects_wrong_length(self):
        matrix = random_symmetric_csr(20, density=0.15, seed=4)
        with pytest.raises(ValueError):
            batched_partialschur(matrix, ["float64", "float32"], tol=[1e-8])


class TestBatchedOpCounts:
    """Per-row rounded-op tallies must equal the sequential run's."""

    def test_op_count_parity(self):
        matrix = random_symmetric_csr(20, density=0.15, seed=8)
        formats = ["float64", "posit16"]
        contexts = [get_context(ContextSpec(format=f)) for f in formats]
        batched_partialschur(matrix, BatchSpec(contexts), nev=3, restarts=2, seed=1)
        for fmt, ctx in zip(formats, contexts):
            sequential_ctx = get_context(ContextSpec(format=fmt))
            partialschur(matrix, ctx=sequential_ctx, nev=3, restarts=2, seed=1)
            assert ctx.op_count == sequential_ctx.op_count, fmt


class TestBatchedRotateColumns:
    """The fused Givens update, row for row against the sequential op."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf/NaN operands
    def test_matches_sequential_per_row_on_mixed_width_batch(self):
        rng = np.random.default_rng(41)
        spec = BatchSpec(MIXED_WIDTH + ["float64", "float32"])
        assert len(spec.lanes()) == 3
        n = 11
        for contexts, indices in spec.lanes():
            bctx = BatchedContext(contexts)
            nb = len(contexts)
            raw = rng.standard_normal((nb, 2, n)) * 10.0 ** rng.integers(-3, 3, (nb, 2, n))
            raw[:, 0, :4] = [0.0, -0.0, np.inf, np.nan]
            raw[:, 1, :4] = [-0.0, 1e300, -np.inf, 2.0]
            xy = bctx.round(np.array(raw, dtype=bctx.dtype), bctx.all_rows)
            cs = bctx.round(
                np.array(rng.uniform(-1.0, 1.0, (nb, 2)), dtype=bctx.dtype), bctx.all_rows
            )
            # the full lane, and a reordered sub-batch as retirement leaves it
            for sel in (np.arange(nb), np.arange(nb)[::-2]):
                rows = bctx.all_rows[sel]
                got = bctx.rotate_columns(cs[sel, 0], cs[sel, 1], xy[sel, 0], xy[sel, 1], rows)
                assert got.shape == (sel.size, 2, n)
                for k, r in enumerate(rows):
                    ctx = contexts[r]
                    want = ctx.rotate_columns(cs[r, 0], cs[r, 1], xy[r, 0], xy[r, 1])
                    label = f"{ctx.name} (row {indices[r]})"
                    assert np.array_equal(got[k], want, equal_nan=True), label
                    # NaN sign bits follow NumPy's loop choice (see
                    # tests/test_fused_ops.py::assert_same_bits)
                    keep = ~np.isnan(want)
                    assert np.array_equal(np.signbit(got[k][keep]), np.signbit(want[keep])), label

    def test_op_tally_is_six_per_element_per_row(self):
        contexts = [get_context(f) for f in ("posit16", "float64", "E4M3")]
        bctx = BatchedContext(contexts)
        xy = bctx.round(np.ones((3, 2, 5)), bctx.all_rows)
        rows = bctx.all_rows[[2, 0]]
        bctx.rotate_columns(xy[:2, 0, 0], xy[:2, 1, 0], xy[:2, 0], xy[:2, 1], rows)
        bctx.flush_op_counts()
        assert [ctx.op_count for ctx in contexts] == [30, 0, 30]


class TestBatchedWaveApplication:
    """The deferred lockstep eigenvector update against the sequential one."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf/NaN operands
    def test_matches_per_row_sequential_on_mixed_width_batch(self):
        rng = np.random.default_rng(43)
        n = 6
        for contexts, indices in BatchSpec(MIXED_WIDTH).lanes():
            bctx = BatchedContext(contexts)
            # more machines than format rows: every row index repeats
            rows = np.concatenate([bctx.all_rows, bctx.all_rows[::-1]])
            nm = rows.size
            # QL-shaped sequences: sweeps i = m - 1 down to low, per machine
            cols = []
            for _ in range(nm):
                seq = []
                for _ in range(int(rng.integers(1, 5))):
                    m = int(rng.integers(1, n))
                    seq.extend(range(m - 1, int(rng.integers(0, m)) - 1, -1))
                cols.append(seq)
            steps = max(len(seq) for seq in cols)
            C = bctx.round(np.array(rng.uniform(-1, 1, (nm, steps)), dtype=bctx.dtype), rows)
            S = bctx.round(np.array(rng.uniform(-1, 1, (nm, steps)), dtype=bctx.dtype), rows)
            raw = rng.standard_normal((nm, n, n)) * 10.0 ** rng.integers(-3, 3, (nm, n, n))
            raw[:, 0, :4] = [0.0, -0.0, np.inf, np.nan]
            raw[:, 1, :3] = [-0.0, -np.inf, 1e300]
            Z = bctx.round(np.array(raw, dtype=bctx.dtype), rows)
            # one record entry per lockstep tick, as _lockstep_ql appends them
            record = []
            for t in range(steps):
                la = np.array([a for a in range(nm) if len(cols[a]) > t], dtype=np.int64)
                i = np.array([cols[a][t] for a in la], dtype=np.int64)
                record.append((la, i, C[la, t], S[la, t]))
            got = Z.copy()
            before = [ctx.op_count for ctx in contexts]
            nrot, waves = _apply_wave_record(bctx, got, rows, record)
            bctx.flush_op_counts()
            batched_ops = [ctx.op_count - b for ctx, b in zip(contexts, before)]
            assert nrot == sum(len(seq) for seq in cols)
            assert 0 < waves < nrot
            for a in range(nm):
                ctx = contexts[rows[a]]
                want = Z[a].copy()
                for t, i in enumerate(cols[a]):
                    rot = ctx.rotate_columns(C[a, t], S[a, t], want[:, i], want[:, i + 1])
                    want[:, i] = rot[0]
                    want[:, i + 1] = rot[1]
                label = f"{ctx.name} (machine {a}, row {indices[rows[a]]})"
                assert np.array_equal(got[a], want, equal_nan=True), label
                # NaN sign bits follow NumPy's loop choice (see
                # tests/test_fused_ops.py::assert_same_bits)
                keep = ~np.isnan(want)
                assert np.array_equal(np.signbit(got[a][keep]), np.signbit(want[keep])), label
            for r, ops in enumerate(batched_ops):
                rotations = sum(len(cols[a]) for a in range(nm) if rows[a] == r)
                assert ops == 6 * n * rotations, contexts[r].name


class TestQLFailureParity:
    """Rotations recorded before a QL failure are still applied and tallied."""

    FORMATS = ["E4M3", "E5M2", "takum8", "posit8", "bfloat16", "float16", "posit16"]

    @staticmethod
    def _problem(scale, seed, n=8):
        rng = np.random.default_rng(seed)
        return rng.uniform(-1, 1, n) * scale, rng.uniform(-1, 1, n - 1) * scale

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow to NaN
    @pytest.mark.parametrize(
        "scale, seed, max_sweeps",
        [(150.0, 5, 2), (400.0, 0, 60)],  # sweep budget; E4M3 goes non-finite
    )
    def test_failed_rows_tally_like_sequential_solves(self, scale, seed, max_sweeps):
        d, e = self._problem(scale, seed)
        contexts = [get_context(f) for f in self.FORMATS]
        bctx = BatchedContext(contexts)
        rows = bctx.all_rows
        dd = bctx.round(np.tile(np.asarray(d, dtype=bctx.dtype), (rows.size, 1)), rows)
        ee = bctx.round(np.tile(np.asarray(e, dtype=bctx.dtype), (rows.size, 1)), rows)
        _, _, errors = lockstep_tridiagonal_eigen(bctx, dd, ee, None, rows, max_sweeps=max_sweeps)
        bctx.flush_op_counts()
        failed = 0
        for a, fmt in enumerate(self.FORMATS):
            ctx = get_context(fmt)
            try:
                tridiagonal_eigen(ctx, dd[a], ee[a], max_sweeps=max_sweeps)
                message = None
            except EigenConvergenceError as exc:
                message = str(exc)
                failed += 1
            assert errors[a] == message, fmt
            assert contexts[a].op_count == ctx.op_count, fmt
        assert 0 < failed < len(self.FORMATS)


class TestBatchedFArraySurface:
    """Operator parity, context identity, and the sequential hand-off."""

    @staticmethod
    def _chain(add, value_a, value_b):
        """A representative rounded chain; ``add`` flavours the operands."""
        s = (value_a + value_b) * value_a
        t = s - value_b / (value_b + add)
        return abs(-t)

    def test_operator_chain_matches_farray_per_lane(self):
        rng = np.random.default_rng(21)
        spec = BatchSpec(list(available_formats()))
        for contexts, indices in spec.lanes():
            bctx = BatchedContext(contexts)
            raw = rng.standard_normal((len(contexts), 12)) * 2.0
            data = bctx.round(np.array(raw, dtype=bctx.dtype), bctx.all_rows)
            other = bctx.round(
                np.abs(np.array(rng.standard_normal((len(contexts), 12)), dtype=bctx.dtype))
                + bctx.dtype(0.5),
                bctx.all_rows,
            )
            batched = self._chain(1.5, BatchedFArray(bctx, data.copy()), BatchedFArray(bctx, other.copy()))
            for i, ctx in enumerate(contexts):
                sequential = self._chain(1.5, ctx.wrap(data[i].copy()), ctx.wrap(other[i].copy()))
                assert np.array_equal(batched.data[i], sequential.data), (
                    f"lane dtype {np.dtype(bctx.dtype).name}, row {indices[i]} "
                    f"({ctx.name})"
                )

    def test_row_handoff_returns_bound_farray(self):
        bctx = BatchedContext.from_formats(["float64", "float64"])
        stacked = BatchedFArray(bctx, np.arange(6, dtype=np.float64).reshape(2, 3))
        row = stacked.row(1)
        assert row.ctx is bctx.rows[1]
        assert np.array_equal(row.data, stacked.data[1])

    def test_context_mismatch_raises(self):
        a = BatchedFArray(BatchedContext.from_formats(["float64"]), np.ones((1, 4)))
        b = BatchedFArray(BatchedContext.from_formats(["float64"]), np.ones((1, 4)))
        with pytest.raises(ContextMismatchError):
            a + b  # same formats, different context objects: still a leak

    def test_row_map_length_mismatch_raises(self):
        bctx = BatchedContext.from_formats(["float64", "float64"])
        with pytest.raises(ValueError):
            BatchedFArray(bctx, np.ones((3, 4)))

    def test_mixed_lane_context_rejected(self):
        with pytest.raises(ValueError):
            BatchedContext([get_context("float64"), get_context("float32")])

    def test_mixed_accumulation_rejected(self):
        with pytest.raises(ValueError):
            BatchSpec(
                [
                    ContextSpec(format="float64", accumulation="pairwise"),
                    ContextSpec(format="float64", accumulation="sequential"),
                ]
            )
