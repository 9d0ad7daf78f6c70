"""Experiment configuration shared by the runner, benchmarks and examples."""

from __future__ import annotations

import dataclasses
import os

from ..arithmetic.context import ContextSpec

__all__ = ["ExperimentConfig"]


@dataclasses.dataclass
class ExperimentConfig:
    """Parameters of the eigenvalue experiments.

    Defaults mirror the paper: the 10 largest eigenvalues plus 2 buffer
    pairs, bit-width-dependent tolerances (see
    :mod:`repro.experiments.tolerances`), extended-precision reference.

    Attributes
    ----------
    eigenvalue_count:
        Number of eigenpairs whose error is evaluated (paper: 10).
    eigenvalue_buffer_count:
        Extra pairs computed everywhere to absorb permutations of clustered
        eigenvalues before matching (paper: 2).
    which:
        Ordering rule, ``"LM"`` for the largest eigenvalues.
    restarts:
        Maximum number of Krylov-Schur restarts per solve.
    maxdim:
        Maximum Krylov dimension (``None`` = solver default).
    seed:
        Seed of the solver's starting vector.
    eps_floor:
        Whether the solver applies the ``eps^(2/3)`` tolerance floor of the
        working format (see :func:`repro.core.krylov_schur.effective_tolerance`).
    accumulation:
        Accumulation order of the emulated kernels (``"pairwise"`` or
        ``"sequential"``); exposed for the accumulation-order ablation.
    reference_tolerance:
        Convergence tolerance of the reference solve.
    """

    eigenvalue_count: int = 10
    eigenvalue_buffer_count: int = 2
    which: str = "LM"
    restarts: int = 60
    maxdim: int | None = None
    seed: int = 0
    eps_floor: bool = True
    accumulation: str = "pairwise"
    reference_tolerance: float = 1e-18

    @property
    def nev_total(self) -> int:
        """Eigenpairs requested from every solve (count + buffer)."""
        return self.eigenvalue_count + self.eigenvalue_buffer_count

    def context_spec(self, format_name: str) -> ContextSpec:
        """The :class:`~repro.arithmetic.ContextSpec` for one format under
        this configuration (what the runner hands to ``get_context``)."""
        return ContextSpec(format=format_name, accumulation=self.accumulation)

    def canonical_dict(self) -> dict:
        """Stable, JSON-serialisable view of every field, for cache keys.

        The experiment store hashes this dict (sorted keys, canonical JSON)
        into each task's cache key, so *any* field change — solver budget,
        accumulation order, tolerance — moves the task to
        a fresh key and invalidates the cached result.  Field order is
        irrelevant; only names and values enter the hash.
        """
        raw = dataclasses.asdict(self)
        return {name: raw[name] for name in sorted(raw)}

    @classmethod
    def from_environment(cls, **overrides) -> "ExperimentConfig":
        """Build a config honouring ``REPRO_*`` environment overrides.

        ``REPRO_RESTARTS`` and ``REPRO_MAXDIM`` bound the solver effort; they
        are read by the benchmark harness so CI machines can trade fidelity
        for wall-clock time.
        """
        cfg = cls(**overrides)
        restarts = os.environ.get("REPRO_RESTARTS")
        if restarts:
            cfg.restarts = int(restarts)
        maxdim = os.environ.get("REPRO_MAXDIM")
        if maxdim:
            cfg.maxdim = int(maxdim)
        return cfg
